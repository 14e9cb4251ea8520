"""Seeded task generators for the benchmark workloads.

Each generator takes the workload seed and yields an endless stream of
``TaskRecord``s; the same seed always yields the same stream. Task ``k``
is built from its own random stream keyed by ``(seed, k)``, so a task
does not depend on how many tasks a run consumed before it. Only public
``hologrid.harness`` helpers and numpy are used.
"""
from __future__ import annotations

from itertools import count
from typing import Iterator

import numpy as np

from hologrid.harness import TaskRecord, canonical_shape, generate_sort_of_arc, stencil_shapes

CARDINAL_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def sort_of_arc(seed: int) -> Iterator[TaskRecord]:
    """The paper's benchmark (criterion 4), colour and shape halves interleaved.

    Why: cross-validation of the learned rules dominates these tasks and
    the hitting set is trivial (one shared move). Each pair of tasks is
    ``generate_sort_of_arc(2, ...)`` under a derived seed, which gives one
    colour-conditioned and one shape-conditioned task, so a run that stops
    early still holds both halves in equal measure.
    """
    for pair in count():
        derived = int(np.random.SeedSequence([seed, pair]).generate_state(1)[0])
        for record in generate_sort_of_arc(2, seed=derived):
            yield TaskRecord(
                id=f"sort-of-arc-{seed}-{pair:04d}-{record.subsplit}",
                train=record.train,
                test=record.test,
                subsplit=record.subsplit,
            )


ARC30_SIDE = 30
ARC30_OBJECTS = 8
ARC30_DEMOS = 5


def _separated(a, b) -> bool:
    # Chebyshev distance above one keeps objects apart even when segmented
    # 8-connected; a shared shift preserves it, so outputs stay separated.
    return all(max(abs(r1 - r2), abs(c1 - c2)) > 1 for r1, c1 in a for r2, c2 in b)


def _shifted_pair(rng, shapes, step):
    dr, dc = step
    placed: list[tuple[set, int]] = []
    while len(placed) < ARC30_OBJECTS:
        shape = canonical_shape(shapes[int(rng.integers(len(shapes)))])
        height = max(r for r, _ in shape) + 1
        width = max(c for _, c in shape) + 1
        # Corners are drawn so that the shifted object stays on the canvas.
        r0 = int(rng.integers(max(0, -dr), ARC30_SIDE - height + 1 - max(0, dr)))
        c0 = int(rng.integers(max(0, -dc), ARC30_SIDE - width + 1 - max(0, dc)))
        cells = {(r0 + r, c0 + c) for r, c in shape}
        colour = int(rng.integers(1, 10))
        if all(_separated(cells, other) for other, _ in placed):
            placed.append((cells, colour))
    grid_in = np.zeros((ARC30_SIDE, ARC30_SIDE), dtype=np.int64)
    grid_out = np.zeros_like(grid_in)
    for cells, colour in placed:
        for r, c in cells:
            grid_in[r, c] = colour
            grid_out[r + dr, c + dc] = colour
    return grid_in, grid_out


def arc30_uniform(seed: int) -> Iterator[TaskRecord]:
    """ARC-sized scenes in which every object shifts by one shared step.

    Why: 30x30 is ARC's largest grid and 8 stencil objects per grid make
    perception and hypothesis ranking the bulk of the work. Because every
    object moves, every learned rule is vacuous or constant, so
    cross-validation never runs: the workload bypasses induction.
    5 demonstrations and 1 query per task.
    """
    shapes = stencil_shapes()
    for index in count():
        rng = _rng(seed, index)
        step = CARDINAL_STEPS[int(rng.integers(len(CARDINAL_STEPS)))]
        pairs = [_shifted_pair(rng, shapes, step) for _ in range(ARC30_DEMOS + 1)]
        yield TaskRecord(
            id=f"arc30-uniform-{seed}-{index:04d}",
            train=pairs[:ARC30_DEMOS],
            test=pairs[ARC30_DEMOS:],
        )


NOISE_SIDE = 6
NOISE_FILL = 0.5
NOISE_DEMOS = 3


def _noise_grid(rng) -> np.ndarray:
    filled = rng.random((NOISE_SIDE, NOISE_SIDE)) < NOISE_FILL
    colours = rng.integers(1, 10, (NOISE_SIDE, NOISE_SIDE))
    return np.where(filled, colours, 0).astype(np.int64)


def noise6(seed: int) -> Iterator[TaskRecord]:
    """Unrelated random 6x6 grids, about half filled, 3 demonstrations.

    Why: there is no rule to find, so every segmentation hypothesis is
    explained and then rejected; this is the rejection path, where the
    other workloads take the acceptance path. The minimum hitting set
    dominates, and some searches use up the 200k-node budget, so a single
    task can take from seconds to well over a minute. The size and density
    are kept as they are so that this node-budget cliff stays visible.

    Not listed in BENCHMARK.json: at dimension 1024 one task took 25-33 s
    on a shared 2-core x86 VM, so a one-minute run holds two or three
    tasks and its timings cannot be steady. Run it by hand with a longer
    ``--seconds``.
    """
    for index in count():
        rng = _rng(seed, index)
        pairs = [(_noise_grid(rng), _noise_grid(rng)) for _ in range(NOISE_DEMOS + 1)]
        yield TaskRecord(
            id=f"noise6-{seed}-{index:04d}",
            train=pairs[:NOISE_DEMOS],
            test=pairs[NOISE_DEMOS:],
        )


WORKLOADS = {
    "sort-of-arc": sort_of_arc,
    "arc30-uniform": arc30_uniform,
    "noise6": noise6,
}
