"""Verdicts do not hang on the last bits of the encodings.

Every vector the solver compares comes out of ``SspEncoder.encode_many``,
``SspEncoder.encode_bundle`` or the palette. Solving a seeded slice once
plainly and once with noise must reach the same verdicts: a decision that
flips under such noise sits on its boundary, and a change to the encoder's
formulas, or to any product of object vectors, that is exact only up to
rounding could flip it too.
The noisy arm scales every encoding by (1 + 1e-9 * N(0, 1)), and then
gives each perceived object its own copy of its three property vectors,
each scaled the same way; a mask perceived again, under another
hypothesis or in a replay, keeps its copy. So two objects that share a
colour, centre or shape no longer share one vector, and a decision
between two reads of one encoding is tested too. This is the standard
such a change is judged by, next to the bitwise pins of today's formulas.
"""
from __future__ import annotations

import numpy as np

from hologrid import deduction, harness as hn, perception as pc, ssp, vsa
from hologrid.induction import LinearParameter

from test_induction import recolour_by_shape_task

DIMENSION = 512
NOISE = 1e-9
STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def arc30_style_task(seed: int, demos: int = 3, objects: int = 8) -> hn.TaskRecord:
    """30x30 scenes of stencil objects two or more cells apart, all shifted by one cardinal step."""
    rng = np.random.default_rng(seed)
    shapes = hn.stencil_shapes()
    step = STEPS[int(rng.integers(len(STEPS)))]
    pairs = []
    for _ in range(demos + 1):
        grid = np.zeros((30, 30), dtype=np.int64)
        near = np.zeros((30, 30), dtype=bool)  # cells within one of a placed object
        placed = 0
        while placed < objects:
            shape = hn.canonical_shape(shapes[int(rng.integers(len(shapes)))])
            r0, c0 = (int(v) for v in rng.integers(1, 26, size=2))  # stays on the canvas when shifted
            cells = [(r0 + r, c0 + c) for r, c in shape]
            if any(near[r, c] for r, c in cells):
                continue
            colour = int(rng.integers(1, 10))
            for r, c in cells:
                grid[r, c] = colour
                near[r - 1 : r + 2, c - 1 : c + 2] = True
            placed += 1
        pairs.append((grid, np.roll(grid, step, axis=(0, 1))))
    return hn.TaskRecord(f"arc30-style-{seed}", pairs[:demos], pairs[demos:])


def verdict(task, encoder, palette) -> tuple:
    """Everything the solver decided on a task, with no score or time in it."""
    predictions, diag = deduction.solve_task(task, encoder, palette)
    subsets = None
    if diag.program is not None:
        subsets = [
            (
                rule.kind,
                rule.condition.subset,
                sorted((slot, p.subset) for slot, p in rule.parameters.items() if isinstance(p, LinearParameter)),
            )
            for rule in diag.program.rules
        ]
    return (
        diag.ok,
        diag.hypothesis,
        [a.sort_key() for a in diag.action_set],
        diag.cost,
        [None if p.grid is None else p.grid.tolist() for p in predictions],
        diag.demo_replays,
        diag.training_fit,
        subsets,
    )


def test_verdicts_survive_relative_noise_on_every_encoding(monkeypatch):
    config = vsa.VsaConfig(dimension=DIMENSION, seed=0)
    encoder, palette = ssp.SspEncoder(config), pc.build_palette(config)
    tasks = hn.generate_sort_of_arc(20, seed=1)
    tasks += [arc30_style_task(seed) for seed in range(10)]
    tasks += [recolour_by_shape_task(seed) for seed in range(3)]
    plain = [verdict(task, encoder, palette) for task in tasks]

    rng = np.random.default_rng(2026)
    encode_many, encode_bundle = ssp.SspEncoder.encode_many, ssp.SspEncoder.encode_bundle
    encode_object = pc.encode_object
    perturbed = []

    def jitter(vectors):
        return vectors * (1.0 + NOISE * rng.standard_normal(vectors.shape))

    def noisy_encodings(self, points):
        vectors = encode_many(self, points)
        perturbed.append(len(vectors))
        return jitter(vectors)

    def noisy_bundle(self, points, weights):
        perturbed.append(len(points))  # the encodings it sums, as encode_many counts them
        return jitter(encode_bundle(self, points, weights))

    copies: dict = {}  # mask -> its noisy vectors, so a mask perceived again is the same object

    def noisy_object(mask, *args):
        if mask not in copies:
            obj = encode_object(mask, *args)
            copies[mask] = jitter(np.array([obj.vector(p) for p in pc.PROPERTIES]))
        return pc.ObjectRepr(mask, *copies[mask])

    monkeypatch.setattr(ssp.SspEncoder, "encode_many", noisy_encodings)
    monkeypatch.setattr(ssp.SspEncoder, "encode_bundle", noisy_bundle)
    monkeypatch.setattr(pc, "encode_object", noisy_object)
    noisy_verdicts = [verdict(task, encoder, palette) for task in tasks]
    assert sum(perturbed) > 10_000 and len(copies) > 5_000
    for task, want, got in zip(tasks, plain, noisy_verdicts):
        assert got == want, task.id
    # The slice takes every accepting path: both sort-of-arc halves, shared
    # moves on 30x30 scenes and a learned colour map.
    assert sum(v[0] for v in plain) >= 30
