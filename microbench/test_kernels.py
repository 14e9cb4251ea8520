"""Microbenchmarks of the encoding, ranking-similarity and condition-training kernels.

Run from the root of a checkout with pytest-benchmark installed:

    PYTHONPATH=src python -m pytest microbench

These sit outside the pytest ``testpaths``, so the test suite does not
run them. Inputs are seeded and sized like the benchmark workloads at
dimension 1024.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from hologrid import abduction as ab
from hologrid import induction as ind
from hologrid import perception as pc
from hologrid import vsa
from hologrid.ssp import SspEncoder

DIMENSION = 1024
ENC = SspEncoder(vsa.VsaConfig(dimension=DIMENSION, seed=0))
PALETTE = pc.build_palette(ENC.config)

CENTRE = (1.5, -2.0)
STENCIL = np.array([(CENTRE[0] + dx, CENTRE[1] + dy) for dx, dy in pc._BLUR_OFFSETS])
SHAPE = np.array([(0.0, 1.0), (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, -1.0)])  # a plus sign's cells
BUNDLES = {
    "centre": (STENCIL, pc._blur_weights(pc.BLUR_SIGMA)),
    "shape": (SHAPE, np.ones(len(SHAPE))),
}
# Shapes gathered from the lattice tables: the plus sign and a 4x6 bar's 24 cells.
TABLE_SHAPES = {
    "plus": SHAPE,
    "bar-24": np.array([(c - 2.5, 1.5 - r) for r in range(4) for c in range(6)]),
}


@pytest.mark.parametrize("name", BUNDLES)
def test_ssp_bundle_summed_in_the_spectrum(benchmark, name):
    points, weights = BUNDLES[name]
    benchmark(ENC.encode_bundle, points, weights)


@pytest.mark.parametrize("name", BUNDLES)
def test_ssp_bundle_summed_point_by_point(benchmark, name):
    points, weights = BUNDLES[name]
    benchmark(lambda: vsa.normalize(weights @ ENC.encode_many(points)))


@pytest.mark.parametrize("name", TABLE_SHAPES)
def test_ssp_bundle_from_the_lattice_tables(benchmark, name):
    ENC.lattice_bundle(SHAPE)  # the tables are built once per encoder, on first use
    benchmark(ENC.lattice_bundle, TABLE_SHAPES[name])


def pixel_scene_pair(seed=0, pixels=40):
    """An arc30-style demo pair under the pixel hypothesis: 40 coloured cells of a 30x30 grid, all moved one step.

    Both scenes are perceived through one memo, as the ranking perceives
    them, so every object shares the one single-cell shape vector.
    """
    rng = np.random.default_rng(seed)
    grid = np.zeros((30, 30), dtype=np.int64)
    cells = rng.choice(29 * 30, size=pixels, replace=False)
    grid.ravel()[cells] = rng.integers(1, 10, size=pixels)  # never the last row, so the step stays on the grid
    memo: dict = {}
    ins = pc.perceive(grid, pc.ObjectHypothesis.PIXEL, ENC, PALETTE, memo).objects
    outs = pc.perceive(np.roll(grid, 1, axis=0), pc.ObjectHypothesis.PIXEL, ENC, PALETTE, memo).objects
    return outs, ins


def test_similarity_matrices(benchmark):
    outs, ins = pixel_scene_pair()
    pc.centre_table(ENC)  # built once per encoder, on first use
    benchmark(ab.similarity_matrices, outs, ins, ENC, PALETTE)


def condition_batch(seed=0, demos=3, per_demo=5, kinds=2):
    """One task's condition batch as sort-of-arc trains it: 42 runs over M = 15 objects.

    Objects draw their colour, centre and shape vectors from small pools.
    Each of ``kinds`` edit kinds labels the objects at random, and trains
    every property subset on all demos and with demo 0 or 1 held out.
    """
    rng = np.random.default_rng(seed)
    pools = [[vsa.normalize(rng.normal(size=DIMENSION)) for _ in range(4)] for _ in pc.PROPERTIES]
    objects = [
        pc.ObjectRepr(None, *(pool[rng.integers(len(pool))] for pool in pools)) for _ in range(demos * per_demo)
    ]
    bundles = ind._Bundles(objects)
    demo_of = np.repeat(np.arange(demos), per_demo)
    subsets = [s for k in range(1, 4) for s in combinations(pc.PROPERTIES, k)]
    operators, starts, train, labels = [], [], [], []
    for _ in range(kinds):
        wanted = rng.random(len(objects)) < 0.5
        wanted[::per_demo], wanted[1::per_demo] = True, False  # both labels in every demo
        for subset in subsets:
            rows = bundles.rows(subset)
            used = np.stack([demo_of != held_out for held_out in (None, 0, 1)])
            operators.extend([ind._operator(rows)] * len(used))
            starts.extend(ind._starts(rows, used, np.tile(wanted, (len(used), 1))))
            train.extend(used)
            labels.extend([wanted] * len(used))
    return tuple(np.stack(part) for part in (operators, starts, train, labels))


def test_condition_batch(benchmark):
    batch = condition_batch()
    assert batch[0].shape == (42, 15, 30)
    benchmark(ind._train_conditions, *batch)
