"""Microbenchmarks of the encoding, ranking-similarity, condition-training and cross-validation kernels.

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
from hologrid.dsl import Amount, OperationKind
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


def condition_plans(seed=0, demos=3, per_demo=5, kinds=2):
    """One task's condition training as sort-of-arc plans it: 42 runs over M = 15 objects.

    Objects draw their colour, centre and shape vectors from small pools.
    Each of ``kinds`` edit kinds labels the objects at random, and trains
    every property subset on all demos and with demo 0 or 1 held out.
    Returns ``train_operation_predictor``'s plans.
    """
    rng = np.random.default_rng(seed)
    pools = [[vsa.normalize(rng.normal(size=DIMENSION)) for _ in range(4)] for _ in pc.PROPERTIES]
    objects = [
        pc.ObjectRepr(None, *(pool[rng.integers(len(pool))] for pool in pools)) for _ in range(demos * per_demo)
    ]
    bundles = ind._Bundles(objects)
    demo_of = np.repeat(np.arange(demos), per_demo)
    dims = {d: (10, 10) for d in range(demos)}
    subsets = [s for k in range(1, 4) for s in combinations(pc.PROPERTIES, k)]
    plans = []
    for kind in list(OperationKind)[:kinds]:
        wanted = rng.random(len(objects)) < 0.5
        wanted[::per_demo], wanted[1::per_demo] = True, False  # both labels in every demo
        plans.append((ind._RuleObservations(kind, objects, demo_of, wanted, {}, dims, bundles), subsets, [0, 1]))
    return plans


def condition_batch(plans):
    """The trainer's inputs for ``plans``, in its grouped layout: one operator per subset, (7, 15, 30), and 42 runs.

    A subset's group holds its runs of every kind, on all demos and with
    demo 0 or 1 held out.
    """
    (first, subsets, folds), *_ = plans
    operators, group_of, starts, train, labels = [], [], [], [], []
    for g, subset in enumerate(subsets):
        rows = first.bundles.rows(subset)
        operators.append(ind._operator(rows))
        for obs, _, _ in plans:
            used = np.stack([obs.demo_of != held_out for held_out in (None, *folds)])
            wanted = np.tile(obs.labels, (len(used), 1))
            group_of.extend([g] * len(used))
            starts.extend(ind._starts(rows, used, wanted))
            train.extend(used)
            labels.extend(wanted)
    return np.stack(operators), np.array(group_of), *(np.stack(part) for part in (starts, train, labels))


def test_condition_batch(benchmark):
    batch = condition_batch(condition_plans())
    assert batch[0].shape == (7, 15, 30) and len(batch[1]) == 42
    benchmark(ind._train_conditions, *batch)


def test_train_operation_predictor(benchmark):
    # Batch assembly (subset rows, operators, starts) and training. Subset
    # ranking runs first, as in a task, and builds the objects' property stack.
    plans = condition_plans()
    for obs, _, _ in plans:
        ind.rank_properties(obs.bundles, obs.labels)
    benchmark(ind.train_operation_predictor, plans)


def cross_validation_inputs(seed=0, demos=5, per_demo=3):
    """One rule kind as sort-of-arc cross-validates it: 7 subsets, 5 held-out demos and one constant ``amount`` slot.

    Objects draw their property vectors from small pools; in every demo the
    first object moves by one shared amount. The conditions are trained
    beforehand, as ``induce`` trains them, so the kernel times the
    parameter scoring and subset choice alone.
    """
    rng = np.random.default_rng(seed)
    pools = [[vsa.normalize(rng.normal(size=DIMENSION)) for _ in range(4)] for _ in pc.PROPERTIES]
    objects = [
        pc.ObjectRepr(None, *(pool[rng.integers(len(pool))] for pool in pools)) for _ in range(demos * per_demo)
    ]
    demo_of = np.repeat(np.arange(demos), per_demo)
    labels = np.arange(len(objects)) % per_demo == 0
    pairs = {"amount": [(int(i), Amount(1.0, 0.0)) for i in np.flatnonzero(labels)]}
    dims = {d: (10, 10) for d in range(demos)}
    obs = ind._RuleObservations(OperationKind.MOVE, objects, demo_of, labels, pairs, dims, ind._Bundles(objects))
    subsets = [s for k in range(1, 4) for s in combinations(pc.PROPERTIES, k)]
    folds = obs.folds()
    (conditions,) = ind.train_operation_predictor([(obs, subsets, folds)])
    return obs, subsets, folds, ind.make_codec(ENC, PALETTE), conditions


def test_cross_validation(benchmark):
    inputs = cross_validation_inputs()
    assert (len(inputs[1]), len(inputs[2])) == (7, 5)
    benchmark(ind.cross_validate, *inputs)
