"""Microbenchmarks of the encoding and condition-training kernels.

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

from hologrid import induction as ind
from hologrid import perception as pc
from hologrid import vsa
from hologrid.ssp import SspEncoder

DIMENSION = 1024
ENC = SspEncoder(vsa.VsaConfig(dimension=DIMENSION, seed=0))

CENTRE = (1.5, -2.0)
STENCIL = np.array([(CENTRE[0] + dx, CENTRE[1] + dy) for dx, dy in pc._BLUR_OFFSETS])
SHAPE = np.array([(0.0, 1.0), (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, -1.0)])  # a plus sign's cells
BUNDLES = {
    "centre": (STENCIL, pc._blur_weights(pc.BLUR_SIGMA)),
    "shape": (SHAPE, np.ones(len(SHAPE))),
}


@pytest.mark.parametrize("name", BUNDLES)
def test_ssp_bundle_summed_in_the_spectrum(benchmark, name):
    points, weights = BUNDLES[name]
    benchmark(ENC.encode_bundle, points, weights)


@pytest.mark.parametrize("name", BUNDLES)
def test_ssp_bundle_summed_point_by_point(benchmark, name):
    points, weights = BUNDLES[name]
    benchmark(lambda: vsa.normalize(weights @ ENC.encode_many(points)))


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
    basis = ind._SpanBasis(objects)
    demo_of = np.repeat(np.arange(demos), per_demo)
    subsets = [s for k in range(1, 4) for s in combinations(pc.PROPERTIES, k)]
    coords, train, labels = [], [], []
    for _ in range(kinds):
        wanted = rng.random(len(objects)) < 0.5
        wanted[::per_demo], wanted[1::per_demo] = True, False  # both labels in every demo
        for subset in subsets:
            span = basis.span(subset)
            for held_out in (None, 0, 1):
                coords.append(span.coords)
                train.append(demo_of != held_out)
                labels.append(wanted)
    return np.stack(coords), np.stack(train), np.stack(labels)


def test_condition_batch(benchmark):
    coords, train, labels = condition_batch()
    assert coords.shape == (42, 15, 15)
    benchmark(ind._train_span_conditions, coords, train, labels)
