"""Each microbenchmark kernel runs once on its own inputs, without pytest-benchmark.

``microbench/test_kernels.py`` sits outside the test paths. This test loads
it and calls every benchmark with a stand-in for the ``benchmark`` fixture
that runs the kernel once, so a kernel whose signature changes fails here
and not only in the microbenchmark run.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "microbench" / "test_kernels.py"


def load_kernels():
    spec = importlib.util.spec_from_file_location("microbench_kernels", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


KERNELS = load_kernels()
BUNDLE_BENCHMARKS = ("test_ssp_bundle_summed_in_the_spectrum", "test_ssp_bundle_summed_point_by_point")


class Once:
    """Calls the kernel once and keeps its result, as ``benchmark(fn, *args)`` would return it."""

    def __call__(self, fn, *args, **kwargs):
        self.result = fn(*args, **kwargs)
        return self.result


def test_every_benchmark_is_smoke_tested():
    benchmarks = {name for name in vars(KERNELS) if name.startswith("test_")}
    assert benchmarks == {
        *BUNDLE_BENCHMARKS,
        "test_ssp_bundle_from_the_lattice_tables",
        "test_similarity_matrices",
        "test_condition_batch",
        "test_train_operation_predictor",
        "test_cross_validation",
    }


@pytest.mark.parametrize("name", sorted(KERNELS.BUNDLES))
@pytest.mark.parametrize("kernel", BUNDLE_BENCHMARKS)
def test_bundle_kernel_runs_once(kernel, name):
    once = Once()
    getattr(KERNELS, kernel)(once, name)
    assert once.result.shape == (KERNELS.DIMENSION,)


@pytest.mark.parametrize("name", sorted(KERNELS.TABLE_SHAPES))
def test_lattice_bundle_kernel_runs_once(name):
    once = Once()
    KERNELS.test_ssp_bundle_from_the_lattice_tables(once, name)
    assert once.result.shape == (KERNELS.DIMENSION,)


def test_similarity_matrices_kernel_runs_once():
    once = Once()
    KERNELS.test_similarity_matrices(once)
    assert once.result.shape == (3, 40, 40)


def test_condition_batch_kernel_runs_once():
    once = Once()
    KERNELS.test_condition_batch(once)
    fit = once.result
    assert fit.weights.shape == fit.scores.shape == (42, 15)
    assert fit.steepness.shape == fit.threshold.shape == fit.refused.shape == (42,)


def test_train_operation_predictor_kernel_runs_once():
    once = Once()
    KERNELS.test_train_operation_predictor(once)
    assert len(once.result) == 2
    for conditions in once.result:
        assert conditions.accuracy.shape == (7, 2)
        assert len(conditions.full) == 7


def test_cross_validation_kernel_runs_once():
    once = Once()
    KERNELS.test_cross_validation(once)
    assert once.result in KERNELS.cross_validation_inputs()[1]
