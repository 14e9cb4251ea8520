from itertools import islice

import numpy as np
import pytest

from workloads import WORKLOADS


def _grids(task):
    return [g for pair in task.train + task.test for g in pair]


def _same(a, b):
    return a.id == b.id and all(np.array_equal(x, y) for x, y in zip(_grids(a), _grids(b)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_tasks(name):
    first = list(islice(WORKLOADS[name](7), 4))
    second = list(islice(WORKLOADS[name](7), 4))
    assert all(_same(a, b) for a, b in zip(first, second))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_gives_other_tasks(name):
    first = next(WORKLOADS[name](7))
    other = next(WORKLOADS[name](8))
    assert not all(np.array_equal(x, y) for x, y in zip(_grids(first), _grids(other)))


def test_sort_of_arc_interleaves_both_halves():
    subsplits = [t.subsplit for t in islice(WORKLOADS["sort-of-arc"](3), 4)]
    assert subsplits == ["colour", "shape", "colour", "shape"]


def test_arc30_uniform_shape():
    task = next(WORKLOADS["arc30-uniform"](3))
    assert len(task.train) == 5 and len(task.test) == 1
    for grid_in, grid_out in task.train + task.test:
        assert grid_in.shape == grid_out.shape == (30, 30)
        # One shared shift moves every painted cell.
        assert np.count_nonzero(grid_in) == np.count_nonzero(grid_out)


def test_noise6_shape_and_density():
    tasks = list(islice(WORKLOADS["noise6"](3), 20))
    grids = [g for t in tasks for g in _grids(t)]
    assert all(g.shape == (6, 6) for g in grids)
    assert all(len(t.train) == 3 and len(t.test) == 1 for t in tasks)
    assert 0.4 < np.mean([np.count_nonzero(g) / 36 for g in grids]) < 0.6
