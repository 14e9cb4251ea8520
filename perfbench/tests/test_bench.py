import numpy as np
import pytest

import bench
from hologrid import deduction
from hologrid.deduction import Prediction
from hologrid.harness import TaskRecord


def test_tail_leaves_ten_tasks_beyond():
    times = [float(i) for i in range(25)]
    value, percentile = bench.tail(times)
    assert sum(t > value for t in times) == bench.TAIL_BEYOND
    assert percentile == pytest.approx(60.0)
    assert bench.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def _task():
    grid = np.zeros((3, 3), dtype=np.int64)
    return TaskRecord("t", [(grid, grid)], [(grid, grid)])


@pytest.mark.parametrize(
    "predictions",
    [
        [],  # no answer for the one query
        [Prediction(0, np.full((2, 2), 12))],  # not a colour
        [Prediction(0, np.zeros(4, dtype=np.int64))],  # not a 2-D grid
    ],
)
def test_malformed_answer_fails_the_task(monkeypatch, predictions):
    monkeypatch.setattr(deduction, "solve_task", lambda task, encoder, palette: (predictions, None))
    outcome = bench.solve_one(_task(), None, None)
    assert outcome.error.startswith("malformed answer")
    assert bench.scores([outcome])["error_frac"] == 1.0
