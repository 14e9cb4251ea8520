import pytest

import bench
import speed


def test_probe_is_positive_and_scales_to_reference():
    probe = speed.probe_seconds()
    assert probe > 0
    assert 2.0 * speed.factor(probe) == pytest.approx(speed.factor(probe / 2.0))
    assert speed.factor(speed.REFERENCE_S) == pytest.approx(1.0)


def test_outcome_time_is_scaled_by_its_probe():
    outcome = bench.Outcome("t", seconds=3.0, probe_s=2.0 * speed.REFERENCE_S)
    assert outcome.scaled_seconds == pytest.approx(1.5)
    times = bench.end_to_end([outcome], [{"scaled": 0.25}])
    assert times["s_per_task"] == (pytest.approx(1.5), "s")
    assert times["setup_s"] == (0.25, "s")
