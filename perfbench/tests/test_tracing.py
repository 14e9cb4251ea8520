from itertools import islice

import pytest

import bench
import tracing
from hologrid import SspEncoder, VsaConfig, build_palette
from workloads import WORKLOADS


def _originals():
    return [owner.__dict__[attr] for owner, attr, _, _ in tracing.PATCH_POINTS]


def test_traced_restores_originals():
    before = _originals()
    with tracing.traced(tracing.Tracer()):
        assert all(a is not b for a, b in zip(before, _originals()))
    assert all(a is b for a, b in zip(before, _originals()))


def test_traced_restores_originals_after_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, _originals()))


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("abduction.abduce", 0.0, 10.0, None, "t"),
        tracing.Span("perception.perceive", 1.0, 4.0, 0, "t"),
        tracing.Span("ssp.encode_many", 1.5, 2.5, 1, "t"),
        tracing.Span("abduction.hitting_set", 5.0, 6.0, 0, "t"),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["self"]["abduction.abduce"] == pytest.approx(6.0)
    assert totals["module_busy"]["abduction"] == pytest.approx(10.0)  # nested span not re-counted
    assert totals["module_self"]["abduction"] == pytest.approx(7.0)
    assert totals["module_busy"]["perception"] == pytest.approx(3.0)
    assert totals["module_self"]["perception"] == pytest.approx(2.0)


def _traced_run(tasks, encoder, palette):
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        outcomes = []
        for task in tasks:
            tracer.task = task.id
            outcomes.append(bench.solve_one(task, encoder, palette))
    return tracer, outcomes


def test_counts_repeat_and_verdicts_match_untraced():
    config = VsaConfig(dimension=256, seed=0)
    encoder, palette = SspEncoder(config), build_palette(config)
    tasks = list(islice(WORKLOADS["arc30-uniform"](1), 1)) + list(islice(WORKLOADS["sort-of-arc"](1), 1))
    untraced = [bench.solve_one(t, encoder, palette) for t in tasks]
    first, first_outcomes = _traced_run(tasks, encoder, palette)
    second, second_outcomes = _traced_run(tasks, encoder, palette)

    assert [o.verdict() for o in first_outcomes] == [o.verdict() for o in untraced]
    assert [o.verdict() for o in second_outcomes] == [o.verdict() for o in untraced]
    calls = tracing.layer_totals(first.spans)["calls"]
    assert calls == tracing.layer_totals(second.spans)["calls"]
    assert first.counts == second.counts
    assert first.signatures == second.signatures
    assert calls["deduction.solve_task"] == len(tasks)
    assert {s.task for s in first.spans} == {t.id for t in tasks}
    assert first.counts["perception.objects_encoded"] > 0


def test_scale_multiplies_each_task_spans():
    spans = [
        tracing.Span("abduction.abduce", 0.0, 10.0, None, "a"),
        tracing.Span("perception.perceive", 1.0, 4.0, 0, "a"),
        tracing.Span("abduction.abduce", 20.0, 22.0, None, "b"),
    ]
    totals = tracing.layer_totals(spans, {"a": 0.5})
    assert totals["busy"]["abduction.abduce"] == pytest.approx(5.0 + 2.0)
    assert totals["self"]["abduction.abduce"] == pytest.approx(3.5 + 2.0)
    assert totals["module_busy"]["perception"] == pytest.approx(1.5)
