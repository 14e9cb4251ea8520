"""Spans around the solver's public functions, recorded from outside.

``traced(tracer)`` replaces each public function at the name through
which the pipeline looks it up (``deduction.abduce``, ``abduction.perceive``
and so on) with a wrapper that records one span per call, and restores
the originals on exit. Spans stay in memory as (name, start, end, parent,
task id) tuples until the run writes them out. Counters are taken at the
same boundaries, from each call's arguments and result, outside the
timed interval of the span.
"""
from __future__ import annotations

import gzip
import json
import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple, Optional

from hologrid import abduction, deduction, dsl, induction, perception
from hologrid.ssp import SspEncoder


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None for a root
    task: Optional[str]


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.signatures: set = set()
        self.task: Optional[str] = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.task)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write_jsonl(self, path) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


# ------------------------------------------------------------ observers


def _observe_abduce(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["abduction.hypotheses_rejected"] += sum(
        "status=rejected" in line for line in result.trace
    )


def _observe_perceive(tracer: Tracer, args, kwargs, scene) -> None:
    tracer.counts["perception.objects_encoded"] += len(scene.objects)
    tracer.signatures.update(obj.signature() for obj in scene.objects)


def _observe_encode_many(tracer: Tracer, args, kwargs, vectors) -> None:
    tracer.counts["ssp.points_encoded"] += len(vectors)


def _observe_hitting_set(tracer: Tracer, args, kwargs, result) -> None:
    partial_sets = args[0] if args else kwargs["partial_sets"]
    tracer.counts["abduction.candidate_actions"] += sum(len(s) for s in partial_sets)
    tracer.counts["abduction.hitting_set_nonoptimal"] += not result[2]


_RULE_OUTCOME = re.compile(r"^object=\d+ rule=\S+ (fired|abstained|failed)")


def _observe_solve_query(tracer: Tracer, args, kwargs, prediction) -> None:
    for line in prediction.trace:
        match = _RULE_OUTCOME.match(line)
        if match:
            tracer.counts[f"deduction.rules_{match.group(1)}"] += 1


# (owner, attribute, span name, observer). The owner is the namespace the
# caller looks the name up in, which is not always the defining module.
PATCH_POINTS = (
    (deduction, "solve_task", "deduction.solve_task", None),
    (deduction, "abduce", "abduction.abduce", _observe_abduce),
    (abduction, "rank_object_hypotheses", "abduction.rank", None),
    (abduction, "perceive", "perception.perceive", _observe_perceive),
    (perception, "perceive", "perception.perceive", _observe_perceive),
    (SspEncoder, "encode_many", "ssp.encode_many", _observe_encode_many),
    (dsl, "infer_actions", "dsl.infer_actions", None),
    (abduction, "minimum_hitting_set", "abduction.hitting_set", _observe_hitting_set),
    (deduction, "induce", "induction.induce", None),
    (induction, "cross_validate", "induction.cross_validate", None),
    (induction, "train_operation_predictor", "induction.train_operation_predictor", None),
    (induction, "train_parameter_predictor", "induction.train_parameter_predictor", None),
    (deduction, "training_fit", "induction.training_fit", None),
    (deduction, "solve_query", "deduction.solve_query", _observe_solve_query),
)


@contextmanager
def traced(tracer: Tracer):
    """Route every patch point through ``tracer``; always restore on exit."""
    originals = []
    try:
        for owner, attr, name, observe in PATCH_POINTS:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ------------------------------------------------------------ aggregation

# Span names whose busy time, and those whose call count, are reported.
# Cross-validation never runs on arc30-uniform, so it reports its call
# count only: a time that is zero by design on every run carries no
# measurement. On sort-of-arc it is nearly all of ``induction.induce``,
# and the run record keeps every span's busy time.
TIMED = (
    "induction.induce",
    "induction.train_operation_predictor",
    "induction.train_parameter_predictor",
    "induction.training_fit",
    "perception.perceive",
    "ssp.encode_many",
    "abduction.abduce",
    "abduction.rank",
    "abduction.hitting_set",
    "dsl.infer_actions",
    "deduction.solve_query",
)
CALLED = (
    "induction.cross_validate",
    "induction.train_operation_predictor",
    "induction.train_parameter_predictor",
    "perception.perceive",
    "ssp.encode_many",
    "abduction.hitting_set",
    "dsl.infer_actions",
    "deduction.solve_query",
)

MODULES = ("perception", "ssp", "abduction", "dsl", "induction", "deduction")

COUNTERS = (
    "perception.objects_encoded",
    "ssp.points_encoded",
    "abduction.candidate_actions",
    "abduction.hypotheses_rejected",
    "abduction.hitting_set_nonoptimal",
    "deduction.rules_fired",
    "deduction.rules_abstained",
    "deduction.rules_failed",
)


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_totals(spans, scale: Optional[dict] = None) -> dict:
    """Totals over all spans, keyed by span name and by module.

    ``scale`` maps a task id to the factor its spans' durations are
    multiplied by (the host speed correction of ``speed.py``); tasks
    not in it keep their wall durations.

    ``calls[name]`` and ``busy[name]`` count every span of that name;
    ``self_time[name]`` subtracts the time covered by direct children.
    A module's busy time sums only its outermost spans, so a module
    calling itself is not counted twice; its self time is the sum of
    its spans' self times.
    """
    scale = scale or {}

    def duration_of(span: Span) -> float:
        return (span.end - span.start) * scale.get(span.task, 1.0)

    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += duration_of(span)
    calls: Counter = Counter()
    busy = defaultdict(float)
    self_time = defaultdict(float)
    module_busy = defaultdict(float)
    module_self = defaultdict(float)
    for index, span in enumerate(spans):
        duration = duration_of(span)
        own = duration - child_time[index]
        module = _module(span.name)
        calls[span.name] += 1
        busy[span.name] += duration
        self_time[span.name] += own
        module_self[module] += own
        ancestor = span.parent
        while ancestor is not None and _module(spans[ancestor].name) != module:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            module_busy[module] += duration
    return {
        "calls": calls,
        "busy": busy,
        "self": self_time,
        "module_busy": module_busy,
        "module_self": module_self,
    }


def layer_metrics(tracer: Tracer, totals: dict, tasks: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per task, as {name: (value, unit)}; ``totals`` from ``layer_totals``."""
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        out[f"{name}_s"] = (totals["busy"][name] / tasks, "s/task")
    for name in CALLED:
        out[f"{name}_calls"] = (totals["calls"][name] / tasks, "1/task")
    for module in MODULES:
        out[f"{module}.busy_s"] = (totals["module_busy"][module] / tasks, "s/task")
        out[f"{module}.self_s"] = (totals["module_self"][module] / tasks, "s/task")
    for key in COUNTERS:
        out[key] = (tracer.counts[key] / tasks, "1/task")
    encoded = tracer.counts["perception.objects_encoded"]
    ratio = len(tracer.signatures) / encoded if encoded else 0.0
    out["perception.distinct_object_ratio"] = (ratio, "ratio")
    return out
