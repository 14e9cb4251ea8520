"""Acceptance gate: one test per criterion, thresholds pinned.

Criteria 5 and 6 need public datasets that are not bundled; point
ONED_ARC_DIR and ARC_AGI1_TRAIN_DIR at local copies to unlock them.
Everything else runs self-contained.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from hologrid import abduction as ab
from hologrid import harness as hn
from hologrid import induction as ind
from hologrid import ssp, vsa

from oracles import circulant_direct, conv_direct, hitting_sets_brute_force, linear_loss_direct, logistic_loss_direct

FULL_DIMENSION = 4096
ONED_ARC_DIR = os.environ.get("ONED_ARC_DIR")
ARC_AGI1_TRAIN_DIR = os.environ.get("ARC_AGI1_TRAIN_DIR")


def report_line(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {criterion} ({name}): {verdict}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def benchmark_report():
    """Shared 200-task benchmark evaluation (criteria 4 and 7)."""
    tasks = hn.generate_sort_of_arc(200, seed=0)
    return hn.evaluate(tasks, hn.EvalConfig(dimension=FULL_DIMENSION, seed=0, workers=1))


def test_criterion_1_vector_algebra():
    config = vsa.VsaConfig(dimension=FULL_DIMENSION, seed=0)

    sims = []
    for i in range(100):
        a = vsa.random_symbol(config, f"accept-a-{i}")
        b = vsa.random_symbol(config, f"accept-b-{i}")
        recovered = vsa.unbind(vsa.bind(a, b), a)
        sims.append(vsa.similarity(vsa.normalize(recovered), vsa.normalize(b)))
    unbind_ok = min(sims) >= 0.99

    rng = np.random.default_rng(10)
    fft_err = 0.0
    for n in (4, 8, 16):
        for _ in range(20):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            fft_err = max(fft_err, float(np.max(np.abs(vsa.bind(a, b) - conv_direct(a, b)))))
    fft_ok = fft_err <= 1e-9

    encoder = ssp.SspEncoder(config)
    hom_err = 0.0
    for _ in range(100):
        p = rng.uniform(-10, 10, size=2)
        q = rng.uniform(-10, 10, size=2)
        lhs = vsa.bind(encoder.encode(tuple(p)), encoder.encode(tuple(q)))
        rhs = encoder.encode(tuple(p + q))
        hom_err = max(hom_err, float(np.max(np.abs(lhs - rhs))))
    hom_ok = hom_err < 1e-8

    report_line(
        1,
        "vector algebra",
        unbind_ok and fft_ok and hom_ok,
        f"min unbind sim {min(sims):.6f}, fft err {fft_err:.2e}, homomorphism err {hom_err:.2e}",
    )


def central_difference(fn, x, h):
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        keep = xf[i]
        xf[i] = keep + h
        hi = fn()
        xf[i] = keep - h
        lo = fn()
        xf[i] = keep
        flat[i] = (hi - lo) / (2 * h)
    return grad


def condition_step_error(monkeypatch, rows, train, labels, learning_rate):
    """How far one ``_train_conditions`` step lands from the descent step on the oracle loss.

    The weights are taken in R^N (coefficients @ rows). The expected step
    moves (w, k, b) by -learning_rate times the central difference of the
    mean binary cross-entropy over the training rows and renormalizes w;
    the distance is relative to that step's length.
    """
    fits = []
    for epochs in (0, 1):
        monkeypatch.setattr(ind, "MAX_EPOCHS", epochs)
        runs = (ind._starts(rows, train[None], labels[None]), train[None], labels[None])
        fit = ind._train_conditions(ind._operator(rows)[None], np.zeros(1, dtype=np.int64), *runs)
        fits.append(np.concatenate([fit.weights[0] @ rows, fit.steepness, fit.threshold]))
    before, after = fits
    xs, ys = rows[train], labels[train].astype(np.float64)
    wkb = before.copy()
    step = learning_rate * central_difference(lambda: logistic_loss_direct(wkb[:-2], wkb[-2], wkb[-1], xs, ys), wkb, 1e-6)
    want = before - step
    want[:-2] /= np.linalg.norm(want[:-2])
    return float(np.linalg.norm(after - want) / np.linalg.norm(step))


def linear_step_error(monkeypatch, inputs, targets, learning_rate):
    """How far one ``_train_linear_factors`` step lands from the descent step on the oracle loss.

    The factored map is taken densely (circulant(base) + correction^T X)
    and the expected step is -learning_rate times the central difference
    of the mean squared residual; the distance is relative to its length.
    """
    maps = []
    for epochs in (0, 1):
        monkeypatch.setattr(ind, "MAX_EPOCHS", epochs)
        base, correction = ind._train_linear_factors(inputs, targets)
        maps.append(circulant_direct(base) + correction.T @ inputs)
    before, after = maps
    weights = before.copy()
    step = learning_rate * central_difference(lambda: linear_loss_direct(weights, inputs, targets), weights, 1e-6)
    return float(np.linalg.norm(after - (before - step)) / np.linalg.norm(step))


def condition_case(rng, n):
    """Unit rows with labels of both kinds; each row held out with chance 1/4, but one of each label trains."""
    m = int(rng.integers(4, 9))
    rows = rng.standard_normal((m, n))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    labels = rng.permutation(m) < rng.integers(1, m)
    train = rng.random(m) < 0.75
    train[np.argmax(labels)] = train[np.argmin(labels)] = True
    return rows, train, labels


def linear_case(rng, n):
    m = int(rng.integers(2, 6))
    return rng.standard_normal((m, n)), rng.standard_normal((m, n))


def test_criterion_2_gradient_checks(monkeypatch):
    rng = np.random.default_rng(20)
    worst_condition = max(condition_step_error(monkeypatch, *condition_case(rng, 48), ind.LEARNING_RATE) for _ in range(10))
    worst_linear = max(linear_step_error(monkeypatch, *linear_case(rng, 12), ind.LEARNING_RATE) for _ in range(10))
    report_line(
        2,
        "trainer step checks",
        worst_condition < 1e-4 and worst_linear < 1e-4,
        f"condition step rel err {worst_condition:.2e}, linear step rel err {worst_linear:.2e}",
    )


def test_criterion_2_rejects_a_step_at_twice_the_learning_rate(monkeypatch):
    rng = np.random.default_rng(21)
    rate = ind.LEARNING_RATE
    monkeypatch.setattr(ind, "LEARNING_RATE", 2 * rate)
    assert condition_step_error(monkeypatch, *condition_case(rng, 48), rate) > 1e-4
    assert linear_step_error(monkeypatch, *linear_case(rng, 12), rate) > 1e-4


@dataclass(frozen=True, order=True)
class Tok:
    kind: str
    tag: int

    def sort_key(self):
        return (self.kind, self.tag)


def test_criterion_3_hitting_set_optimality():
    rng = np.random.default_rng(30)
    kinds = ["alpha", "beta", "gamma", "delta"]

    def cost_fn(subset):
        return ab.OP_COST * len({t.kind for t in subset}) + ab.PARAM_COST * len(subset)

    checked = 0
    for trial in range(200):
        universe = [Tok(kinds[int(rng.integers(len(kinds)))], i) for i in range(int(rng.integers(1, 13)))]
        partial_sets = []
        for _ in range(int(rng.integers(1, 7))):
            size = int(rng.integers(1, len(universe) + 1))
            chosen = rng.choice(len(universe), size=size, replace=False)
            partial_sets.append(frozenset(universe[i] for i in chosen))
        best, cost, optimal = ab.minimum_hitting_set(partial_sets)
        oracle_cost, oracle_sets = hitting_sets_brute_force(partial_sets, cost_fn)
        assert optimal, f"trial {trial} exhausted its node budget"
        assert cost == oracle_cost, f"trial {trial}: got {cost}, oracle {oracle_cost}"
        assert cost_fn(best) == cost
        assert all(best & s for s in partial_sets)
        checked += 1
    report_line(3, "hitting-set optimality", checked == 200, f"{checked} instances matched the exhaustive oracle")


def test_criterion_4_synthetic_benchmark(benchmark_report):
    colour = benchmark_report.metrics("colour").query_task_accuracy
    shape = benchmark_report.metrics("shape").query_task_accuracy
    overall = benchmark_report.metrics().query_task_accuracy
    ok = colour >= 95.0 and shape >= 80.0 and overall >= 87.0
    report_line(
        4,
        "seeded 200-task benchmark",
        ok,
        f"query task accuracy: colour {colour:.1f}% (>=95), shape {shape:.1f}% (>=80), overall {overall:.1f}% (>=87)",
    )


ONE_D_CATEGORIES = {
    "move by one": ("move_1",),
    "move by two": ("move_2",),
    "move by three": ("move_3",),
    "fill": ("fill",),
    "hollow": ("hollow",),
    "denoise": ("denois",),
    "pattern copy": ("pcopy_1", "pcopy"),
    "pattern copy multicolour": ("pcopy_mc",),
    "recolour by size": ("recolor_cnt", "recolor_size", "recolour_cnt"),
}


@pytest.mark.skipif(
    not ONED_ARC_DIR,
    reason="public 1D-ARC dataset not bundled; set ONED_ARC_DIR to its task directory",
)
def test_criterion_5_one_dimensional_corpus():
    records = hn.load_arc_directory(ONED_ARC_DIR)
    report = hn.evaluate(records, hn.EvalConfig(dimension=FULL_DIMENSION, seed=0, workers=1))
    available = report.subsplits()

    def find_split(patterns):
        exact = [s for s in available for p in patterns if p in s.lower()]
        return exact[0] if exact else None

    details = []
    per_type_ok = True
    for label, patterns in ONE_D_CATEGORIES.items():
        split = find_split(patterns)
        if split is None:
            per_type_ok = False
            details.append(f"{label}: no matching directory among {available}")
            continue
        acc = report.metrics(split).query_task_accuracy or 0.0
        details.append(f"{label} {acc:.1f}%")
        if acc < 90.0:
            per_type_ok = False
    overall = report.metrics().query_task_accuracy or 0.0
    ok = per_type_ok and overall >= 75.0
    report_line(5, "1D corpus", ok, f"overall {overall:.1f}% (>=75); " + ", ".join(details))


@pytest.mark.skipif(
    not ARC_AGI1_TRAIN_DIR,
    reason="public ARC-AGI-1 training split not bundled; set ARC_AGI1_TRAIN_DIR to its task directory",
)
def test_criterion_6_arc_training_split():
    records = hn.load_arc_directory(ARC_AGI1_TRAIN_DIR)
    report = hn.evaluate(records, hn.EvalConfig(dimension=FULL_DIMENSION, seed=0, workers=1))
    m = report.metrics()
    ok = m.demo_accuracy >= 45.0 and m.query_task_accuracy >= 8.0
    report_line(
        6,
        "ARC training split",
        ok,
        f"demo accuracy {m.demo_accuracy:.1f}% (>=45), query task accuracy {m.query_task_accuracy:.1f}% (>=8)",
    )


def test_criterion_7_replay_soundness(benchmark_report):
    fitted = [v for v in benchmark_report.verdicts if v.fit]
    unsound = [v.task_id for v in fitted if not all(v.demo_flags)]
    ok = bool(fitted) and not unsound
    report_line(
        7,
        "demonstration replay soundness",
        ok,
        f"{len(fitted)} fully-fit tasks, {len(unsound)} with imperfect replay",
    )


def test_criterion_8_byte_identical_reports():
    tasks = hn.generate_sort_of_arc(12, seed=1)
    config = hn.EvalConfig(dimension=FULL_DIMENSION, seed=0, workers=1)
    first = hn.render_markdown(hn.evaluate(tasks, config))
    second = hn.render_markdown(hn.evaluate(tasks, config))
    ok = first.encode() == second.encode()
    report_line(8, "deterministic reports", ok, f"{len(first.encode())} bytes each")
