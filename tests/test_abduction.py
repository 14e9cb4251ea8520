"""Tests for demo explanation: heuristics, hitting set, and the full stage."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from hologrid import abduction as ab
from hologrid import deduction
from hologrid import harness as hn
from hologrid import perception as pc
from hologrid import ssp, vsa
from hologrid.dsl import Action, Amount, Colour, OperationKind as Op

from oracles import (
    hitting_sets_brute_force,
    minimum_hitting_set_direct,
    rank_hypotheses_direct,
    similarity_matrices_direct,
    softmax_direct,
)

CFG = vsa.VsaConfig(dimension=512, seed=33)
ENC = ssp.SspEncoder(CFG)
PALETTE = pc.build_palette(CFG)


def scene(rows, hyp=pc.ObjectHypothesis.EIGHT_CONNECTED):
    return pc.perceive(pc.as_grid(rows), hyp, ENC, PALETTE)


def demo(inp, out):
    return (pc.as_grid(inp), pc.as_grid(out))


# ---------------------------------------------------------------- size


def test_choose_size_hypothesis():
    same = ab.choose_size_hypothesis([demo([[1]], [[2]]), demo([[1, 1]], [[2, 2]])])
    assert same.kind == "identity"
    const = ab.choose_size_hypothesis([demo([[1]], [[2, 2]]), demo([[1, 1, 1]], [[3, 3]])])
    assert const.kind == "constant" and const.dims == (1, 2)
    func = ab.choose_size_hypothesis([demo([[1]], [[2, 2]]), demo([[1]], [[2]])])
    assert func.kind == "function" and func.dims is None


# ---------------------------------------------------------------- heuristics


def test_padded_max_softmax_golden_value():
    # softmax over [1, 0, 1] peaks at e / (2e + 1)
    expected = np.e / (2 * np.e + 1)
    assert ab.padded_max_softmax([1.0]) == pytest.approx(expected, abs=1e-12)
    assert ab.padded_max_softmax([1.0]) == pytest.approx(
        float(np.max(softmax_direct([1.0, 0.0, 1.0]))), abs=1e-12
    )


def test_padded_max_softmax_dilutes_with_more_objects():
    assert ab.padded_max_softmax([1.0, 0.0]) < ab.padded_max_softmax([1.0])
    assert ab.padded_max_softmax([]) == pytest.approx(
        float(np.max(softmax_direct([0.0, 1.0]))), abs=1e-12
    )


def test_correspondence_prefers_recoloured_copy_over_unrelated():
    ins = scene(
        [
            [3, 3, 0, 0, 0],
            [3, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 5, 5],
            [0, 0, 0, 5, 5],
        ]
    ).objects
    out = scene(
        [
            [5, 5, 0, 0, 0],
            [5, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ]
    ).objects[0]
    # Same place and shape but new colour beats same colour elsewhere.
    combined = ab.similarity_matrices([out], ins).sum(axis=0) / 3.0
    assert int(np.argmax(combined[0])) == 0


def random_objects(rng, hyp):
    """Objects of a seeded random grid; at least one pixel is coloured."""
    rows, cols = (int(v) for v in rng.integers(2, 8, size=2))
    cells = np.where(rng.random((rows, cols)) < 0.4, rng.integers(1, 10, size=(rows, cols)), 0)
    cells[rng.integers(rows), rng.integers(cols)] = rng.integers(1, 10)
    return scene(cells, hyp).objects


def test_similarity_matrices_match_pairwise_dot_oracle():
    rng = np.random.default_rng(5)
    for hyp in pc.ObjectHypothesis:
        for _ in range(3):
            outs, ins = random_objects(rng, hyp), random_objects(rng, hyp)
            sims = ab.similarity_matrices(outs, ins)
            assert sims.shape == (3, len(outs), len(ins))
            assert np.max(np.abs(sims - similarity_matrices_direct(outs, ins))) < 1e-12


def fresh_objects(grid, hyp):
    """Every object encoded on its own, sharing no vector with another."""
    return [pc.encode_object(m, ENC, PALETTE) for m in pc.segment(grid, hyp)]


def rank_direct(demos):
    return rank_hypotheses_direct(
        demos, list(pc.ObjectHypothesis), fresh_objects, ab.similarity_matrices, ab.padded_max_softmax
    )


def arc30_demos(rng, count=3, objects=6):
    """30x30 grids of small random objects, all moved by one shared step."""
    step = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
    demos = []
    for _ in range(count):
        inp = np.zeros((30, 30), dtype=np.int64)
        for _ in range(objects):
            r, c = (int(v) for v in rng.integers(1, 26, size=2))
            patch = rng.random((3, 3)) < 0.6
            patch[1, 1] = True
            inp[r : r + 3, c : c + 3][patch] = int(rng.integers(1, 10))
        demos.append((inp, np.roll(inp, step, axis=(0, 1))))
    return demos


def test_rank_matches_the_hypothesis_outer_oracle_exactly():
    rng = np.random.default_rng(8)
    cases = [task.train for task in hn.generate_sort_of_arc(4, seed=3)]
    cases += [arc30_demos(rng) for _ in range(3)]
    blank = np.zeros((4, 4), dtype=np.int64)
    dot = blank.copy()
    dot[1, 2] = 6
    cases.append([(dot, blank)])  # no output objects anywhere: every score is -inf
    cases.append([(blank, dot), (dot, dot)])  # an output with no input objects
    cases.append([(dot, blank)] + arc30_demos(rng, count=1))  # one demo with an empty output
    for demos in cases:
        ranked = ab.rank_object_hypotheses(demos, ENC, PALETTE)
        assert ranked == rank_direct(demos)
    assert all(score == float("-inf") for _, score in ab.rank_object_hypotheses([(dot, blank)], ENC, PALETTE))


def recorded_perceive_calls(monkeypatch):
    """The positional arguments of every perceive call, as they are made."""
    calls = []

    def recording(perceive):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return perceive(*args, **kwargs)

        return wrapper

    # perfbench times and counts perception through both module-level names.
    monkeypatch.setattr(ab, "perceive", recording(ab.perceive))
    monkeypatch.setattr(pc, "perceive", recording(pc.perceive))
    return calls


def assert_one_cache_per_pair(calls, demos, hypotheses):
    """Each demo's two grids are perceived under ``hypotheses`` through one
    dict of their own, which no other demo sees."""
    caches = []
    for in_grid, out_grid in demos:
        mine = [args for args in calls if args[0] is in_grid or args[0] is out_grid]
        for grid in (in_grid, out_grid):
            assert [args[1] for args in mine if args[0] is grid] == hypotheses
        assert len({id(args[4]) for args in mine}) == 1
        caches.append(mine[0][4])
    assert len({id(c) for c in caches}) == len(demos)
    assert len(calls) == 2 * len(demos) * len(hypotheses)


def test_rank_perceives_each_demo_pair_under_each_hypothesis_with_one_cache_per_pair(monkeypatch):
    task = hn.generate_sort_of_arc(1, seed=5)[0]
    calls = recorded_perceive_calls(monkeypatch)
    ab.rank_object_hypotheses(task.train, ENC, PALETTE)
    assert_one_cache_per_pair(calls, task.train, list(pc.ObjectHypothesis))
    # A whole task adds the chosen hypothesis's demo grids and each query.
    calls.clear()
    _, diagnostics = deduction.solve_task(task, ENC, PALETTE)
    assert diagnostics.ok
    assert len(calls) == (len(pc.ObjectHypothesis) + 1) * 2 * len(task.train) + len(task.test) == 71


def test_explanation_perceives_each_demo_pair_with_one_cache_per_pair(monkeypatch):
    task = hn.generate_sort_of_arc(1, seed=5)[0]
    size = ab.choose_size_hypothesis(task.train)
    calls = recorded_perceive_calls(monkeypatch)
    hyp = pc.ObjectHypothesis.FOUR_CONNECTED
    explained = ab._explain_under_hypothesis(task.train, hyp, size, ENC, PALETTE)
    assert not isinstance(explained, str)
    assert_one_cache_per_pair(calls, task.train, [hyp])
    # A pair's output repeats its input's unmoved objects: their vectors are shared.
    for in_scene, out_scene in zip(explained.input_scenes, explained.output_scenes):
        ins = {o.mask.centre_point(): o.centre_vec for o in in_scene.objects}
        assert any(ins.get(o.mask.centre_point()) is o.centre_vec for o in out_scene.objects)


def obj(rows):
    objects = scene(rows).objects
    assert len(objects) == 1
    return objects[0]


def candidates(inp, out):
    """Candidate operations from the pair's entries of the similarity matrices."""
    return ab.candidate_operations(*ab.similarity_matrices([out], [inp])[:, 0, 0])


def test_candidate_operations_identity():
    a = obj([[0, 4], [4, 4]])
    assert candidates(a, a) == {Op.IDENTITY}


def test_candidate_operations_colour_change():
    a = obj([[0, 4], [4, 4]])
    b = obj([[0, 2], [2, 2]])
    assert candidates(a, b) == {Op.RECOLOUR, Op.GENERATE}


def test_candidate_operations_centre_change():
    a = obj([[7, 0, 0, 0], [0, 0, 0, 0]])
    b = obj([[0, 0, 0, 7], [0, 0, 0, 0]])
    assert candidates(a, b) == {Op.RECENTRE, Op.MOVE, Op.GRAVITY, Op.GENERATE}


def test_candidate_operations_shape_change():
    a = obj(
        [
            [0, 6, 0],
            [6, 6, 6],
            [0, 6, 0],
        ]
    )
    b = obj(
        [
            [6, 6, 6],
            [6, 6, 6],
            [6, 6, 6],
        ]
    )
    assert candidates(a, b) == {Op.RESHAPE, Op.GROW, Op.FILL, Op.HOLLOW, Op.GENERATE}


def test_candidate_operations_multiple_changes_leave_generate():
    a = obj([[9, 0, 0, 0], [0, 0, 0, 0]])
    b = obj([[0, 0, 0, 0], [0, 0, 1, 1]])
    assert candidates(a, b) == {Op.GENERATE}


# ---------------------------------------------------------------- hitting set


@dataclass(frozen=True, order=True)
class Tok:
    kind: str
    tag: str

    def sort_key(self) -> str:
        return f"{self.kind}:{self.tag}"


def cost_fn(actions, op_cost=10, param_cost=1):
    return op_cost * len({a.kind for a in actions}) + param_cost * len(actions)


def test_hitting_set_trivial_cases():
    assert ab.minimum_hitting_set([]) == (frozenset(), 0, True)
    a = Tok("m", "1")
    actions, cost, optimal = ab.minimum_hitting_set([{a}])
    assert actions == {a} and cost == 11 and optimal


def test_hitting_set_prefers_shared_action():
    shared = Tok("move", "right1")
    sets = [{shared, Tok("recentre", f"p{i}")} for i in range(4)]
    actions, cost, _ = ab.minimum_hitting_set(sets)
    assert actions == {shared}
    assert cost == 11


def test_hitting_set_prefers_one_kind_with_few_params():
    # Four recurring retarget params versus eight one-off moves: one kind
    # with four parameterizations (cost 14) beats one kind with eight
    # (cost 18) and any mix (two kinds, cost >= 22).
    corners = [Tok("recentre", f"corner{i}") for i in range(4)]
    sets = []
    for demo_idx in range(2):
        for i, corner in enumerate(corners):
            sets.append({corner, Tok("move", f"amt{demo_idx}{i}")})
    actions, cost, _ = ab.minimum_hitting_set(sets)
    assert actions == set(corners)
    assert cost == 14


def test_hitting_set_breaks_cost_ties_lexicographically():
    a, b = Tok("fill", "a"), Tok("fill", "b")
    actions, cost, _ = ab.minimum_hitting_set([{a, b}])
    assert actions == {a} and cost == 11


def test_hitting_set_rejects_empty_candidate_sets():
    with pytest.raises(ValueError):
        ab.minimum_hitting_set([set()])


def test_hitting_set_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(71)
    kinds = ["alpha", "beta", "gamma"]
    for _ in range(40):
        universe = [
            Tok(kinds[int(rng.integers(0, 3))], f"t{i}") for i in range(int(rng.integers(2, 10)))
        ]
        sets = []
        for _ in range(int(rng.integers(1, 7))):
            size = int(rng.integers(1, min(4, len(universe)) + 1))
            idxs = rng.choice(len(universe), size=size, replace=False)
            sets.append({universe[i] for i in idxs})
        actions, cost, optimal = ab.minimum_hitting_set(sets)
        assert optimal
        best_cost, best_sets = hitting_sets_brute_force(sets, cost_fn)
        assert cost == best_cost
        assert all(actions & s for s in sets)
        assert cost_fn(actions) == best_cost


def random_hitting_instance(rng, max_actions=15, max_sets=11):
    kinds = [f"k{i}" for i in range(int(rng.integers(1, 5)))]
    universe = [
        Tok(kinds[int(rng.integers(0, len(kinds)))], f"t{i}") for i in range(int(rng.integers(1, max_actions + 1)))
    ]
    sets = []
    for _ in range(int(rng.integers(0, max_sets + 1))):
        size = int(rng.integers(1, min(5, len(universe)) + 1))
        sets.append({universe[i] for i in rng.choice(len(universe), size=size, replace=False)})
    return sets


@pytest.mark.parametrize("budget", [200_000, 50, 7, 1])
def test_hitting_set_matches_the_direct_search_under_every_budget(monkeypatch, budget):
    monkeypatch.setattr(ab, "NODE_BUDGET", budget)
    rng = np.random.default_rng(budget)
    cut = 0
    for _ in range(1500):
        sets = random_hitting_instance(rng)
        got = ab.minimum_hitting_set(sets)
        assert got == minimum_hitting_set_direct(sets, ab.OP_COST, ab.PARAM_COST, budget)
        cut += not got[2]
    assert (cut == 0) if budget == 200_000 else (cut > 0)


def test_hitting_set_breaks_ties_among_several_optima_as_the_direct_search():
    # Every action gets a twin of the same kind in exactly the same sets, so
    # each optimum has at least one equal-cost counterpart; the answer must
    # be the smallest encoding among all of them.
    rng = np.random.default_rng(5)
    for _ in range(60):
        sets = random_hitting_instance(rng, max_actions=6, max_sets=6)
        sets = [s | {Tok(a.kind, a.tag + "~") for a in s} for s in sets]
        actions, cost, optimal = ab.minimum_hitting_set(sets)
        reference = minimum_hitting_set_direct(sets, ab.OP_COST, ab.PARAM_COST, ab.NODE_BUDGET)
        assert (actions, cost, optimal) == reference
        if sets:
            best_cost, optima = hitting_sets_brute_force(sets, cost_fn)
            assert optimal and cost == best_cost and len(optima) > 1
            assert actions == min(optima, key=lambda o: sorted(a.sort_key() for a in o))


# ---------------------------------------------------------------- abduce


def test_abduce_recolour_task():
    demos = [
        demo(
            [[0, 3, 0], [3, 3, 0], [0, 0, 0]],
            [[0, 5, 0], [5, 5, 0], [0, 0, 0]],
        ),
        demo(
            [[0, 0, 0], [0, 3, 3], [0, 0, 3]],
            [[0, 0, 0], [0, 5, 5], [0, 0, 5]],
        ),
    ]
    result = ab.abduce(demos, ENC, PALETTE)
    assert result.ok
    assert result.action_set == (Action.make(Op.RECOLOUR, colour=Colour(5)),)
    assert result.cost == 11
    assert all(a.action.kind is Op.RECOLOUR for a in result.assignments)
    assert len(result.assignments) == 2


def test_abduce_shared_move_beats_one_off_retargets():
    demos = [
        demo(
            [[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        ),
        demo(
            [[0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]],
        ),
    ]
    result = ab.abduce(demos, ENC, PALETTE)
    assert result.ok
    assert result.action_set == (Action.make(Op.MOVE, amount=Amount(0.0, -1.0)),)
    assert result.cost == 11


def test_abduce_reports_when_the_node_budget_cut_the_search(monkeypatch):
    demos = [
        demo(
            [[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        ),
        demo(
            [[0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]],
        ),
    ]
    full = ab.abduce(demos, ENC, PALETTE)
    monkeypatch.setattr(ab, "NODE_BUDGET", 1)
    cut = ab.abduce(demos, ENC, PALETTE)
    assert full.ok and full.optimal
    assert cut.ok and not cut.optimal
    assert cut.trace == full.trace
    # The report fingerprint reads the budget the search ran under.
    assert ("node budget", "1") in hn._fingerprint(hn.EvalConfig())


def test_abduce_rejects_contradictory_demos():
    demos = [
        demo([[7, 7]], [[5, 5]]),
        demo([[7, 7]], [[6, 6]]),
    ]
    result = ab.abduce(demos, ENC, PALETTE)
    assert not result.ok
    assert result.reason == "every segmentation hypothesis was rejected"
    assert any("conflicting parameters" in line for line in result.trace)


def test_abduce_rejects_pure_memorization():
    demos = [
        demo(
            [[1, 0, 0, 0, 0]] + [[0] * 5] * 4,
            [[0] * 5, [0] * 5, [0, 0, 4, 4, 0], [0, 0, 4, 4, 0], [0] * 5],
        ),
        demo(
            [[0, 0, 0, 0, 2]] + [[0] * 5] * 4,
            [[0] * 5, [0, 6, 0, 0, 0], [0, 6, 6, 0, 0], [0] * 5, [0] * 5],
        ),
    ]
    result = ab.abduce(demos, ENC, PALETTE)
    assert not result.ok
    assert any("one-off generate" in line for line in result.trace)


def test_abduce_trace_reports_each_hypothesis_once():
    demos = [demo([[1]], [[2]])]
    result = ab.abduce(demos, ENC, PALETTE)
    assert result.ok
    # Accepted on the first (top-ranked) hypothesis: exactly one trace line.
    assert len(result.trace) == 1
    assert result.trace[0].endswith("status=accepted")
    assert result.hypothesis is not None
