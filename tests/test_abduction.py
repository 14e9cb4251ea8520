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
    padded_max_softmax_direct,
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
    (score,) = ab.padded_max_softmax([[1.0]])
    assert score == pytest.approx(expected, abs=1e-12)
    assert score == pytest.approx(float(np.max(softmax_direct([1.0, 0.0, 1.0]))), abs=1e-12)


def test_padded_max_softmax_dilutes_with_more_objects():
    assert ab.padded_max_softmax([[1.0, 0.0]])[0] < ab.padded_max_softmax([[1.0]])[0]
    assert ab.padded_max_softmax(np.zeros((1, 0)))[0] == pytest.approx(
        float(np.max(softmax_direct([0.0, 1.0]))), abs=1e-12
    )


def test_padded_max_softmax_scores_each_row_as_the_per_row_formula_bitwise():
    rng = np.random.default_rng(12)
    for _ in range(200):
        rows, cols = (int(v) for v in rng.integers(0, 70, size=2))
        sims = rng.uniform(-0.3, 1.0, size=(rows + 1, cols))
        sims[rng.random(sims.shape) < 0.1] = 1.0  # exact ties with the anchor
        got = ab.padded_max_softmax(sims)
        assert got.shape == (rows + 1,)
        assert got.tolist() == [padded_max_softmax_direct(row) for row in sims]


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
    combined = ab.similarity_matrices([out], ins, ENC, PALETTE).sum(axis=0) / 3.0
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
            sims = ab.similarity_matrices(outs, ins, ENC, PALETTE)
            assert sims.shape == (3, len(outs), len(ins))
            assert np.max(np.abs(sims - similarity_matrices_direct(outs, ins))) < 1e-12


def corner_objects(dims):
    """One-cell objects at a grid's four corners and its centre cell, and one spanning the grid."""
    rows, cols = dims
    cells = {(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1), (rows // 2, cols // 2)}
    masks = [pc.ObjectMask(1 + i, frozenset({cell}), dims) for i, cell in enumerate(sorted(cells))]
    masks.append(pc.ObjectMask(9, frozenset({(0, 0), (rows - 1, cols - 1)}), dims))
    return [pc.encode_object(m, ENC, PALETTE) for m in masks]


def test_centre_similarities_equal_centre_dots_between_grids_of_any_dims():
    sides = range(1, 31)
    dims = [(s, s) for s in sides] + [(s, 31 - s) for s in sides]  # odd and even, square and not
    objects = {d: corner_objects(d) for d in dims}
    worst = 0.0
    for out_dims in dims:
        outs = objects[out_dims]
        for in_dims in dims[::3] + [out_dims]:
            ins = objects[in_dims]
            sims = ab.similarity_matrices(outs, ins, ENC, PALETTE)
            dots = np.array([o.centre_vec for o in outs]) @ np.array([i.centre_vec for i in ins]).T
            worst = max(worst, float(np.max(np.abs(sims[1] - dots))))
            assert np.max(np.abs(sims - similarity_matrices_direct(outs, ins))) < 1e-14
    assert worst < 1e-14


def fresh_objects(grid, hyp):
    """Every object encoded on its own, sharing no vector with another."""
    return [pc.encode_object(m, ENC, PALETTE) for m in pc.segment(grid, hyp)]


def similarities(outs, ins):
    return ab.similarity_matrices(outs, ins, ENC, PALETTE)


def rank_direct(demos):
    return rank_hypotheses_direct(
        demos, list(pc.ObjectHypothesis), fresh_objects, similarities, padded_max_softmax_direct
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
        assert [(r.hypothesis, r.score) for r in ranked] == rank_direct(demos)
    assert all(r.score == float("-inf") for r in ab.rank_object_hypotheses([(dot, blank)], ENC, PALETTE))


def test_ranked_scene_pairs_equal_fresh_perception_bitwise():
    rng = np.random.default_rng(9)
    cases = [task.train for task in hn.generate_sort_of_arc(4, seed=11)]
    cases += [arc30_demos(rng, objects=10) for _ in range(2)]
    compared = 0
    for demos in cases:
        for ranked in ab.rank_object_hypotheses(demos, ENC, PALETTE):
            assert len(ranked.pairs) == len(demos)
            for (in_grid, out_grid), pair in zip(demos, ranked.pairs):
                ins = pc.perceive(in_grid, ranked.hypothesis, ENC, PALETTE).objects
                outs = pc.perceive(out_grid, ranked.hypothesis, ENC, PALETTE).objects
                for kept, fresh in ((pair.inputs, ins), (pair.outputs, outs)):
                    assert [o.mask for o in kept.objects] == [o.mask for o in fresh]
                    for a, b in zip(kept.objects, fresh):
                        for name in pc.PROPERTIES:
                            assert np.array_equal(a.vector(name), b.vector(name))
                if not (ins and outs):
                    assert pair.sims is None
                    continue
                sims = ab.similarity_matrices(outs, ins, ENC, PALETTE)
                assert np.array_equal(pair.sims, sims)
                assert np.max(np.abs(sims - similarity_matrices_direct(outs, ins))) < 1e-14
                scores = [padded_max_softmax_direct(row) for row in sims.sum(axis=0) / 3.0]
                assert ab.padded_max_softmax(pair.sims.sum(axis=0) / 3.0).tolist() == scores
                compared += len(outs)
    assert compared > 1000


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


def test_abduce_perceives_every_demo_grid_through_one_memo_per_call(monkeypatch):
    task = hn.generate_sort_of_arc(1, seed=5)[0]
    calls = recorded_perceive_calls(monkeypatch)
    first = ab.abduce(task.train, ENC, PALETTE)
    assert first.ok
    memos = [args[4] for args in calls]
    # The ranking perceives every demo grid under every hypothesis, and
    # the explanation perceives nothing again.
    assert len(memos) == 2 * len(task.train) * len(pc.ObjectHypothesis)
    assert all(memo is memos[0] for memo in memos)
    # The calls still hold the first memo, so a new one cannot reuse its id.
    calls.clear()
    ab.abduce(task.train, ENC, PALETTE)
    assert all(args[4] is calls[0][4] for args in calls) and calls[0][4] is not memos[0]
    # A whole task adds each query, perceived without the memo.
    calls.clear()
    _, diagnostics = deduction.solve_task(task, ENC, PALETTE)
    assert diagnostics.ok
    assert len(calls) == len(pc.ObjectHypothesis) * 2 * len(task.train) + len(task.test) == 61


def test_a_rejected_hypothesis_hands_the_memo_to_the_next(monkeypatch):
    task = hn.generate_sort_of_arc(1, seed=5)[0]
    calls = recorded_perceive_calls(monkeypatch)
    rankings, explained = [], []
    rank, explain = ab.rank_object_hypotheses, ab._explain_under_hypothesis

    def ranking_with(demos, encoder, palette):
        rankings.append(rank(demos, encoder, palette))
        return rankings[-1]

    def reject_the_first(pairs, hyp, size):
        explained.append((hyp, pairs, len(calls)))
        if len(explained) == 1:
            return "rejected by the test"
        return explain(pairs, hyp, size)

    monkeypatch.setattr(ab, "rank_object_hypotheses", ranking_with)
    monkeypatch.setattr(ab, "_explain_under_hypothesis", reject_the_first)
    result = ab.abduce(task.train, ENC, PALETTE)
    (ranking,) = rankings
    assert result.ok and result.hypothesis is ranking[1].hypothesis
    # Each explanation reads its hypothesis's pairs from the one ranking,
    # and neither perceives a grid: all 60 perceptions are the ranking's.
    assert [hyp for hyp, _, _ in explained] == [r.hypothesis for r in ranking[:2]]
    assert all(pairs is r.pairs for (_, pairs, _), r in zip(explained, ranking))
    assert [count for *_, count in explained] == [60, 60] and len(calls) == 60
    assert all(a is p.inputs for a, p in zip(result.input_scenes, ranking[1].pairs))
    assert all(a is p.outputs for a, p in zip(result.output_scenes, ranking[1].pairs))
    # The accepted vectors are the ranking memo's.
    (memo,) = {id(args[4]): args[4] for args in calls}.values()
    for scene in result.input_scenes + result.output_scenes:
        for o in scene.objects:
            assert o.centre_vec is memo[o.mask.centre_point()]
            assert o.shape_vec is memo[o.mask.offsets()]


def test_abduce_scene_vectors_equal_fresh_encodings_bitwise():
    rng = np.random.default_rng(21)
    cases = [task.train for task in hn.generate_sort_of_arc(4, seed=7)]
    cases += [arc30_demos(rng) for _ in range(2)]
    objects = 0
    for demos in cases:
        result = ab.abduce(demos, ENC, PALETTE)
        assert result.ok
        for scene in result.input_scenes + result.output_scenes:
            for o in scene.objects:
                fresh = pc.encode_object(o.mask, ENC, PALETTE)
                for name in pc.PROPERTIES:
                    assert np.array_equal(o.vector(name), fresh.vector(name)), name
                objects += 1
    assert objects > 100


def obj(rows):
    objects = scene(rows).objects
    assert len(objects) == 1
    return objects[0]


def candidates(inp, out):
    """Candidate operations from the pair's entries of the similarity matrices."""
    return ab.candidate_operations(*ab.similarity_matrices([out], [inp], ENC, PALETTE)[:, 0, 0])


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
    # Only the accepted line changes: it says the search was cut.
    assert cut.trace[:-1] == full.trace[:-1]
    assert cut.trace[-1] == full.trace[-1] + " optimal=false"
    assert "optimal=false" not in " ".join(full.trace)
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
