"""Tests for program execution over query grids."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from hologrid import abduction as ab
from hologrid import deduction as de
from hologrid import induction as ind
from hologrid import perception as pc
from hologrid import ssp, vsa
from hologrid.abduction import SizeHypothesis
from hologrid.dsl import Centre, Colour, OperationKind as Op
from hologrid.induction import OperationPredictor, Program, Rule

CFG = vsa.VsaConfig(dimension=512, seed=33)
ENC = ssp.SspEncoder(CFG)
PALETTE = pc.build_palette(CFG)
CODEC = ind.make_codec(ENC, PALETTE)
HYP = pc.ObjectHypothesis.EIGHT_CONNECTED


@dataclass
class Task:
    train: list
    test: list


def make_task(demos, queries):
    # solve_task reads the ARC record shape: test pairs carry a None target.
    return Task(train=demos, test=[(q, None) for q in queries])


def grid(rows):
    return pc.as_grid(rows)


def identity_program():
    return Program((Rule(Op.IDENTITY, OperationPredictor(subset=("colour",)), {}),))


def test_vacuous_identity_program_copies_query():
    q = grid([[0, 2, 0], [3, 3, 0], [0, 0, 9]])
    pred = de.solve_query(identity_program(), HYP, SizeHypothesis("identity"), q, ENC, PALETTE)
    assert pred.solved
    assert np.array_equal(pred.grid, q)


def test_zero_object_query_renders_empty_canvas():
    q = grid([[0, 0], [0, 0], [0, 0]])
    pred = de.solve_query(identity_program(), HYP, SizeHypothesis("identity"), q, ENC, PALETTE)
    assert pred.grid.shape == (3, 2) and not pred.grid.any()
    pred = de.solve_query(
        identity_program(), HYP, SizeHypothesis("constant", (2, 5)), q, ENC, PALETTE
    )
    assert pred.grid.shape == (2, 5) and not pred.grid.any()


def test_probability_exactly_half_fires():
    q = grid([[4, 4, 0], [0, 0, 0], [0, 0, 0]])
    obj = pc.perceive(q, HYP, ENC, PALETTE).objects[0]
    x = ind.subset_vector(obj, ("colour",))
    # similarity(weights, x) == 1 and threshold == 1 puts the output at 0.5.
    condition = OperationPredictor(subset=("colour",), weights=x, threshold=1.0)
    assert condition.probability(obj) == pytest.approx(0.5)
    program = Program(
        (Rule(Op.RECOLOUR, condition, {"colour": ind.ConstantParameter(Colour(8))}),)
    )
    pred = de.solve_query(program, HYP, SizeHypothesis("identity"), q, ENC, PALETTE)
    assert np.array_equal(pred.grid, grid([[8, 8, 0], [0, 0, 0], [0, 0, 0]]))
    assert any("fired p=0.500" in line for line in pred.trace)


def test_function_size_without_extract_crops_to_content():
    q = grid([[0, 0, 0, 0], [0, 0, 6, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    pred = de.solve_query(identity_program(), HYP, SizeHypothesis("function"), q, ENC, PALETTE)
    assert pred.grid.shape == (1, 1)
    assert pred.grid[0, 0] == 6


def test_function_size_with_no_firings_keeps_query_dims():
    q = grid([[0, 0], [0, 0]])
    pred = de.solve_query(identity_program(), HYP, SizeHypothesis("function"), q, ENC, PALETTE)
    assert pred.grid.shape == (2, 2) and not pred.grid.any()


def test_solve_task_conditional_move():
    task = make_task(
        demos=[
            (
                [[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 7, 0], [0, 0, 0, 0]],
                [[0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 7, 0], [0, 0, 0, 0]],
            ),
            (
                [[0, 0, 0, 0], [7, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]],
                [[0, 0, 0, 0], [7, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0]],
            ),
        ],
        queries=[[[0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 7], [0, 0, 0, 0]]],
    )
    predictions, diag = de.solve_task(task, ENC, PALETTE)
    assert diag.ok
    assert diag.demo_replays == [True, True]
    assert any(a.kind is Op.MOVE for a in diag.action_set)
    assert predictions[0].solved
    assert np.array_equal(
        predictions[0].grid,
        grid([[0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 7], [0, 0, 0, 0]]),
    )


def test_replay_reuses_the_scenes_abduction_perceived(monkeypatch):
    demos = [
        ([[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 7, 0]], [[0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 7, 0]]),
        ([[0, 0, 0, 0], [7, 0, 0, 0], [0, 0, 2, 0]], [[0, 0, 0, 0], [7, 0, 0, 0], [0, 0, 0, 2]]),
        ([[0, 7, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0]], [[0, 7, 0, 0], [0, 0, 0, 0], [0, 2, 0, 0]]),
    ]
    queries = [[[0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 7]], [[0, 0, 2, 0], [0, 0, 0, 0], [7, 0, 0, 0]]]
    perceived = []

    def counting(perceive):
        def wrapper(*args, **kwargs):
            perceived.append(args[0])
            return perceive(*args, **kwargs)

        return wrapper

    # Both names through which the pipeline perceives a grid.
    monkeypatch.setattr(ab, "perceive", counting(ab.perceive))
    monkeypatch.setattr(pc, "perceive", counting(pc.perceive))
    by_abduction = []
    abduce = de.abduce

    def counted_abduce(*args, **kwargs):
        result = abduce(*args, **kwargs)
        by_abduction.append(len(perceived))
        return result

    monkeypatch.setattr(de, "abduce", counted_abduce)
    predictions, diag = de.solve_task(make_task(demos, queries), ENC, PALETTE)
    assert diag.ok and diag.demo_replays == [True, True, True]
    assert all(p.solved for p in predictions)
    # After abduction, each query is perceived once and no demo input again.
    (before,) = by_abduction
    assert [pc.as_grid(q).tolist() for q in queries] == [g.tolist() for g in perceived[before:]]


def test_task_diagnostics_carry_the_hitting_set_optimality(monkeypatch):
    demos = [
        ([[2, 0, 0], [0, 0, 0]], [[0, 2, 0], [0, 0, 0]]),
        ([[0, 0, 0], [2, 0, 0]], [[0, 0, 0], [0, 2, 0]]),
    ]
    task = make_task(demos, queries=[[[0, 2, 0], [0, 0, 0]]])
    _, diag = de.solve_task(task, ENC, PALETTE)
    assert diag.ok and diag.optimal
    abduce = de.abduce
    monkeypatch.setattr(de, "abduce", lambda *args: abduce(*args, node_budget=1))
    _, cut = de.solve_task(task, ENC, PALETTE)
    assert cut.ok and not cut.optimal
    assert cut.trace == diag.trace


def test_solve_task_constant_size_generation():
    task = make_task(
        demos=[
            ([[0] * 5, [0, 1, 0, 0, 0], [0] * 5, [0] * 5, [0] * 5], [[3, 3]]),
            ([[0] * 5, [0] * 5, [0] * 5, [0, 0, 0, 2, 0], [0] * 5], [[3, 3]]),
        ],
        queries=[[[0] * 5, [0] * 5, [0, 0, 4, 0, 0], [0] * 5, [0] * 5]],
    )
    predictions, diag = de.solve_task(task, ENC, PALETTE)
    assert diag.ok and diag.size.kind == "constant" and diag.size.dims == (1, 2)
    assert diag.demo_replays == [True, True]
    assert np.array_equal(predictions[0].grid, grid([[3, 3]]))


def test_solve_task_extracts_the_marked_object():
    task = make_task(
        demos=[
            (
                [
                    [5, 5, 0, 0, 0],
                    [5, 5, 0, 8, 0],
                    [0, 0, 0, 8, 0],
                    [0, 0, 0, 8, 8],
                    [0, 0, 0, 0, 0],
                ],
                [[5, 5], [5, 5]],
            ),
            (
                [
                    [0, 0, 8, 8, 0],
                    [0, 0, 8, 0, 0],
                    [0, 0, 8, 0, 0],
                    [0, 5, 5, 0, 0],
                    [0, 0, 0, 0, 0],
                ],
                [[5, 5]],
            ),
        ],
        queries=[
            [
                [0, 0, 0, 8, 8],
                [0, 0, 0, 0, 8],
                [0, 0, 0, 0, 8],
                [0, 0, 5, 5, 0],
                [0, 0, 5, 5, 0],
            ]
        ],
    )
    predictions, diag = de.solve_task(task, ENC, PALETTE)
    assert diag.ok and diag.size.kind == "function"
    assert any(a.kind is Op.EXTRACT for a in diag.action_set)
    assert diag.demo_replays == [True, True]
    assert np.array_equal(predictions[0].grid, grid([[5, 5], [5, 5]]))


def test_solve_task_failure_yields_markers_not_exceptions():
    task = make_task(
        demos=[([[7, 7]], [[5, 5]]), ([[7, 7]], [[6, 6]])],
        queries=[[[7, 7]], [[7, 0]]],
    )
    predictions, diag = de.solve_task(task, ENC, PALETTE)
    assert not diag.ok and diag.reason
    assert len(predictions) == 2
    assert all(not p.solved for p in predictions)
    assert all(p.trace and p.trace[0].startswith("unsolved:") for p in predictions)


def test_rule_failures_are_traced_and_skipped():
    q = grid([[0, 0, 0], [0, 9, 0], [0, 0, 0]])
    obj = pc.perceive(q, HYP, ENC, PALETTE).objects[0]
    # A recentre parameter pointing far outside the 3x3 canvas cannot apply.
    program = Program(
        (
            Rule(
                Op.RECENTRE,
                OperationPredictor(subset=("colour",)),
                {"centre": ind.ConstantParameter(Centre(9.0, 9.0))},
            ),
        )
    )
    pred = de.solve_query(program, HYP, SizeHypothesis("identity"), q, ENC, PALETTE)
    assert pred.grid.shape == (3, 3) and not pred.grid.any()
    assert any("failed" in line for line in pred.trace)
