"""Hand-derived fixtures for the grid-edit operations and action inference."""
from __future__ import annotations

import json

import numpy as np
import pytest

from hologrid import dsl, perception as pc
from hologrid.dsl import Action, Amount, Centre, Colour, Direction, OperationKind as Op, SceneContext, Shape


def mask(grid_rows, colour=None):
    g = pc.as_grid(grid_rows)
    objs = pc.segment(g, pc.ObjectHypothesis.COLOUR)
    assert len(objs) == 1
    return objs[0]


def ctx_for(mask_, occupied=frozenset(), dims=None):
    return SceneContext(dims=dims or mask_.dims, occupied=frozenset(occupied))


# ---------------------------------------------------------------- actions


def test_action_make_validates_slots():
    with pytest.raises(ValueError):
        Action.make(Op.RECOLOUR)
    with pytest.raises(ValueError):
        Action.make(Op.IDENTITY, colour=Colour(3))
    with pytest.raises(ValueError):
        Action.make(Op.MOVE, amount=Amount(1, 0), colour=Colour(2))
    a = Action.make(Op.RECOLOUR, colour=Colour(4))
    assert a.param("colour") == Colour(4)


def test_actions_are_hashable_and_comparable():
    a1 = Action.make(Op.MOVE, amount=Amount(1.0, 0.0))
    a2 = Action.make(Op.MOVE, amount=Amount(1.0, 0.0))
    a3 = Action.make(Op.MOVE, amount=Amount(0.0, 1.0))
    assert a1 == a2 and hash(a1) == hash(a2) and a1 != a3
    assert len({a1, a2, a3}) == 2


def test_colour_param_validates_range():
    with pytest.raises(ValueError):
        Colour(0)
    with pytest.raises(ValueError):
        Colour(10)


# ---------------------------------------------------------------- apply


def test_identity_and_recolour():
    m = mask([[0, 5], [0, 5]])
    same = dsl.apply_action(m, Action.make(Op.IDENTITY), ctx_for(m))
    assert same == m
    red = dsl.apply_action(m, Action.make(Op.RECOLOUR, colour=Colour(2)), ctx_for(m))
    assert red.cells == m.cells and red.colour == 2


def test_identity_out_of_target_bounds_raises():
    m = mask([[0, 0, 5], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(dsl.OutOfBoundsError):
        dsl.apply_action(m, Action.make(Op.IDENTITY), SceneContext(dims=(2, 2), occupied=frozenset()))


def test_recentre_translates_to_target_centre():
    m = mask(
        [
            [7, 0, 0],
            [7, 7, 0],
            [0, 0, 0],
        ]
    )
    # bbox mid (0.5, 0.5) -> centre (-0.5, 0.5); retarget to (0.5, -0.5).
    out = dsl.apply_action(m, Action.make(Op.RECENTRE, centre=Centre(0.5, -0.5)), ctx_for(m))
    assert out.cells == frozenset({(1, 1), (2, 1), (2, 2)})


def test_recentre_rejects_parity_mismatch():
    m = mask([[3, 3, 0]])  # 1x2 domino, centre x is half-integer in a 1x3 grid
    with pytest.raises(dsl.ActionError):
        dsl.apply_action(m, Action.make(Op.RECENTRE, centre=Centre(0.0, 0.0)), ctx_for(m))


def test_move_shifts_by_amount():
    m = mask(
        [
            [4, 0, 0],
            [4, 4, 0],
            [0, 0, 0],
        ]
    )
    out = dsl.apply_action(m, Action.make(Op.MOVE, amount=Amount(1.0, -1.0)), ctx_for(m))
    assert out.cells == frozenset({(1, 1), (2, 1), (2, 2)})


def test_move_out_of_bounds_raises():
    m = mask([[6]])
    with pytest.raises(dsl.OutOfBoundsError):
        dsl.apply_action(m, Action.make(Op.MOVE, amount=Amount(1.0, 0.0)), ctx_for(m))


def test_move_across_frames_with_half_integer_amount():
    # 9x9 source, 4x4 target: a corner piece lands exactly on cells even
    # though the amount is half-integer, because the frames differ in parity.
    g = np.zeros((9, 9), dtype=int)
    for r, c in [(1, 1), (1, 2), (2, 1)]:
        g[r, c] = 2
    m = pc.segment(pc.as_grid(g), pc.ObjectHypothesis.COLOUR)[0]
    assert m.centre_point() == (-2.5, 2.5)
    target = SceneContext(dims=(4, 4), occupied=frozenset())
    out = dsl.apply_action(m, Action.make(Op.MOVE, amount=Amount(3.5, -1.5)), target)
    assert out.dims == (4, 4)
    assert out.cells == frozenset({(0, 2), (0, 3), (1, 2)})
    # The equivalent retarget names the landing centre directly.
    via_recentre = dsl.apply_action(m, Action.make(Op.RECENTRE, centre=Centre(1.0, 1.0)), target)
    assert via_recentre == out


def test_gravity_falls_until_contact():
    m = mask(
        [
            [0, 9, 0],
            [0, 9, 0],
            [0, 0, 0],
            [0, 0, 0],
            [0, 0, 0],
        ]
    )
    floor = dsl.apply_action(m, Action.make(Op.GRAVITY, direction=Direction.DOWN), ctx_for(m))
    assert floor.cells == frozenset({(3, 1), (4, 1)})
    blocked = dsl.apply_action(
        m,
        Action.make(Op.GRAVITY, direction=Direction.DOWN),
        ctx_for(m, occupied={(4, 1)}),
    )
    assert blocked.cells == frozenset({(2, 1), (3, 1)})


def test_gravity_noop_when_already_touching():
    m = mask([[0, 0], [8, 0]])
    out = dsl.apply_action(m, Action.make(Op.GRAVITY, direction=Direction.DOWN), ctx_for(m))
    assert out == m


def test_grow_extends_leading_edge_to_boundary():
    g = [
        [0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    m = mask(g)
    out = dsl.apply_action(m, Action.make(Op.GROW, direction=Direction.RIGHT), ctx_for(m))
    assert out.cells == frozenset((r, c) for r in (1, 2, 3) for c in (1, 2, 3, 4))


def test_grow_stops_before_occupied_cells():
    g = [
        [0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    m = mask(g)
    out = dsl.apply_action(
        m,
        Action.make(Op.GROW, direction=Direction.RIGHT),
        ctx_for(m, occupied={(2, 3)}),
    )
    assert out.cells == frozenset((r, c) for r in (1, 2, 3) for c in (1, 2))


def test_fill_closes_interior_hole():
    ring = [
        [0, 0, 0, 0, 0],
        [0, 5, 5, 5, 0],
        [0, 5, 0, 5, 0],
        [0, 5, 5, 5, 0],
        [0, 0, 0, 0, 0],
    ]
    m = mask(ring)
    out = dsl.apply_action(m, Action.make(Op.FILL), ctx_for(m))
    assert out.cells == frozenset((r, c) for r in (1, 2, 3) for c in (1, 2, 3))


def test_fill_leaves_open_shapes_alone():
    u = [
        [0, 0, 0, 0, 0],
        [0, 5, 0, 5, 0],
        [0, 5, 0, 5, 0],
        [0, 5, 5, 5, 0],
        [0, 0, 0, 0, 0],
    ]
    m = mask(u)
    out = dsl.apply_action(m, Action.make(Op.FILL), ctx_for(m))
    assert out == m


def test_fill_spans_gap_in_one_row_grid():
    m = mask([[7, 0, 0, 7]])
    out = dsl.apply_action(m, Action.make(Op.FILL), ctx_for(m))
    assert out.cells == frozenset({(0, 0), (0, 1), (0, 2), (0, 3)})


def test_hollow_keeps_boundary_ring():
    solid = [
        [0, 0, 0, 0, 0],
        [0, 6, 6, 6, 0],
        [0, 6, 6, 6, 0],
        [0, 6, 6, 6, 0],
        [0, 0, 0, 0, 0],
    ]
    m = mask(solid)
    out = dsl.apply_action(m, Action.make(Op.HOLLOW), ctx_for(m))
    assert out.cells == m.cells - {(2, 2)}


def test_hollow_bar_keeps_endpoints():
    m = mask([[0, 4, 4, 4, 4, 4, 0]])
    out = dsl.apply_action(m, Action.make(Op.HOLLOW), ctx_for(m))
    assert out.cells == frozenset({(0, 1), (0, 5)})


def test_hollow_of_full_canvas_mask_is_a_noop():
    # Every cell counts as interior when the object covers the whole grid;
    # the executor refuses to erase the object entirely.
    m = mask([[4, 4, 4]])
    out = dsl.apply_action(m, Action.make(Op.HOLLOW), ctx_for(m))
    assert out == m


def test_hollow_never_empties_mask():
    m = mask([[2]])
    out = dsl.apply_action(m, Action.make(Op.HOLLOW), ctx_for(m))
    assert out == m


def test_fill_hollow_fill_is_fill():
    rng = np.random.default_rng(9)
    fill = Action.make(Op.FILL)
    hollow = Action.make(Op.HOLLOW)
    for _ in range(20):
        g = np.zeros((9, 9), dtype=int)
        blob = {(4, 4)}
        for _ in range(12):
            seeds = sorted(blob)
            r, c = seeds[rng.integers(0, len(seeds))]
            nr = int(np.clip(r + rng.integers(-1, 2), 1, 7))
            nc = int(np.clip(c + rng.integers(-1, 2), 1, 7))
            blob.add((nr, nc))
        for r, c in blob:
            g[r, c] = 3
        m = pc.segment(pc.as_grid(g), pc.ObjectHypothesis.COLOUR)[0]
        c0 = ctx_for(m)
        filled = dsl.apply_action(m, fill, c0)
        again = dsl.apply_action(dsl.apply_action(filled, hollow, c0), fill, c0)
        assert again == filled


def test_reshape_keeps_centre():
    m = mask(
        [
            [0, 0, 0],
            [0, 9, 0],
            [0, 0, 0],
        ]
    )
    plus = Shape(frozenset({(0.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)}))
    out = dsl.apply_action(m, Action.make(Op.RESHAPE, shape=plus), ctx_for(m))
    assert out.cells == frozenset({(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)})
    assert out.colour == 9


def test_generate_builds_object_from_params():
    m = mask([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    act = Action.make(
        Op.GENERATE,
        colour=Colour(4),
        centre=Centre(1.0, -1.0),
        shape=Shape(frozenset({(0.0, 0.0)})),
    )
    out = dsl.apply_action(m, act, ctx_for(m))
    assert out.colour == 4 and out.cells == frozenset({(2, 2)})


def test_generate_rejects_out_of_bounds_and_bad_parity():
    m = mask([[1]])
    dot = Shape(frozenset({(0.0, 0.0)}))
    with pytest.raises(dsl.OutOfBoundsError):
        dsl.apply_action(m, Action.make(Op.GENERATE, colour=Colour(1), centre=Centre(3.0, 0.0), shape=dot), ctx_for(m))
    with pytest.raises(dsl.ActionError):
        dsl.apply_action(m, Action.make(Op.GENERATE, colour=Colour(1), centre=Centre(0.5, 0.0), shape=dot), ctx_for(m))


def test_gravity_requires_matching_frames():
    m = mask([[5]])
    with pytest.raises(dsl.ActionError):
        dsl.apply_action(
            m, Action.make(Op.GRAVITY, direction=Direction.DOWN), SceneContext(dims=(3, 3), occupied=frozenset())
        )


def test_extract_rehosts_to_bounding_box():
    g = [
        [0, 0, 0],
        [0, 8, 8],
        [0, 0, 8],
    ]
    m = mask(g)
    out = dsl.apply_action(m, Action.make(Op.EXTRACT), SceneContext(dims=(2, 2), occupied=frozenset()))
    assert out.dims == (2, 2)
    assert out.cells == frozenset({(0, 0), (0, 1), (1, 1)})


# ---------------------------------------------------------------- render


def test_render_paints_in_order_later_wins():
    a = pc.ObjectMask(colour=3, cells=frozenset({(0, 0), (0, 1)}), dims=(2, 2))
    b = pc.ObjectMask(colour=5, cells=frozenset({(0, 1), (1, 1)}), dims=(2, 2))
    g = dsl.render([a, b], (2, 2))
    assert g.tolist() == [[3, 5], [0, 5]]
    g2 = dsl.render([b, a], (2, 2))
    assert g2.tolist() == [[3, 3], [0, 5]]


def test_render_clips_out_of_canvas_cells():
    a = pc.ObjectMask(colour=2, cells=frozenset({(0, 0), (5, 5)}), dims=(6, 6))
    g = dsl.render([a], (2, 2))
    assert g.tolist() == [[2, 0], [0, 0]]


def test_render_extract_crops_bounding_box():
    g = [
        [0, 0, 0],
        [0, 8, 8],
        [0, 0, 8],
    ]
    m = mask(g)
    assert dsl.render_extract(m).tolist() == [[8, 8], [0, 8]]


# ---------------------------------------------------------------- inference


ALL_KINDS = frozenset(Op)


def infer(inp, out, allowed=ALL_KINDS, occupied=frozenset(), dims=None):
    ctx = SceneContext(dims=dims or out.dims, occupied=frozenset(occupied))
    return dsl.infer_actions(inp, out, allowed, ctx)


def kinds(actions):
    return {a.kind for a in actions}


def test_infer_identity_for_identical_masks():
    m = mask([[0, 7], [0, 0]])
    acts = infer(m, m, allowed=frozenset({Op.IDENTITY}))
    assert acts == {Action.make(Op.IDENTITY)}


def test_infer_recolour():
    m = mask([[0, 7], [0, 0]])
    out = pc.ObjectMask(colour=3, cells=m.cells, dims=m.dims)
    acts = infer(m, out, allowed=frozenset({Op.RECOLOUR, Op.IDENTITY}))
    assert acts == {Action.make(Op.RECOLOUR, colour=Colour(3))}


def test_infer_translation_is_move_and_recentre():
    inp = mask([[9, 0, 0], [0, 0, 0], [0, 0, 0]])
    out = pc.ObjectMask(colour=9, cells=frozenset({(1, 1)}), dims=(3, 3))
    acts = infer(inp, out, allowed=frozenset({Op.MOVE, Op.RECENTRE, Op.GRAVITY}))
    assert Action.make(Op.MOVE, amount=Amount(1.0, -1.0)) in acts
    assert Action.make(Op.RECENTRE, centre=Centre(0.0, 0.0)) in acts
    assert Op.GRAVITY not in kinds(acts)


def test_infer_gravity_when_fall_matches():
    inp = mask([[6], [0], [0]])
    out = pc.ObjectMask(colour=6, cells=frozenset({(2, 0)}), dims=(3, 1))
    acts = infer(inp, out)
    assert Action.make(Op.GRAVITY, direction=Direction.DOWN) in acts
    assert Action.make(Op.MOVE, amount=Amount(0.0, -2.0)) in acts


def test_infer_generate_always_reproduces():
    inp = mask([[1, 0], [0, 0]])
    out = pc.ObjectMask(colour=5, cells=frozenset({(0, 0), (0, 1)}), dims=(2, 2))
    acts = infer(inp, out, allowed=frozenset({Op.GENERATE}))
    assert len(acts) == 1
    (gen,) = acts
    assert gen.kind is Op.GENERATE
    assert gen.param("colour") == Colour(5)


def test_infer_extract():
    g = [
        [0, 0, 0],
        [0, 8, 8],
        [0, 0, 8],
    ]
    inp = mask(g)
    out = pc.ObjectMask(colour=8, cells=frozenset({(0, 0), (0, 1), (1, 1)}), dims=(2, 2))
    acts = infer(inp, out, allowed=frozenset({Op.EXTRACT, Op.IDENTITY}), dims=(2, 2))
    assert acts == {Action.make(Op.EXTRACT)}


def test_infer_results_all_verify():
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = np.zeros((5, 5), dtype=int)
        r, c = rng.integers(0, 4), rng.integers(0, 4)
        g[r, c] = g[r + 1, c] = int(rng.integers(1, 9))
        inp = pc.segment(pc.as_grid(g), pc.ObjectHypothesis.COLOUR)[0]
        dr, dc = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        out_cells = {(rr + dr, cc + dc) for rr, cc in inp.cells}
        if any(not (0 <= rr < 5 and 0 <= cc < 5) for rr, cc in out_cells):
            continue
        out = pc.ObjectMask(colour=inp.colour, cells=frozenset(out_cells), dims=(5, 5))
        ctx = SceneContext(dims=(5, 5), occupied=frozenset())
        for act in dsl.infer_actions(inp, out, ALL_KINDS, ctx):
            assert dsl.apply_action(inp, act, ctx) == out


def test_param_value_json_round_trip():
    # Program JSON stores slot values in this form; every slot type must
    # come back equal after a trip through JSON text.
    acts = [
        Action.make(Op.RECOLOUR, colour=Colour(7)),
        Action.make(Op.MOVE, amount=Amount(1.5, -2.0)),
        Action.make(Op.GRAVITY, direction=Direction.LEFT),
        Action.make(
            Op.GENERATE,
            colour=Colour(2),
            centre=Centre(0.5, 0.5),
            shape=Shape(frozenset({(0.0, 0.0), (0.0, 1.0)})),
        ),
    ]
    for a in acts:
        text = json.dumps({slot: dsl.param_value_to_json(v) for slot, v in a.params})
        params = {slot: dsl.param_value_from_json(doc) for slot, doc in json.loads(text).items()}
        assert Action.make(a.kind, **params) == a
