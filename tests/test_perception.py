"""Segmentation and object-encoding tests. Expected values are hand-derived."""
from __future__ import annotations

import numpy as np
import pytest

from hologrid import perception as pc
from hologrid import ssp, vsa

from oracles import identity_direct

CFG = vsa.VsaConfig(dimension=512, seed=21)
ENC = ssp.SspEncoder(CFG)
PALETTE = pc.build_palette(CFG)


def grid(rows):
    return pc.as_grid(rows)


def cells(mask):
    return set(mask.cells)


# ---------------------------------------------------------------- grids


def test_as_grid_validates():
    with pytest.raises(pc.GridError):
        pc.as_grid([[0, 1], [2]])
    with pytest.raises(pc.GridError):
        pc.as_grid([[0, 12]])
    with pytest.raises(pc.GridError):
        pc.as_grid([[-1]])
    with pytest.raises(pc.GridError):
        pc.as_grid([])


def test_centred_coordinates():
    assert pc.to_xy(0, 0, (3, 3)) == (-1.0, 1.0)
    assert pc.to_xy(2, 2, (3, 3)) == (1.0, -1.0)
    assert pc.to_xy(1, 1, (3, 3)) == (0.0, 0.0)
    assert pc.to_xy(0, 0, (4, 4)) == (-1.5, 1.5)
    assert pc.to_rc(-1.5, 1.5, (4, 4)) == (0.0, 0.0)


# ---------------------------------------------------------------- segmentation


DIAG = [
    [3, 0, 0],
    [0, 3, 0],
    [0, 0, 0],
]


def test_eight_connected_joins_diagonals():
    objs = pc.segment(grid(DIAG), pc.ObjectHypothesis.EIGHT_CONNECTED)
    assert len(objs) == 1
    assert cells(objs[0]) == {(0, 0), (1, 1)}


def test_four_connected_splits_diagonals():
    objs = pc.segment(grid(DIAG), pc.ObjectHypothesis.FOUR_CONNECTED)
    assert len(objs) == 2
    assert [cells(o) for o in objs] == [{(0, 0)}, {(1, 1)}]


def test_vertical_and_horizontal_runs():
    g = grid(
        [
            [5, 5, 0],
            [5, 0, 5],
        ]
    )
    vert = pc.segment(g, pc.ObjectHypothesis.VERTICAL)
    assert [cells(o) for o in vert] == [{(0, 0), (1, 0)}, {(0, 1)}, {(1, 2)}]
    horiz = pc.segment(g, pc.ObjectHypothesis.HORIZONTAL)
    assert [cells(o) for o in horiz] == [{(0, 0), (0, 1)}, {(1, 0)}, {(1, 2)}]


def test_vertical_runs_split_on_colour_change():
    g = grid([[2], [3], [3]])
    objs = pc.segment(g, pc.ObjectHypothesis.VERTICAL)
    assert [(o.colour, cells(o)) for o in objs] == [(2, {(0, 0)}), (3, {(1, 0), (2, 0)})]


def test_colour_hypothesis_merges_disconnected_same_colour():
    g = grid(
        [
            [4, 0, 4],
            [0, 7, 0],
        ]
    )
    objs = pc.segment(g, pc.ObjectHypothesis.COLOUR)
    assert len(objs) == 2
    assert (objs[0].colour, cells(objs[0])) == (4, {(0, 0), (0, 2)})
    assert (objs[1].colour, cells(objs[1])) == (7, {(1, 1)})


def test_pixel_hypothesis_one_object_per_cell():
    g = grid([[1, 0], [0, 2]])
    objs = pc.segment(g, pc.ObjectHypothesis.PIXEL)
    assert [(o.colour, cells(o)) for o in objs] == [(1, {(0, 0)}), (2, {(1, 1)})]


def test_background_never_forms_objects():
    for hyp in pc.ObjectHypothesis:
        assert pc.segment(grid([[0, 0], [0, 0]]), hyp) == []


def test_objects_ordered_by_min_row_then_min_col():
    g = grid(
        [
            [0, 0, 6],
            [2, 0, 0],
        ]
    )
    objs = pc.segment(g, pc.ObjectHypothesis.EIGHT_CONNECTED)
    assert [cells(o) for o in objs] == [{(0, 2)}, {(1, 0)}]


def test_masks_partition_nonzero_cells_under_every_hypothesis():
    rng = np.random.default_rng(42)
    for _ in range(10):
        g = rng.integers(0, 5, size=(rng.integers(2, 9), rng.integers(2, 9)))
        g = pc.as_grid(g)
        nonzero = {(int(r), int(c)) for r, c in zip(*np.nonzero(g))}
        for hyp in pc.ObjectHypothesis:
            objs = pc.segment(g, hyp)
            seen: set = set()
            for o in objs:
                assert not (cells(o) & seen)
                for r, c in o.cells:
                    assert g[r, c] == o.colour
                seen |= cells(o)
            assert seen == nonzero


# ---------------------------------------------------------------- masks


def test_bounding_box_and_centre_point():
    g = grid(
        [
            [0, 0, 0],
            [0, 8, 8],
            [0, 8, 8],
        ]
    )
    (obj,) = pc.segment(g, pc.ObjectHypothesis.EIGHT_CONNECTED)
    assert obj.bbox() == (1, 1, 2, 2)
    # bbox midpoint (1.5, 1.5) in a 3x3 grid -> x = 0.5, y = -0.5
    assert obj.centre_point() == (0.5, -0.5)


def test_shape_offsets_are_translation_invariant():
    g1 = grid([[9, 9, 0], [0, 0, 0], [0, 0, 0]])
    g2 = grid([[0, 0, 0], [0, 0, 0], [0, 9, 9]])
    (a,) = pc.segment(g1, pc.ObjectHypothesis.EIGHT_CONNECTED)
    (b,) = pc.segment(g2, pc.ObjectHypothesis.EIGHT_CONNECTED)
    assert a.offsets() == b.offsets()
    assert a.offsets() == frozenset({(0.0, -0.5), (0.0, 0.5)})


# ---------------------------------------------------------------- encoding


def one_object(g, hyp=pc.ObjectHypothesis.EIGHT_CONNECTED):
    scene = pc.perceive(pc.as_grid(g), hyp, ENC, PALETTE)
    assert len(scene.objects) == 1
    return scene.objects[0]


def test_colour_vector_is_palette_symbol():
    obj = one_object([[0, 0], [0, 6]])
    assert np.array_equal(obj.colour_vec, PALETTE["colour:6"])


def test_single_pixel_shape_is_bind_identity():
    obj = one_object([[0, 0, 0], [0, 5, 0], [0, 0, 0]])
    assert np.max(np.abs(obj.shape_vec - identity_direct(CFG.dimension))) < 1e-12


def test_shape_vector_translation_invariance():
    a = one_object([[7, 7, 7], [0, 0, 0], [0, 0, 0]])
    b = one_object([[0, 0, 0], [0, 0, 0], [7, 7, 7]])
    assert np.max(np.abs(a.shape_vec - b.shape_vec)) < 1e-12


def test_blurred_centre_decodes_to_centre_point():
    g = [
        [0, 0, 0, 0, 0],
        [0, 0, 0, 2, 2],
        [0, 0, 0, 2, 2],
        [0, 0, 0, 0, 0],
    ]
    obj = one_object(g)
    assert obj.centre_point() == (1.5, 0.0)
    point, _ = ssp.decode(ENC, obj.centre_vec, ((-2.0, 2.0), (-1.5, 1.5)), step=0.5)
    assert point == (1.5, 0.0)


def test_square_shape_component_similarity():
    # A 2x2 square's shape bundles four offset encodings; each corner offset
    # should sit near 1/2 similarity (four roughly orthogonal components).
    obj = one_object([[3, 3], [3, 3]])
    corner = ENC.encode((0.5, 0.5))
    assert 0.35 < vsa.similarity(obj.shape_vec, corner) < 0.7


def test_encodings_are_unit_norm():
    obj = one_object([[0, 4], [4, 4]])
    for v in (obj.colour_vec, obj.centre_vec, obj.shape_vec):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9


def test_perceive_keeps_mask_order_and_grid():
    g = pc.as_grid([[1, 0, 2]])
    scene = pc.perceive(g, pc.ObjectHypothesis.PIXEL, ENC, PALETTE)
    assert np.array_equal(scene.grid, g)
    assert [o.mask.colour for o in scene.objects] == [1, 2]
    assert scene.hypothesis is pc.ObjectHypothesis.PIXEL
