"""Segmentation and object-encoding tests. Expected values are hand-derived."""
from __future__ import annotations

from functools import cached_property

import numpy as np
import pytest

from hologrid import deduction, harness as hn
from hologrid import perception as pc
from hologrid import ssp, vsa

from hologrid.dsl import Shape
from hologrid.induction import shape_vocabulary

from test_verdict_stability import arc30_style_task

from oracles import (
    bbox_direct,
    centre_bundle_direct,
    centre_vector_direct,
    identity_direct,
    segment_direct,
    shape_axis_product_direct,
    shape_bundle_direct,
    shape_vector_direct,
)

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


@pytest.mark.parametrize("cell", [1.5, 1.0, "3", True, None, 1e300, 2**70])
def test_as_grid_rejects_cells_that_are_not_colour_integers(cell):
    with pytest.raises(pc.GridError, match="row 0, column 1"):
        pc.as_grid([[0, cell]])


@pytest.mark.parametrize("cells", [[[0, 1.5]], [[0, 1.0]], [[True]], [["3"]]])
def test_as_grid_rejects_arrays_that_are_not_integer(cells):
    with pytest.raises(pc.GridError):
        pc.as_grid(np.array(cells))


def test_as_grid_keeps_integer_arrays():
    grid = np.array([[0, 3], [9, 1]], dtype=np.int64)
    assert pc.as_grid(grid) is grid
    narrow = pc.as_grid(np.array([[0, 3]], dtype=np.uint8))
    assert narrow.dtype == np.int64 and narrow.tolist() == [[0, 3]]


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


def test_segment_matches_separate_walks_on_random_grids():
    # The oracle answers each hypothesis with its own walk: a numpy-indexed
    # flood, a run scanner, a colour grouping and a per-pixel split.
    rng = np.random.default_rng(7)
    objects = 0
    for _ in range(120):
        rows, cols = (int(v) for v in rng.integers(1, 31, size=2))
        colours = int(rng.integers(1, 10))
        g = np.where(rng.random((rows, cols)) < rng.random(), rng.integers(1, colours + 1, size=(rows, cols)), 0)
        for hyp in pc.ObjectHypothesis:
            got = [(m.colour, m.cells) for m in pc.segment(grid(g), hyp)]
            assert got == segment_direct(g, hyp.value), hyp
            objects += len(got)
    assert objects > 10_000


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
    assert obj.bbox == (1, 1, 2, 2)
    # bbox midpoint (1.5, 1.5) in a 3x3 grid -> x = 0.5, y = -0.5
    assert obj.centre_point() == (0.5, -0.5)


def test_bbox_matches_the_direct_min_max_formula_and_is_found_once():
    rng = np.random.default_rng(15)
    full = frozenset((r, c) for r in range(30) for c in range(30))
    masks = [pc.ObjectMask(4, full, (30, 30))]
    singles = rng.integers(0, 30, size=(20, 2)).tolist()
    masks += [pc.ObjectMask(2, frozenset({(r, c)}), (30, 30)) for r, c in singles]
    for _ in range(200):
        dims = tuple(int(v) for v in rng.integers(1, 31, size=2))
        cells = np.argwhere(rng.random(dims) < rng.random()).tolist()
        if cells:
            masks.append(pc.ObjectMask(int(rng.integers(1, 10)), frozenset(map(tuple, cells)), dims))
    assert masks[0].bbox == (0, 0, 29, 29)
    assert all(m.bbox == (r, c, r, c) for m in masks[1:21] for (r, c) in m.cells)
    for mask in masks:
        assert mask.bbox == bbox_direct(mask.cells)
        assert mask.bbox is mask.bbox  # found on first read, then kept
        # Equality and hashing stay field-based: a mask whose box was read
        # equals, and hashes like, one whose box was not.
        twin = pc.ObjectMask(mask.colour, mask.cells, mask.dims)
        assert twin == mask and hash(twin) == hash(mask)


def test_segmented_masks_are_measured_once_in_segment(monkeypatch):
    # Count each computation of a mask's bbox from its cells.
    computed = []
    prop = pc.ObjectMask.bbox

    def compute(mask):
        computed.append(mask)
        return prop.func(mask)

    counted = cached_property(compute)
    counted.__set_name__(pc.ObjectMask, "bbox")
    monkeypatch.setattr(pc.ObjectMask, "bbox", counted)
    rng = np.random.default_rng(3)
    grids = [rng.integers(0, 4, size=(int(rng.integers(1, 31)), int(rng.integers(1, 31)))) for _ in range(20)]
    grids.append(np.full((30, 30), 7))
    segmented = 0
    for g in grids:
        for hyp in pc.ObjectHypothesis:
            for m in pc.segment(pc.as_grid(g), hyp):
                # What segment filled in equals the formula on the cells.
                assert m.bbox == bbox_direct(m.cells)
                segmented += 1
    assert segmented > 1000 and computed == []
    # A solve reads the bbox of every mask it segments and computes none.
    task = hn.generate_sort_of_arc(1, seed=5)[0]
    assert deduction.solve_task(task, ENC, PALETTE)[1].ok
    assert computed == []


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
    assert np.array_equal(obj.colour_vec, PALETTE[6])
    # Keyed by colour index; each vector is the random symbol named "colour:<c>".
    assert np.array_equal(PALETTE[6], vsa.random_symbol(CFG, "colour:6"))


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
    assert obj.mask.centre_point() == (1.5, 0.0)
    point, _ = ssp.decode(ENC, obj.centre_vec, ((-2.0, 2.0), (-1.5, 1.5)), step=0.5)
    assert point == (1.5, 0.0)


def test_centre_vector_follows_blur_sigma(monkeypatch):
    g = [[0, 0, 0], [0, 3, 3], [0, 0, 0]]
    before = one_object(g).centre_vec
    monkeypatch.setattr(pc, "BLUR_SIGMA", 1.0)
    widened = one_object(g).centre_vec
    assert np.max(np.abs(widened - before)) > 1e-3
    monkeypatch.undo()
    assert np.array_equal(one_object(g).centre_vec, before)


def test_centre_table_entries_equal_centre_vector_dots_at_every_reachable_displacement():
    table = pc.centre_table(ENC)
    assert table.shape == (119, 119) and not table.flags.writeable
    assert pc.centre_table(ENC) is table
    # Every centre of a grid up to 30x30 lies on the half-cell lattice within 14.5,
    # so every displacement of two centres lies on it within 29.
    axis = np.arange(-29, 30) * 0.5
    vectors = np.array([[pc.centre_vector((x, y), ENC) for y in axis] for x in axis])
    worst = 0.0
    for dx in range(-58, 59):
        for dy in range(-58, 59):
            # The two pairs (dx, dy) apart that sit at either end of the lattice, reaching its corners.
            for i, j in ((max(0, -dx), max(0, -dy)), (min(58, 58 - dx), min(58, 58 - dy))):
                dot = vectors[i + dx, j + dy] @ vectors[i, j]
                worst = max(worst, abs(table[dx + 59, dy + 59] - dot))
    assert worst < 1e-14
    # The rim (a displacement of 29.5) no two centres reach still encodes it.
    edge = pc.centre_vector((14.5, -14.5), ENC) @ pc.centre_vector((-15.0, 15.0), ENC)
    assert abs(table[118, 0] - edge) < 1e-14


def test_centre_table_follows_blur_sigma_and_encoder(monkeypatch):
    plain = pc.centre_table(ENC)
    monkeypatch.setattr(pc, "BLUR_SIGMA", 1.0)
    widened = pc.centre_table(ENC)
    assert np.max(np.abs(widened - plain)) > 1e-3
    assert abs(widened[59 + 3, 59] - pc.centre_vector((1.5, 0.0), ENC) @ pc.centre_vector((0.0, 0.0), ENC)) < 1e-14
    monkeypatch.undo()
    assert pc.centre_table(ENC) is plain
    other = ssp.SspEncoder(vsa.VsaConfig(dimension=CFG.dimension, seed=CFG.seed + 1))
    assert not np.array_equal(pc.centre_table(other), plain)


def test_encode_object_matches_direct_formulas_bitwise():
    rng = np.random.default_rng(12)
    masks = 0
    for _ in range(12):
        rows, cols = (int(v) for v in rng.integers(1, 9, size=2))
        g = np.where(rng.random((rows, cols)) < 0.5, rng.integers(1, 10, size=(rows, cols)), 0)
        g[rng.integers(rows), rng.integers(cols)] = rng.integers(1, 10)
        for hyp in pc.ObjectHypothesis:
            for mask in pc.segment(grid(g), hyp):
                o = pc.encode_object(mask, ENC, PALETTE)
                assert np.array_equal(o.colour_vec, PALETTE[mask.colour])
                centre = centre_bundle_direct(mask.centre_point(), pc.BLUR_SIGMA, ENC._half_phases)
                assert np.array_equal(o.centre_vec, centre)
                assert np.array_equal(o.shape_vec, shape_axis_product_direct(mask.cells, ENC._half_phases))
                assert np.array_equal(o.shape_vec, pc.shape_bundle(mask.offsets(), ENC))
                # Summing the encodings point by point agrees up to rounding.
                by_point = centre_vector_direct(mask.centre_point(), pc.BLUR_SIGMA, ENC.encode_many)
                assert np.max(np.abs(o.centre_vec - by_point)) < 1e-14
                assert np.max(np.abs(o.shape_vec - shape_vector_direct(mask.cells, ENC.encode_many))) < 1e-14
                masks += 1
    assert masks > 100


def test_shape_vectors_from_the_lattice_tables_match_the_exp_formulas():
    masks = [pc.ObjectMask(1, frozenset({cell}), (30, 30)) for cell in ((0, 0), (29, 29), (7, 22))]
    masks += [pc.ObjectMask(2, shape, (3, 3)) for shape in hn.stencil_shapes()]
    # Full rectangles, odd and even sides, out to offsets of 14.5.
    for h in range(1, 31):
        masks += [pc.ObjectMask(3, frozenset((r, c) for r in range(h) for c in range(w)), (30, 30)) for w in range(1, 31)]
    for seed in range(3):
        for grid_in, grid_out in arc30_style_task(seed).train:
            masks += pc.segment(grid_in, pc.ObjectHypothesis.COLOUR) + pc.segment(grid_out, pc.ObjectHypothesis.COLOUR)
    assert max(max(map(abs, offset)) for m in masks for offset in m.offsets()) == 14.5
    for mask in masks:
        got = pc.shape_bundle(mask.offsets(), ENC)
        assert np.max(np.abs(got - shape_bundle_direct(mask.cells, ENC._half_phases))) < 1e-15
        assert np.max(np.abs(got - shape_vector_direct(mask.cells, ENC.encode_many))) < 1e-15


def test_shape_vectors_take_no_complex_exp(monkeypatch):
    calls = dict.fromkeys(("phasors", "centres", "encode_many", "table"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ssp.SspEncoder, "_phasors", counted("phasors", ssp.SspEncoder._phasors))
    monkeypatch.setattr(ssp.SspEncoder, "encode_many", counted("encode_many", ssp.SspEncoder.encode_many))
    monkeypatch.setattr(ssp.SspEncoder, "lattice_bundle", counted("table", ssp.SspEncoder.lattice_bundle))
    monkeypatch.setattr(pc, "centre_vector", counted("centres", pc.centre_vector))
    predictions, diag = deduction.solve_task(arc30_style_task(0), ENC, PALETTE)
    assert diag.ok and calls["table"] > 20
    # Each centre and each direct encoding takes its exps; no shape does.
    assert calls["phasors"] == calls["centres"] + calls["encode_many"]


def test_a_shape_has_one_vector_in_scenes_bundles_and_the_shape_table():
    g = grid([[1, 1, 0, 0, 2], [0, 1, 0, 2, 2], [3, 0, 0, 0, 2], [3, 3, 3, 0, 0]])
    objects = pc.perceive(g, pc.ObjectHypothesis.EIGHT_CONNECTED, ENC, PALETTE).objects
    shapes = [Shape(o.mask.offsets()) for o in objects]
    table = shape_vocabulary(shapes, ENC)
    assert len(table.keys()) == 3
    for o, shape in zip(objects, shapes):
        assert np.array_equal(o.shape_vec, pc.shape_bundle(shape.offsets, ENC))
        assert np.array_equal(o.shape_vec, table[shape])


def random_box_mask(rng, dims, corners):
    """A mask holding the corners of a random box plus random cells inside it."""
    h, w = (int(v) for v in rng.integers(1, 6, size=2))
    r0 = int(rng.integers(dims[0] - h + 1))
    c0 = int(rng.integers(dims[1] - w + 1))
    box = [(r0 + r, c0 + c) for r in range(h) for c in range(w)]
    kept = {cell for cell in box if rng.random() < 0.5}
    if corners:
        kept |= {(r0, c0), (r0, c0 + w - 1), (r0 + h - 1, c0), (r0 + h - 1, c0 + w - 1)}
    kept = kept or {box[0]}
    return pc.ObjectMask(int(rng.integers(1, 10)), frozenset(kept), dims)


def shifted(mask, dr, dc):
    return pc.ObjectMask(mask.colour, frozenset((r + dr, c + dc) for r, c in mask.cells), mask.dims)


def assert_same_vectors(a, b):
    for name in pc.PROPERTIES:
        assert np.array_equal(a.vector(name), b.vector(name)), name


@pytest.mark.parametrize("dims", [(30, 30), (20, 20)])
def test_shared_cache_vectors_equal_fresh_encodings_bitwise(dims):
    rng = np.random.default_rng(dims[0])
    masks = []
    same_centre = same_shape = 0
    for _ in range(40):
        mask = random_box_mask(rng, dims, corners=True)
        masks.append(mask)
        # Same box corners, other inside cells: one centre, two shapes.
        (r0, c0, r1, c1) = mask.bbox
        other = {cell for cell in mask.cells if cell[0] in (r0, r1) and cell[1] in (c0, c1)}
        other |= {(r, c) for r in range(r0, r1 + 1) for c in range(c0, c1 + 1) if rng.random() < 0.5}
        twin = pc.ObjectMask(mask.colour, frozenset(other), dims)
        if twin.offsets() != mask.offsets():
            assert twin.centre_point() == mask.centre_point()
            masks.append(twin)
            same_centre += 1
        # A translate: one shape, two centres.
        dr = int(rng.integers(-r0, dims[0] - r1))
        dc = int(rng.integers(-c0, dims[1] - c1))
        if (dr, dc) != (0, 0):
            masks.append(shifted(mask, dr, dc))
            same_shape += 1
        masks.append(random_box_mask(rng, dims, corners=False))
    assert same_centre > 10 and same_shape > 10
    order = rng.permutation(len(masks))
    cache: dict = {}
    cached = {int(i): pc.encode_object(masks[i], ENC, PALETTE, cache) for i in order}
    for i, mask in enumerate(masks):
        assert_same_vectors(cached[i], pc.encode_object(mask, ENC, PALETTE))
        assert cache[mask.centre_point()] is cached[i].centre_vec
        assert cache[mask.offsets()] is cached[i].shape_vec
    distinct = {m.centre_point() for m in masks} | {m.offsets() for m in masks}
    assert len(cache) == len(distinct) < 2 * len(masks)


@pytest.mark.parametrize("dims", [(30, 30), (20, 20)])
def test_one_cache_across_six_hypotheses_matches_fresh_encodings(dims):
    rng = np.random.default_rng(dims[1] + 1)
    g = np.where(rng.random(dims) < 0.3, rng.integers(1, 4, size=dims), 0)
    cache: dict = {}
    for hyp in pc.ObjectHypothesis:
        scene = pc.perceive(grid(g), hyp, ENC, PALETTE, cache)
        assert [o.mask for o in scene.objects] == pc.segment(grid(g), hyp)
        for o in scene.objects:
            assert_same_vectors(o, pc.encode_object(o.mask, ENC, PALETTE))


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


def test_object_vector_reads_each_property_and_refuses_others():
    obj = one_object([[0, 4], [4, 4]])
    fields = (obj.colour_vec, obj.centre_vec, obj.shape_vec)
    for name, field in zip(pc.PROPERTIES, fields, strict=True):
        assert obj.vector(name) is field
    with pytest.raises(KeyError):
        obj.vector("shape_vec")


def test_perceive_keeps_mask_order_and_grid():
    g = pc.as_grid([[1, 0, 2]])
    scene = pc.perceive(g, pc.ObjectHypothesis.PIXEL, ENC, PALETTE)
    assert np.array_equal(scene.grid, g)
    assert [o.mask.colour for o in scene.objects] == [1, 2]
