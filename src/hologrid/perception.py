"""From pixel grids to scenes of encoded objects.

A grid is a small matrix of colour indices 0..9 where 0 is background.
Six segmentation hypotheses carve the nonzero pixels into object masks;
each mask is then summarized by three holographic vectors (colour symbol,
blurred centre location, translation-invariant shape) that downstream
stages compare and manipulate.

Coordinates: the origin sits at the grid centre, x grows rightward with
columns and y grows upward against rows, so a pixel's centre is
``(col - (C-1)/2, (R-1)/2 - row)``.  Bounding-box midpoints land on half
integers for even extents, which is why positions are continuous.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from weakref import WeakKeyDictionary

import numpy as np
from numpy.typing import NDArray

from . import ssp, vsa
from .ssp import SspEncoder
from .vsa import HyperVector, Vocabulary, VsaConfig

Grid = NDArray[np.int_]

MAX_SIDE = 30
NUM_COLOURS = 10


class GridError(ValueError):
    """Raised for malformed grid data."""


def as_grid(data) -> Grid:
    """Validate and convert nested lists / arrays of integers into a grid.

    A float, bool, string or any other non-integer cell is refused, never
    truncated or coerced; an int64 array is returned as it is.
    """
    try:
        arr = np.asarray(data)
    except (TypeError, ValueError) as exc:
        raise GridError(f"grid is not rectangular: {exc}") from None
    if arr.ndim != 2 or arr.size == 0:
        raise GridError(f"grid must be a non-empty 2-D array, got shape {arr.shape}")
    if arr.shape[0] > MAX_SIDE or arr.shape[1] > MAX_SIDE:
        raise GridError(f"grid sides may not exceed {MAX_SIDE}, got {arr.shape}")
    if isinstance(data, np.ndarray):
        if arr.dtype.kind not in "iu":
            raise GridError(f"grid values must be integers, got a {arr.dtype} array")
    else:
        # Cell by cell: numpy would read a bool among integers as 0 or 1.
        for r, row in enumerate(data):
            for c, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise GridError(f"grid values must be integers, got {v!r} at row {r}, column {c}")
    bad = np.argwhere((arr < 0) | (arr >= NUM_COLOURS))
    if bad.size:
        r, c = (int(v) for v in bad[0])
        raise GridError(
            f"grid values must be colour indices 0..9, got {int(arr[r, c])} at row {r}, column {c}"
        )
    return arr.astype(np.int64, copy=False)


def grid_equal(a: Grid, b: Grid) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


def to_xy(row: float, col: float, dims: tuple[int, int]) -> tuple[float, float]:
    """Pixel-space (row, col) to centred (x, y)."""
    r, c = dims
    return (col - (c - 1) / 2.0, (r - 1) / 2.0 - row)


def to_rc(x: float, y: float, dims: tuple[int, int]) -> tuple[float, float]:
    """Centred (x, y) back to fractional (row, col)."""
    r, c = dims
    return ((r - 1) / 2.0 - y, x + (c - 1) / 2.0)


class ObjectHypothesis(Enum):
    """The segmentation schemes, in ranking tie-break order."""

    EIGHT_CONNECTED = "8-connected"
    FOUR_CONNECTED = "4-connected"
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"
    COLOUR = "colour"
    PIXEL = "pixel"


@dataclass(frozen=True)
class ObjectMask:
    """One object: a colour and its cells within a grid of known dims."""

    colour: int
    cells: frozenset[tuple[int, int]]
    dims: tuple[int, int]

    def __post_init__(self) -> None:
        if not self.cells:
            raise GridError("an object mask cannot be empty")
        if not (1 <= self.colour < NUM_COLOURS):
            raise GridError(f"object colour must be 1..9, got {self.colour}")

    @cached_property
    def bbox(self) -> tuple[int, int, int, int]:
        """(min row, min col, max row, max col), found once per mask.

        ``segment`` fills it in from the cells its flood fill collects.
        """
        rows = [r for r, _ in self.cells]
        cols = [c for _, c in self.cells]
        return (min(rows), min(cols), max(rows), max(cols))

    def centre_rc(self) -> tuple[float, float]:
        r0, c0, r1, c1 = self.bbox
        return ((r0 + r1) / 2.0, (c0 + c1) / 2.0)

    def centre_point(self) -> tuple[float, float]:
        """Bounding-box midpoint in centred coordinates."""
        mid_r, mid_c = self.centre_rc()
        return to_xy(mid_r, mid_c, self.dims)

    def offsets(self) -> frozenset[tuple[float, float]]:
        """Cells relative to the bbox midpoint, as (drow, dcol); translation-free."""
        mid_r, mid_c = self.centre_rc()
        return frozenset((r - mid_r, c - mid_c) for r, c in self.cells)

    def sort_key(self) -> tuple[int, int, int]:
        r0, c0, _, _ = self.bbox
        return (r0, c0, self.colour)


_FOUR = ((-1, 0), (1, 0), (0, -1), (0, 1))
_EIGHT = _FOUR + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def _flood_components(grid: Grid, neighbours) -> list[tuple[int, frozenset[tuple[int, int]], tuple[int, int, int, int]]]:
    """(colour, cells, bbox) of each same-colour component of the nonzero cells.

    Two cells join when one is the other shifted by an offset in
    ``neighbours``; with no offsets every cell stands alone. Components
    come in the row-major order of their first cell, and each bbox is read
    off the flat indices the fill collects.
    """
    # Row-major cells inside a zero border, so no offset leaves the list;
    # a joined cell is zeroed, so it never starts or joins another component.
    # Only the nonzero cells can start one, so only they are visited.
    rows, cols = grid.shape
    width = cols + 2
    padded = np.zeros((rows + 2, width), dtype=grid.dtype)
    padded[1:-1, 1:-1] = grid
    values = padded.ravel().tolist()
    steps = [dr * width + dc for dr, dc in neighbours]
    comps = []
    for first in np.flatnonzero(padded).tolist():
        colour = values[first]
        if colour == 0:
            continue
        values[first] = 0
        comp = [first]
        stack = [first]
        while stack:
            i = stack.pop()
            for step in steps:
                j = i + step
                if values[j] == colour:
                    values[j] = 0
                    comp.append(j)
                    stack.append(j)
        r0, c0 = divmod(first, width)
        if len(comp) == 1:
            comps.append((colour, frozenset({(r0 - 1, c0 - 1)}), (r0 - 1, c0 - 1, r0 - 1, c0 - 1)))
            continue
        # The first cell has the smallest flat index, so it lies on the top row.
        col_of = [i % width for i in comp]
        bbox = (r0 - 1, min(col_of) - 1, max(comp) // width - 1, max(col_of) - 1)
        comps.append((colour, frozenset([(i // width - 1, c - 1) for i, c in zip(comp, col_of)]), bbox))
    return comps


_NEIGHBOURS = {
    ObjectHypothesis.EIGHT_CONNECTED: _EIGHT,
    ObjectHypothesis.FOUR_CONNECTED: _FOUR,
    ObjectHypothesis.VERTICAL: ((-1, 0), (1, 0)),
    ObjectHypothesis.HORIZONTAL: ((0, -1), (0, 1)),
    ObjectHypothesis.PIXEL: (),
}


def segment(grid: Grid, hypothesis: ObjectHypothesis) -> list[ObjectMask]:
    """Split a grid's nonzero pixels into object masks under one hypothesis.

    COLOUR groups every cell of a colour; each other hypothesis is a flood
    fill over its neighbourhood. The result is ordered by (min row, min col,
    colour) of each mask, which fixes object identity everywhere downstream.
    Each mask's bbox comes from the cells as they are collected, so no mask
    scans its cells for it again.
    """
    if hypothesis is ObjectHypothesis.COLOUR:
        groups = []
        for colour in sorted(set(grid[grid > 0].tolist())):
            rows, cols = np.nonzero(grid == colour)
            bbox = (int(rows[0]), int(cols.min()), int(rows[-1]), int(cols.max()))
            groups.append((colour, frozenset(zip(rows.tolist(), cols.tolist())), bbox))
    else:
        groups = _flood_components(grid, _NEIGHBOURS[hypothesis])
    dims = (int(grid.shape[0]), int(grid.shape[1]))
    masks = []
    for colour, cells, bbox in groups:
        mask = ObjectMask(colour, cells, dims)
        mask.__dict__["bbox"] = bbox  # where the cached property keeps it
        masks.append(mask)
    return sorted(masks, key=ObjectMask.sort_key)


# ---------------------------------------------------------------- encoding

BLUR_SIGMA = 0.5

_BLUR_OFFSETS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


@cache
def _blur_weights(sigma: float) -> NDArray[np.float64]:
    """The 3x3 stencil's weights exp(-d^2 / 2 sigma^2), read-only."""
    weights = np.array([np.exp(-(dx * dx + dy * dy) / (2 * sigma**2)) for dx, dy in _BLUR_OFFSETS])
    weights.flags.writeable = False
    return weights


# The object properties, each carried by one vector, in canonical order.
PROPERTIES = ("colour", "centre", "shape")


@dataclass
class ObjectRepr:
    """An object plus its three holographic property vectors."""

    mask: ObjectMask
    colour_vec: HyperVector
    centre_vec: HyperVector
    shape_vec: HyperVector

    def vector(self, name: str) -> HyperVector:
        """The vector of property ``name``, one of ``PROPERTIES``."""
        if name not in PROPERTIES:
            raise KeyError(name)
        return getattr(self, f"{name}_vec")

    def signature(self):
        """Exact identity of the object up to the grid frame: colour, centre, shape."""
        return (self.mask.colour, self.mask.centre_point(), self.mask.offsets())


@dataclass
class Scene:
    """A grid perceived under one hypothesis."""

    grid: Grid
    objects: list[ObjectRepr]


def build_palette(config: VsaConfig) -> Vocabulary:
    """The ten colour symbols keyed by colour index (0 included for cleanup maps)."""
    return Vocabulary(config, ((c, vsa.random_symbol(config, f"colour:{c}")) for c in range(NUM_COLOURS)))


def encode_object(
    mask: ObjectMask, encoder: SspEncoder, palette: Vocabulary, cache: dict | None = None
) -> ObjectRepr:
    """Build the colour / centre / shape vectors for one mask.

    The centre vector (``centre_vector``) is a Gaussian-blurred stamp of the bbox midpoint: a
    3x3 stencil of encodings weighted by exp(-d^2 / 2 sigma^2), normalized,
    with sigma read from ``BLUR_SIGMA`` when called.
    Blurring widens the similarity peak so nearby centres score smoothly
    rather than falling straight to noise level.

    The shape vector is the ``shape_bundle`` of the cell offsets from the
    midpoint, making it invariant to translation by construction.

    ``cache`` maps each centre point and each offset set already encoded
    to its vector. A hit returns the vector this function built for that
    key with the same encoder, so it is bit-identical to a fresh encoding.
    """
    colour_vec = palette[mask.colour]
    cache = {} if cache is None else cache
    centre = mask.centre_point()
    centre_vec = cache.get(centre)
    if centre_vec is None:
        centre_vec = cache[centre] = centre_vector(centre, encoder)
    offsets = mask.offsets()
    shape_vec = cache.get(offsets)
    if shape_vec is None:
        shape_vec = cache[offsets] = shape_bundle(offsets, encoder)
    return ObjectRepr(mask=mask, colour_vec=colour_vec, centre_vec=centre_vec, shape_vec=shape_vec)


def centre_vector(point, encoder: SspEncoder) -> HyperVector:
    """The blurred encoding of a centre point: the 3x3 stencil around it, weighted by ``BLUR_SIGMA``."""
    cx, cy = point
    stencil = np.array([(cx + dx, cy + dy) for dx, dy in _BLUR_OFFSETS])
    return encoder.encode_bundle(stencil, _blur_weights(BLUR_SIGMA))


# Each encoder's centre tables, one per blur sigma, live as long as the encoder.
_CENTRE_TABLES: WeakKeyDictionary = WeakKeyDictionary()


def centre_table(encoder: SspEncoder) -> NDArray[np.float64]:
    """Similarity of two centre vectors as a function of their displacement, (119, 119), read-only.

    Entry ``[2 * dx + 59, 2 * dy + 59]`` is the dot product of the centre
    vectors of any two points (dx, dy) apart, for dx and dy on the
    half-cell lattice within 29.5, which holds the displacement of any two
    centres of grids up to 30x30. A centre vector's spectrum is its
    point's phasors times one fixed blur spectrum K, so the dot product of
    two of them is the similarity of ``bind(k, invert(k))``, whose spectrum
    is |K|^2, with the encoding of their displacement; ``k`` is the centre
    vector of the origin. Built on first use per encoder and blur sigma,
    from the encoder's readout lattice.
    """
    tables = _CENTRE_TABLES.setdefault(encoder, {})
    table = tables.get(BLUR_SIGMA)
    if table is None:
        k = centre_vector((0.0, 0.0), encoder)
        _, _, table = ssp.similarity_map(encoder, vsa.bind(k, vsa.invert(k)), ((-29.5, 29.5), (-29.5, 29.5)), 0.5)
        table.flags.writeable = False
        tables[BLUR_SIGMA] = table
    return table


def shape_bundle(offsets, encoder: SspEncoder) -> HyperVector:
    """Bundle of the encodings of (drow, dcol) cell offsets, each as the point (dcol, -drow).

    Every offset from a bbox midpoint lies on the half-cell lattice, so the
    encodings are gathered from the encoder's lattice tables
    (``SspEncoder.lattice_bundle``).
    """
    return encoder.lattice_bundle(np.array([(dc, -dr) for dr, dc in sorted(offsets)]))


def perceive(
    grid: Grid, hypothesis: ObjectHypothesis, encoder: SspEncoder, palette: Vocabulary, cache: dict | None = None
) -> Scene:
    """Segment and encode a grid under one hypothesis.

    Each distinct centre and shape is encoded once per call, or once per
    ``cache`` when the caller passes one (see ``encode_object``). The
    solver perceives each demo grid once per hypothesis, in
    ``abduction.rank_object_hypotheses``, through one dict per ``abduce``
    call; the scenes it returns are kept for that call's explanations.
    Keys are centred points and offset sets, so grids of different dims
    share a cache exactly.
    """
    cache = {} if cache is None else cache
    masks = segment(grid, hypothesis)
    objects = [encode_object(m, encoder, palette, cache) for m in masks]
    return Scene(grid=grid, objects=objects)
