"""Grid-edit operations: typed actions, an executor, and action inference.

An Action is an operation kind plus fully ground parameters. The executor
``apply_action`` maps one object mask to a new mask inside a target frame
(a SceneContext: canvas dims plus cells occupied by the *other* objects);
``infer_actions`` runs the other way, recovering every allowed action that
exactly reproduces a given output object from a given input object.

Positions and movements are expressed in centred (x, y) coordinates so the
same parameters stay meaningful when the input and output grids differ in
size. Placements that do not land exactly on pixel cells (parity mismatch)
are invalid rather than rounded.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .perception import Grid, ObjectHypothesis, ObjectMask, segment, to_rc


class ActionError(ValueError):
    """The action cannot be applied to this object in this context."""


class OutOfBoundsError(ActionError):
    """Applying the action would push cells off the canvas."""


class OperationKind(Enum):
    IDENTITY = "identity"
    EXTRACT = "extract"
    RECOLOUR = "recolour"
    RECENTRE = "recentre"
    RESHAPE = "reshape"
    MOVE = "move"
    GRAVITY = "gravity"
    GROW = "grow"
    FILL = "fill"
    HOLLOW = "hollow"
    GENERATE = "generate"


class Direction(Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"

    @property
    def step(self) -> tuple[int, int]:
        # (drow, dcol); up means towards smaller row indices.
        return {"up": (-1, 0), "down": (1, 0), "left": (0, -1), "right": (0, 1)}[self.value]


@dataclass(frozen=True)
class Colour:
    value: int

    def __post_init__(self) -> None:
        if not (1 <= self.value <= 9):
            raise ValueError(f"colour parameter must be 1..9, got {self.value}")


@dataclass(frozen=True)
class Centre:
    x: float
    y: float


@dataclass(frozen=True)
class Amount:
    dx: float
    dy: float


@dataclass(frozen=True)
class Shape:
    """Canonical cell offsets (drow, dcol) relative to the bbox midpoint."""

    offsets: frozenset[tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.offsets:
            raise ValueError("a shape needs at least one cell")


ParamValue = Colour | Centre | Amount | Direction | Shape

PARAM_SLOTS: dict[OperationKind, tuple[str, ...]] = {
    OperationKind.IDENTITY: (),
    OperationKind.EXTRACT: (),
    OperationKind.RECOLOUR: ("colour",),
    OperationKind.RECENTRE: ("centre",),
    OperationKind.RESHAPE: ("shape",),
    OperationKind.MOVE: ("amount",),
    OperationKind.GRAVITY: ("direction",),
    OperationKind.GROW: ("direction",),
    OperationKind.FILL: (),
    OperationKind.HOLLOW: (),
    OperationKind.GENERATE: ("colour", "centre", "shape"),
}

_SLOT_TYPES = {
    "colour": Colour,
    "centre": Centre,
    "amount": Amount,
    "direction": Direction,
    "shape": Shape,
}


@dataclass(frozen=True)
class Action:
    """An operation kind with ground parameters, hashable for set work."""

    kind: OperationKind
    params: tuple[tuple[str, ParamValue], ...] = ()

    @staticmethod
    def make(kind: OperationKind, **params: ParamValue) -> "Action":
        expected = PARAM_SLOTS[kind]
        if set(params) != set(expected):
            raise ValueError(f"{kind.value} takes parameters {expected}, got {tuple(params)}")
        for slot, value in params.items():
            if not isinstance(value, _SLOT_TYPES[slot]):
                raise ValueError(f"parameter {slot} must be a {_SLOT_TYPES[slot].__name__}")
        return Action(kind, tuple((slot, params[slot]) for slot in expected))

    def param(self, slot: str) -> ParamValue:
        for name, value in self.params:
            if name == slot:
                return value
        raise KeyError(slot)

    def sort_key(self) -> str:
        """Stable text encoding; distinct actions get distinct keys."""
        parts = []
        for name, value in self.params:
            if isinstance(value, Colour):
                parts.append(f"{name}={value.value}")
            elif isinstance(value, Centre):
                parts.append(f"{name}=({value.x:g},{value.y:g})")
            elif isinstance(value, Amount):
                parts.append(f"{name}=({value.dx:g},{value.dy:g})")
            elif isinstance(value, Direction):
                parts.append(f"{name}={value.value}")
            elif isinstance(value, Shape):
                cells = ";".join(f"{dr:g},{dc:g}" for dr, dc in sorted(value.offsets))
                parts.append(f"{name}=[{cells}]")
        return f"{self.kind.value}({', '.join(parts)})"


@dataclass(frozen=True)
class SceneContext:
    """Target canvas dims plus the cells held by the other scene objects."""

    dims: tuple[int, int]
    occupied: frozenset[tuple[int, int]] = frozenset()


def _require_integral(value: float, what: str) -> int:
    snapped = round(value)
    if abs(value - snapped) > 1e-6:
        raise ActionError(f"{what} does not land on the pixel lattice: {value}")
    return int(snapped)


def _rehost(cells, colour: int, dims: tuple[int, int]) -> ObjectMask:
    rows, cols = dims
    for r, c in cells:
        if not (0 <= r < rows and 0 <= c < cols):
            raise OutOfBoundsError(f"cell {(r, c)} outside canvas {dims}")
    return ObjectMask(colour=colour, cells=frozenset(cells), dims=dims)


def _place(offsets, centre_xy: tuple[float, float], colour: int, dims: tuple[int, int]) -> ObjectMask:
    """Realize shape offsets around a centred-coordinate midpoint."""
    mid_r, mid_c = to_rc(centre_xy[0], centre_xy[1], dims)
    cells = []
    for dr, dc in offsets:
        r = _require_integral(mid_r + dr, "placed row")
        c = _require_integral(mid_c + dc, "placed column")
        cells.append((r, c))
    return _rehost(cells, colour, dims)


def _shift_cells(cells, dr: int, dc: int):
    return {(r + dr, c + dc) for r, c in cells}


def _in_bounds(cells, dims) -> bool:
    rows, cols = dims
    return all(0 <= r < rows and 0 <= c < cols for r, c in cells)


def _same_frame(mask: ObjectMask, ctx: SceneContext, op: str) -> None:
    if mask.dims != ctx.dims:
        raise ActionError(f"{op} is only defined within one frame, {mask.dims} vs {ctx.dims}")


def _gravity(mask: ObjectMask, direction: Direction, ctx: SceneContext) -> ObjectMask:
    """Slide the mask until one more step would leave the canvas or hit an occupied cell.

    The stopping shift is found in one pass, for a mask on its canvas. Each
    cell has a lane (its coordinate across the motion) and a depth (its
    coordinate along it). The mask can go as far as its deepest cell is
    from the canvas edge, and an occupied cell stops the mask cell nearest
    behind it in its lane one step short of it.
    """
    _same_frame(mask, ctx, "gravity")
    dr, dc = direction.step
    rows, cols = ctx.dims
    lanes: dict[int, list[int]] = {}  # lane -> depths of the mask's cells in it
    for r, c in mask.cells:
        lanes.setdefault(c if dc == 0 else r, []).append(r * dr + c * dc)
    edge = max(dr * (rows - 1), 0) + max(dc * (cols - 1), 0)
    shift = edge - max(max(depths) for depths in lanes.values())
    for r, c in ctx.occupied:
        depths = lanes.get(c if dc == 0 else r)
        if depths is not None:
            depth = r * dr + c * dc
            behind = [d for d in depths if d < depth]
            if behind:
                shift = min(shift, depth - max(behind) - 1)
    return ObjectMask(mask.colour, frozenset(_shift_cells(mask.cells, shift * dr, shift * dc)), mask.dims)


def _grow(mask: ObjectMask, direction: Direction, ctx: SceneContext) -> ObjectMask:
    _same_frame(mask, ctx, "grow")
    dr, dc = direction.step
    cells = set(mask.cells)
    while True:
        frontier = {(r, c) for r, c in cells if (r + dr, c + dc) not in cells}
        advanced = _shift_cells(frontier, dr, dc)
        if not _in_bounds(advanced, ctx.dims) or advanced & ctx.occupied:
            break
        cells |= advanced
    return ObjectMask(mask.colour, frozenset(cells), mask.dims)


def _interior_holes(mask: ObjectMask) -> set[tuple[int, int]]:
    """Non-mask cells whose 4-connected gap lies wholly inside the mask's bbox.

    A gap is a 4-connected component of the non-mask cells of the grid. One
    that reaches outside the bbox is open; when the bbox covers the whole
    grid there is no outside, so every gap counts.
    """
    r0, c0, r1, c1 = mask.bbox
    gaps = np.ones(mask.dims, dtype=np.int64)
    gaps[tuple(zip(*mask.cells))] = 0
    holes: set[tuple[int, int]] = set()
    for gap in segment(gaps, ObjectHypothesis.FOUR_CONNECTED):
        g0, h0, g1, h1 = gap.bbox
        if r0 <= g0 and g1 <= r1 and c0 <= h0 and h1 <= c1:
            holes |= gap.cells
    return holes


def _fill(mask: ObjectMask, ctx: SceneContext) -> ObjectMask:
    _same_frame(mask, ctx, "fill")
    return ObjectMask(mask.colour, frozenset(mask.cells | _interior_holes(mask)), mask.dims)


def _hollow(mask: ObjectMask, ctx: SceneContext) -> ObjectMask:
    _same_frame(mask, ctx, "hollow")
    rows, cols = mask.dims

    def covered(r: int, c: int) -> bool:
        # Off-grid counts as covered: the wall behaves like object body.
        return not (0 <= r < rows and 0 <= c < cols) or (r, c) in mask.cells

    interior = {
        (r, c)
        for r, c in mask.cells
        if all(covered(r + dr, c + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)))
    }
    if interior == mask.cells:
        return mask
    return ObjectMask(mask.colour, frozenset(mask.cells - interior), mask.dims)


def apply_action(mask: ObjectMask, action: Action, ctx: SceneContext) -> ObjectMask:
    """Execute one action; raises ActionError when it cannot apply cleanly."""
    kind = action.kind
    if kind is OperationKind.IDENTITY:
        return _rehost(mask.cells, mask.colour, ctx.dims)
    if kind is OperationKind.EXTRACT:
        r0, c0, _, _ = mask.bbox
        return _rehost(_shift_cells(mask.cells, -r0, -c0), mask.colour, ctx.dims)
    if kind is OperationKind.RECOLOUR:
        colour: Colour = action.param("colour")  # type: ignore[assignment]
        return _rehost(mask.cells, colour.value, ctx.dims)
    if kind is OperationKind.RECENTRE:
        centre: Centre = action.param("centre")  # type: ignore[assignment]
        return _place(mask.offsets(), (centre.x, centre.y), mask.colour, ctx.dims)
    if kind is OperationKind.MOVE:
        amount: Amount = action.param("amount")  # type: ignore[assignment]
        cx, cy = mask.centre_point()
        return _place(mask.offsets(), (cx + amount.dx, cy + amount.dy), mask.colour, ctx.dims)
    if kind is OperationKind.GRAVITY:
        return _gravity(mask, action.param("direction"), ctx)  # type: ignore[arg-type]
    if kind is OperationKind.GROW:
        return _grow(mask, action.param("direction"), ctx)  # type: ignore[arg-type]
    if kind is OperationKind.FILL:
        return _fill(mask, ctx)
    if kind is OperationKind.HOLLOW:
        return _hollow(mask, ctx)
    if kind is OperationKind.RESHAPE:
        shape: Shape = action.param("shape")  # type: ignore[assignment]
        return _place(shape.offsets, mask.centre_point(), mask.colour, ctx.dims)
    if kind is OperationKind.GENERATE:
        gen_colour: Colour = action.param("colour")  # type: ignore[assignment]
        gen_centre: Centre = action.param("centre")  # type: ignore[assignment]
        gen_shape: Shape = action.param("shape")  # type: ignore[assignment]
        return _place(gen_shape.offsets, (gen_centre.x, gen_centre.y), gen_colour.value, ctx.dims)
    raise ValueError(kind)  # pragma: no cover - exhaustive over the enum


def render(masks, dims: tuple[int, int]) -> Grid:
    """Paint masks onto a zeroed canvas in order; later masks win overlaps.

    Cells outside the canvas are clipped silently (rendering is forgiving
    where apply_action is strict, so partial results stay inspectable).
    """
    rows, cols = dims
    grid = np.zeros((rows, cols), dtype=np.int64)
    for m in masks:
        for r, c in sorted(m.cells):
            if 0 <= r < rows and 0 <= c < cols:
                grid[r, c] = m.colour
    return grid


def render_extract(mask: ObjectMask) -> Grid:
    """The object's bounding-box crop as its own grid."""
    r0, c0, r1, c1 = mask.bbox
    dims = (r1 - r0 + 1, c1 - c0 + 1)
    shifted = ObjectMask(mask.colour, frozenset(_shift_cells(mask.cells, -r0, -c0)), dims)
    return render([shifted], dims)


def own_value(mask: ObjectMask, slot: str) -> ParamValue:
    """The value a colour, centre or shape slot takes on ``mask`` itself."""
    if slot == "colour":
        return Colour(mask.colour)
    if slot == "centre":
        return Centre(*mask.centre_point())
    if slot == "shape":
        return Shape(mask.offsets())
    raise KeyError(slot)


def infer_actions(inp: ObjectMask, out: ObjectMask, allowed, ctx: SceneContext) -> set[Action]:
    """Every allowed action that maps ``inp`` exactly onto ``out``.

    Candidates are produced analytically per kind and then verified by
    running the executor, so the returned set satisfies
    ``apply_action(inp, a, ctx) == out`` by construction.
    """
    candidates: list[Action] = []
    for kind in allowed:
        if kind is OperationKind.IDENTITY or kind is OperationKind.EXTRACT:
            candidates.append(Action.make(kind))
        elif kind in (OperationKind.RECOLOUR, OperationKind.RECENTRE, OperationKind.RESHAPE, OperationKind.GENERATE):
            # Each parameter is the output object's own value for its slot.
            candidates.append(Action.make(kind, **{slot: own_value(out, slot) for slot in PARAM_SLOTS[kind]}))
        elif kind is OperationKind.MOVE:
            (ix, iy), (ox, oy) = inp.centre_point(), out.centre_point()
            candidates.append(Action.make(kind, amount=Amount(ox - ix, oy - iy)))
        elif kind in (OperationKind.GRAVITY, OperationKind.GROW):
            candidates.extend(Action.make(kind, direction=d) for d in Direction)
        elif kind in (OperationKind.FILL, OperationKind.HOLLOW):
            candidates.append(Action.make(kind))
    found: set[Action] = set()
    for action in candidates:
        try:
            if apply_action(inp, action, ctx) == out:
                found.add(action)
        except ActionError:
            continue
    return found


# ---------------------------------------------------------------- JSON forms


def param_value_to_json(value: ParamValue):
    if isinstance(value, Colour):
        return {"type": "colour", "value": value.value}
    if isinstance(value, Centre):
        return {"type": "centre", "value": [value.x, value.y]}
    if isinstance(value, Amount):
        return {"type": "amount", "value": [value.dx, value.dy]}
    if isinstance(value, Direction):
        return {"type": "direction", "value": value.value}
    if isinstance(value, Shape):
        return {"type": "shape", "value": sorted(list(o) for o in value.offsets)}
    raise TypeError(type(value))


def param_value_from_json(data) -> ParamValue:
    tag = data["type"]
    raw = data["value"]
    if tag == "colour":
        return Colour(int(raw))
    if tag == "centre":
        return Centre(float(raw[0]), float(raw[1]))
    if tag == "amount":
        return Amount(float(raw[0]), float(raw[1]))
    if tag == "direction":
        return Direction(raw)
    if tag == "shape":
        return Shape(frozenset((float(dr), float(dc)) for dr, dc in raw))
    raise ValueError(f"unknown parameter tag {tag!r}")
