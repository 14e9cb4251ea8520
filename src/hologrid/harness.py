"""Dataset plumbing and evaluation.

Loads grid-puzzle corpora from the common JSON layout, generates the
synthetic moving-objects benchmark, scores the solver over a corpus,
renders Markdown reports, and exports similarity heatmaps for
inspecting learned object vectors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import abduction, deduction, induction, ssp, vsa
from . import perception as pc
from .dsl import Direction
from .perception import Grid


class TaskLoadError(ValueError):
    """Raised when a task file cannot be parsed or validated."""


@dataclass
class TaskRecord:
    """One puzzle: training pairs plus query inputs (outputs optional)."""

    id: str
    train: list[tuple[Grid, Grid]]
    test: list[tuple[Grid, Optional[Grid]]]
    subsplit: Optional[str] = None


# ---------------------------------------------------------------------------
# JSON ingestion


def _record_from_doc(doc, task_id: str, source: str) -> TaskRecord:
    if not isinstance(doc, dict) or "train" not in doc or "test" not in doc:
        raise TaskLoadError(f"{source}: expected an object with 'train' and 'test' arrays")

    def read_pairs(section: str, output_required: bool):
        entries = doc[section]
        if not isinstance(entries, list):
            raise TaskLoadError(f"{source}: '{section}' must be an array of input/output pairs")
        pairs = []
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict) or "input" not in entry:
                raise TaskLoadError(f"{source}: {section}[{k}] needs an 'input' grid")
            if output_required and entry.get("output") is None:
                raise TaskLoadError(f"{source}: {section}[{k}] needs an 'output' grid")
            try:
                grid_in = pc.as_grid(entry["input"])
                grid_out = None
                if entry.get("output") is not None:
                    grid_out = pc.as_grid(entry["output"])
            except pc.GridError as exc:
                raise TaskLoadError(f"{source}: {section}[{k}]: {exc}") from None
            pairs.append((grid_in, grid_out))
        return pairs

    train = read_pairs("train", output_required=True)
    if not train:
        raise TaskLoadError(f"{source}: 'train' may not be empty")
    test = read_pairs("test", output_required=False)
    return TaskRecord(id=task_id, train=train, test=test)


def load_arc_json(path) -> list[TaskRecord]:
    """Parse one task file.

    Accepts either a single task object (``{"train": [...], "test": [...]}``,
    id taken from the filename stem) or a bundle mapping task ids to task
    objects. Bundle records come back sorted by id.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TaskLoadError(f"{path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TaskLoadError(f"{path}: malformed JSON: {exc}") from None
    if isinstance(doc, dict) and "train" in doc and "test" in doc:
        return [_record_from_doc(doc, path.stem, str(path))]
    if isinstance(doc, dict) and doc and all(isinstance(v, dict) for v in doc.values()):
        return [_record_from_doc(doc[tid], str(tid), f"{path}[{tid}]") for tid in sorted(doc)]
    raise TaskLoadError(f"{path}: unrecognized task file layout")


def load_arc_directory(root) -> list[TaskRecord]:
    """Load every ``*.json`` under ``root``.

    Files in a subdirectory inherit that directory's name as their
    subsplit, which is how per-category corpora are grouped in reports.
    """
    root = Path(root)
    if not root.is_dir():
        raise TaskLoadError(f"{root}: not a directory")
    records: list[TaskRecord] = []
    for path in sorted(root.rglob("*.json")):
        subsplit = path.parent.name if path.parent != root else None
        for record in load_arc_json(path):
            record.subsplit = subsplit
            records.append(record)
    if not records:
        raise TaskLoadError(f"{root}: no .json task files found")
    records.sort(key=lambda r: (r.subsplit or "", r.id))
    return records


def task_to_json(record: TaskRecord) -> dict:
    def pair(grid_in, grid_out):
        entry = {"input": np.asarray(grid_in).tolist()}
        if grid_out is not None:
            entry["output"] = np.asarray(grid_out).tolist()
        return entry

    return {
        "train": [pair(i, o) for i, o in record.train],
        "test": [pair(i, o) for i, o in record.test],
    }


def write_task(record: TaskRecord, path) -> None:
    Path(path).write_text(json.dumps(task_to_json(record)) + "\n", encoding="utf-8")


def predictions_to_json(record: TaskRecord, predictions) -> dict:
    return {
        "id": record.id,
        "predictions": [None if p.grid is None else p.grid.tolist() for p in predictions],
        "traces": [list(p.trace) for p in predictions],
    }


# ---------------------------------------------------------------------------
# Synthetic moving-objects benchmark

GRID_SIDE = 20
OBJECTS_PER_GRID = 3
DEMOS_PER_TASK = 5


@cache
def stencil_shapes() -> tuple[frozenset[tuple[int, int]], ...]:
    """Every 4-connected binary pattern of 3..9 cells drawn on a 3x3 stencil.

    Patterns are kept in their drawn stencil position (translates count
    separately), so uniform sampling over this tuple weights a shape by
    the number of placements it has inside the stencil. Built on first
    call and kept for the process: segmenting all 511 stencil fillings
    takes longer than generating a sort-of-arc task from them.
    """
    masks = []
    for bits in range(1, 512):
        grid = np.array([bits >> i & 1 for i in range(9)], dtype=np.int64).reshape(3, 3)
        parts = pc.segment(grid, pc.ObjectHypothesis.FOUR_CONNECTED)
        if len(parts) == 1 and len(parts[0].cells) >= 3:
            masks.append(parts[0].cells)
    return tuple(masks)


def canonical_shape(cells) -> frozenset[tuple[int, int]]:
    """Cells shifted so the bounding box starts at the origin."""
    r0 = min(r for r, _ in cells)
    c0 = min(c for _, c in cells)
    return frozenset((r - r0, c - c0) for r, c in cells)


def _separated(a, b) -> bool:
    # Chebyshev distance >= 2 between every cell pair keeps the two
    # objects apart even under 8-connected segmentation.
    return all(max(abs(r1 - r2), abs(c1 - c2)) > 1 for r1, c1 in a for r2, c2 in b)


def _layout_ok(cell_sets) -> bool:
    for i in range(len(cell_sets)):
        for j in range(i + 1, len(cell_sets)):
            if not _separated(cell_sets[i], cell_sets[j]):
                return False
    return True


def _place_objects(rng, shapes, moves):
    """Rejection-sample corners until input and output layouts are valid."""
    extents = [(max(r for r, _ in s) + 1, max(c for _, c in s) + 1) for s in shapes]
    while True:
        cells_in, cells_out = [], []
        feasible = True
        for (h, w), shape, move in zip(extents, shapes, moves):
            r0 = int(rng.integers(0, GRID_SIDE - h + 1))
            c0 = int(rng.integers(0, GRID_SIDE - w + 1))
            placed = {(r0 + r, c0 + c) for r, c in shape}
            cells_in.append(placed)
            if move is None:
                cells_out.append(placed)
                continue
            dr, dc = move
            shifted = {(r + dr, c + dc) for r, c in placed}
            if any(not (0 <= r < GRID_SIDE and 0 <= c < GRID_SIDE) for r, c in shifted):
                feasible = False
                break
            cells_out.append(shifted)
        if feasible and _layout_ok(cells_in) and _layout_ok(cells_out):
            return cells_in, cells_out


def _paint(cell_sets, colours) -> Grid:
    grid = np.zeros((GRID_SIDE, GRID_SIDE), dtype=np.int64)
    for cells, colour in zip(cell_sets, colours):
        for r, c in cells:
            grid[r, c] = colour
    return grid


def _sample_pair(rng, masks, condition: str, cond_value, direction: Direction):
    """One input/output grid pair. Object 0 matches the condition and moves."""
    step = direction.step
    if condition == "colour":
        others = rng.choice([c for c in range(1, 10) if c != cond_value], size=2, replace=False)
        colours = [cond_value, int(others[0]), int(others[1])]
        shapes = [canonical_shape(masks[int(rng.integers(len(masks)))]) for _ in range(3)]
    else:
        colours = [int(c) for c in rng.choice(np.arange(1, 10), size=3, replace=False)]
        shapes = [cond_value]
        while len(shapes) < 3:
            candidate = canonical_shape(masks[int(rng.integers(len(masks)))])
            if all(candidate != s for s in shapes):
                shapes.append(candidate)
    moves = [step, None, None]
    cells_in, cells_out = _place_objects(rng, shapes, moves)
    return _paint(cells_in, colours), _paint(cells_out, colours)


def generate_sort_of_arc(count: int, seed: int) -> list[TaskRecord]:
    """Seeded benchmark tasks: move every condition-matching object one pixel.

    The first ``(count + 1) // 2`` tasks condition on colour, the rest on
    shape. Every grid holds three well-separated objects with pairwise
    distinct colours; in shape tasks the three shapes are distinct too, so
    exactly one object matches the condition.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    masks = stencil_shapes()
    colour_total = (count + 1) // 2
    records = []
    for t in range(count):
        condition = "colour" if t < colour_total else "shape"
        # Drawn by index: the task stream depends on the enum order up, down, left, right.
        direction = list(Direction)[int(rng.integers(len(Direction)))]
        if condition == "colour":
            cond_value = int(rng.integers(1, 10))
        else:
            cond_value = canonical_shape(masks[int(rng.integers(len(masks)))])
        pairs = [
            _sample_pair(rng, masks, condition, cond_value, direction)
            for _ in range(DEMOS_PER_TASK + 1)
        ]
        index = t if condition == "colour" else t - colour_total
        records.append(
            TaskRecord(
                id=f"sort-of-arc-{condition}-{index:04d}",
                train=pairs[:DEMOS_PER_TASK],
                test=pairs[DEMOS_PER_TASK:],
                subsplit=condition,
            )
        )
    return records


def _masks8(grid: Grid):
    return pc.segment(grid, pc.ObjectHypothesis.EIGHT_CONNECTED)


def _pair_motion(grid_in: Grid, grid_out: Grid, step):
    """Split input objects into (kept, moved) under one cardinal step.

    Returns None when the pair is not explained by that step.
    """
    dr, dc = step
    ins = _masks8(grid_in)
    outs = {(m.colour, m.cells) for m in _masks8(grid_out)}
    kept, moved, images = [], [], set()
    for m in ins:
        shifted = frozenset((r + dr, c + dc) for r, c in m.cells)
        if (m.colour, m.cells) in outs:
            kept.append(m)
            images.add((m.colour, m.cells))
        elif (m.colour, shifted) in outs:
            moved.append(m)
            images.add((m.colour, shifted))
        else:
            return None
    if images != outs or not moved:
        return None
    return kept, moved


def validate_sort_of_arc(record: TaskRecord) -> list[str]:
    """Independent structural check of one generated task.

    Verifies grid size, object count, separation, a single cardinal
    direction across all pairs, and that the moved set equals the set of
    objects sharing one colour or one shape. Returns human-readable
    problems; an empty list means the task is valid.
    """
    problems: list[str] = []
    if len(record.train) != DEMOS_PER_TASK:
        problems.append(f"expected {DEMOS_PER_TASK} demonstrations, got {len(record.train)}")
    if len(record.test) != 1 or record.test[0][1] is None:
        problems.append("expected exactly one query with a stored solution")
    pairs = [(i, o) for i, o in record.train] + [(i, o) for i, o in record.test if o is not None]

    for k, (grid_in, grid_out) in enumerate(pairs):
        for label, grid in (("input", grid_in), ("output", grid_out)):
            if grid.shape != (GRID_SIDE, GRID_SIDE):
                problems.append(f"pair {k} {label}: grid is {grid.shape}, not {GRID_SIDE}x{GRID_SIDE}")
                continue
            masks = _masks8(grid)
            if len(masks) != OBJECTS_PER_GRID:
                problems.append(f"pair {k} {label}: {len(masks)} objects, expected {OBJECTS_PER_GRID}")
            if not _layout_ok([m.cells for m in masks]):
                problems.append(f"pair {k} {label}: objects are not pairwise separated")
    if problems:
        return problems

    motions = None
    for direction in Direction:
        candidate = [_pair_motion(i, o, direction.step) for i, o in pairs]
        if all(m is not None for m in candidate):
            motions = candidate
            break
    if motions is None:
        return ["no single cardinal one-pixel move explains every pair"]

    def matches_everywhere(selector) -> bool:
        for (kept, moved), (grid_in, _) in zip(motions, pairs):
            matching = {m.cells for m in _masks8(grid_in) if selector(m)}
            if matching != {m.cells for m in moved}:
                return False
        return True

    colour_ok = any(
        matches_everywhere(lambda m, k=k: m.colour == k) for k in range(1, 10)
    )
    shape_values = {canonical_shape(m.cells) for kept, moved in motions for m in moved}
    shape_ok = any(
        matches_everywhere(lambda m, s=s: canonical_shape(m.cells) == s) for s in shape_values
    )
    if not (colour_ok or shape_ok):
        problems.append("moved objects are not selected by a shared colour or shape")
    return problems


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class EvalConfig:
    dimension: int = vsa.DEFAULT_DIMENSION
    seed: int = vsa.DEFAULT_SEED
    workers: int = 1
    split: Optional[str] = None
    trace: bool = False


@dataclass
class TaskVerdict:
    """Per-task scoring row: replay flags for demos, match flags for queries."""

    task_id: str
    subsplit: Optional[str]
    demo_flags: list[bool]
    query_flags: list[Optional[bool]]
    ok: bool
    reason: Optional[str]
    trace: list[str] = field(default_factory=list)
    fit: bool = False


@dataclass
class SplitMetrics:
    tasks: int
    demo_accuracy: Optional[float]
    demo_task_accuracy: Optional[float]
    query_accuracy: Optional[float]
    query_task_accuracy: Optional[float]


def summarize(verdicts) -> SplitMetrics:
    """The four corpus metrics.

    Accuracy counts individual demonstrations or queries; task accuracy
    counts tasks whose every scored item is correct. Queries without a
    stored solution are left out of both denominators.
    """
    demo_total = sum(len(v.demo_flags) for v in verdicts)
    demo_hit = sum(sum(v.demo_flags) for v in verdicts)
    demo_tasks = [v for v in verdicts if v.demo_flags]
    scored = [[f for f in v.query_flags if f is not None] for v in verdicts]
    query_total = sum(len(s) for s in scored)
    query_hit = sum(sum(s) for s in scored)
    query_tasks = [s for s in scored if s]

    def pct(num, den):
        return None if den == 0 else 100.0 * num / den

    return SplitMetrics(
        tasks=len(list(verdicts)),
        demo_accuracy=pct(demo_hit, demo_total),
        demo_task_accuracy=pct(sum(1 for v in demo_tasks if all(v.demo_flags)), len(demo_tasks)),
        query_accuracy=pct(query_hit, query_total),
        query_task_accuracy=pct(sum(1 for s in query_tasks if all(s)), len(query_tasks)),
    )


@dataclass
class EvalReport:
    verdicts: list[TaskVerdict]
    fingerprint: list[tuple[str, str]]
    include_trace: bool = False

    def subsplits(self) -> list[str]:
        return sorted({v.subsplit for v in self.verdicts if v.subsplit is not None})

    def metrics(self, subsplit: Optional[str] = None) -> SplitMetrics:
        rows = self.verdicts if subsplit is None else [v for v in self.verdicts if v.subsplit == subsplit]
        return summarize(rows)


# Worker-local solver state; one encoder per process, built by the pool
# initializer so task payloads stay small.
_WORKER: dict = {}


def _worker_init(dimension: int, seed: int) -> None:
    config = vsa.VsaConfig(dimension=dimension, seed=seed)
    _WORKER["encoder"] = ssp.SspEncoder(config)
    _WORKER["palette"] = pc.build_palette(config)


def _solve_record(record: TaskRecord, encoder, palette) -> TaskVerdict:
    predictions, diag = deduction.solve_task(record, encoder, palette)
    demo_flags = [bool(f) for f in diag.demo_replays] if diag.ok else [False] * len(record.train)
    query_flags: list[Optional[bool]] = []
    for (_, query_out), prediction in zip(record.test, predictions):
        if query_out is None:
            query_flags.append(None)
        elif prediction.grid is None:
            query_flags.append(False)
        else:
            query_flags.append(pc.grid_equal(prediction.grid, pc.as_grid(query_out)))
    trace = list(diag.trace)
    for prediction in predictions:
        trace.extend(f"query {prediction.query_index}: {line}" for line in prediction.trace)
    return TaskVerdict(
        task_id=record.id,
        subsplit=record.subsplit,
        demo_flags=demo_flags,
        query_flags=query_flags,
        ok=diag.ok,
        reason=diag.reason,
        trace=trace,
        fit=diag.training_fit,
    )


def _worker_solve(record: TaskRecord) -> TaskVerdict:
    return _solve_record(record, _WORKER["encoder"], _WORKER["palette"])


def _fingerprint(config: EvalConfig) -> list[tuple[str, str]]:
    # Worker count is deliberately absent: parallelism may never change
    # report bytes, so it cannot appear in them either.
    return [
        ("dimension", str(config.dimension)),
        ("seed", str(config.seed)),
        ("operation cost", str(abduction.OP_COST)),
        ("parameter cost", str(abduction.PARAM_COST)),
        ("learning rate", repr(induction.LEARNING_RATE)),
        ("max epochs", str(induction.MAX_EPOCHS)),
        ("loss floor", repr(induction.LOSS_FLOOR)),
        ("initial steepness", repr(induction.INITIAL_STEEPNESS)),
        ("decode floor", repr(induction.DECODE_FLOOR)),
        ("same-object similarity", repr(abduction.TAU_SAME)),
        ("fire threshold", repr(induction.FIRE_THRESHOLD)),
        ("node budget", str(abduction.NODE_BUDGET)),
        ("centre blur sigma", repr(pc.BLUR_SIGMA)),
        ("novel generate share", repr(abduction.NOVEL_GENERATE_SHARE)),
        ("split", config.split if config.split is not None else "all"),
        ("trace", "on" if config.trace else "off"),
    ]


def evaluate(tasks, config: EvalConfig) -> EvalReport:
    """Solve every task and assemble the report.

    Failures become unsolved verdict rows, never exceptions. With more
    than one worker and more than one task, tasks fan out over a process
    pool of at most one worker per task (the pool starts every worker up
    front); rows are reduced in task-id order, so worker count never
    changes the report.
    """
    chosen = [t for t in tasks if config.split is None or t.subsplit == config.split]
    if not chosen:
        raise ValueError(
            f"no tasks to evaluate" + (f" in split {config.split!r}" if config.split else "")
        )
    workers = min(config.workers, len(chosen))
    if workers <= 1:
        _worker_init(config.dimension, config.seed)
        verdicts = [_worker_solve(t) for t in chosen]
    else:
        # Imported here: a one-worker run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(config.dimension, config.seed),
        ) as pool:
            verdicts = list(pool.map(_worker_solve, chosen))
    verdicts.sort(key=lambda v: (v.subsplit or "", v.task_id))
    return EvalReport(verdicts=verdicts, fingerprint=_fingerprint(config), include_trace=config.trace)


def _fmt_pct(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.1f}"


def render_markdown(report: EvalReport) -> str:
    """Deterministic Markdown report: config, aggregate table, per-task rows."""
    lines = ["# Evaluation report", "", "## Configuration", ""]
    lines.extend(f"- {key}: {value}" for key, value in report.fingerprint)
    lines += [
        "",
        "## Results",
        "",
        "| Benchmark Split | Demonstrations Acc. (%) | Demonstrations Task Acc. (%) | Queries Acc. (%) | Queries Task Acc. (%) |",
        "|---|---|---|---|---|",
    ]
    rows = [("All", report.metrics())]
    rows.extend((name, report.metrics(name)) for name in report.subsplits())
    for name, m in rows:
        lines.append(
            f"| {name} (n={m.tasks}) | {_fmt_pct(m.demo_accuracy)} | {_fmt_pct(m.demo_task_accuracy)}"
            f" | {_fmt_pct(m.query_accuracy)} | {_fmt_pct(m.query_task_accuracy)} |"
        )
    lines += [
        "",
        "## Tasks",
        "",
        "| Task | Subsplit | Demonstrations | Queries | Status |",
        "|---|---|---|---|---|",
    ]
    for v in report.verdicts:
        demos = f"{sum(v.demo_flags)}/{len(v.demo_flags)}" if v.demo_flags else "n/a"
        scored = [f for f in v.query_flags if f is not None]
        queries = f"{sum(scored)}/{len(scored)}" if scored else "n/a"
        status = "ok" if v.ok else (v.reason or "failed")
        lines.append(f"| {v.task_id} | {v.subsplit or 'n/a'} | {demos} | {queries} | {status} |")
    if report.include_trace:
        lines += ["", "## Traces"]
        for v in report.verdicts:
            lines += ["", f"### {v.task_id}", "", "```"]
            lines.extend(v.trace)
            lines.append("```")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Heatmap export


def export_heatmaps(record: TaskRecord, object_index: int, out_dir, encoder, palette) -> list[Path]:
    """Write the three similarity panels for one object.

    The object comes from the first demonstration input segmented with
    the 8-connected hypothesis. Panels: colour similarities against the
    palette, centre similarities over the grid lattice, and shape
    similarities over a [-5, 5] square at half-pixel resolution.
    """
    grid = record.train[0][0]
    scene = pc.perceive(grid, pc.ObjectHypothesis.EIGHT_CONNECTED, encoder, palette)
    if not 0 <= object_index < len(scene.objects):
        raise ValueError(
            f"object index {object_index} out of range, scene has {len(scene.objects)} objects"
        )
    obj = scene.objects[object_index]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows, cols = grid.shape
    half_x = (cols - 1) / 2.0
    half_y = (rows - 1) / 2.0
    colours = ((c, vsa.similarity(obj.colour_vec, palette[c])) for c in range(pc.NUM_COLOURS))
    paths = [_write_csv(out / "colour.csv", "colour,value", colours)]
    maps = [
        ("centre.csv", obj.centre_vec, ((-half_x, half_x), (-half_y, half_y)), 1.0),
        ("shape.csv", obj.shape_vec, ((-5.0, 5.0), (-5.0, 5.0)), 0.5),
    ]
    for name, vec, region, step in maps:
        xs, ys, values = ssp.similarity_map(encoder, vec, region, step)
        points = ((x, y, values[i, j]) for i, x in enumerate(xs) for j, y in enumerate(ys))
        paths.append(_write_csv(out / name, "x,y,value", points))
    return paths


def _write_csv(path: Path, header: str, rows) -> Path:
    """Header, then one line per row, every number to nine significant digits.

    Map rows come x-slowest, so exports are byte-reproducible.
    """
    lines = [header, *(",".join(f"{x:.9g}" for x in row) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
