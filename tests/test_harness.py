"""Tests for corpus loading, benchmark generation, evaluation, and reports."""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from hologrid import abduction as ab
from hologrid import deduction as de
from hologrid import induction as ind
from hologrid import harness as hn
from hologrid import perception as pc
from hologrid import ssp, vsa

CFG = vsa.VsaConfig(dimension=512, seed=33)
ENC = ssp.SspEncoder(CFG)
PALETTE = pc.build_palette(CFG)

MINIMAL = {"train": [{"input": [[0]], "output": [[0]]}], "test": [{"input": [[0]], "output": [[0]]}]}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Loading


def test_load_single_task_file(tmp_path):
    path = write_json(tmp_path / "tiny.json", MINIMAL)
    records = hn.load_arc_json(path)
    assert len(records) == 1
    record = records[0]
    assert record.id == "tiny"
    assert len(record.train) == 1 and len(record.test) == 1
    assert record.train[0][0].shape == (1, 1)
    assert record.subsplit is None


def test_load_names_the_offending_cell(tmp_path):
    doc = {
        "train": [{"input": [[0, 10], [0, 0]], "output": [[0]]}],
        "test": [{"input": [[0]]}],
    }
    path = write_json(tmp_path / "bad.json", doc)
    with pytest.raises(hn.TaskLoadError) as err:
        hn.load_arc_json(path)
    message = str(err.value)
    assert "bad.json" in message
    assert "10" in message and "row 0" in message and "column 1" in message


def test_load_rejects_ragged_rows(tmp_path):
    doc = {"train": [{"input": [[0, 1], [2]], "output": [[0]]}], "test": [{"input": [[0]]}]}
    path = write_json(tmp_path / "ragged.json", doc)
    with pytest.raises(hn.TaskLoadError):
        hn.load_arc_json(path)


@pytest.mark.parametrize("cell", ["1.5", '"3"', "true", "1e300", str(2**70)])
def test_load_rejects_cells_that_are_not_colour_integers(tmp_path, cell):
    path = tmp_path / "cell.json"
    path.write_text('{"train": [{"input": [[0, %s]], "output": [[0]]}], "test": [{"input": [[0]]}]}' % cell)
    with pytest.raises(hn.TaskLoadError) as err:
        hn.load_arc_json(path)
    assert "cell.json" in str(err.value) and "row 0, column 1" in str(err.value)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(hn.TaskLoadError) as err:
        hn.load_arc_json(path)
    assert "malformed JSON" in str(err.value)


def test_load_requires_train_outputs(tmp_path):
    doc = {"train": [{"input": [[1]]}], "test": [{"input": [[1]]}]}
    path = write_json(tmp_path / "noout.json", doc)
    with pytest.raises(hn.TaskLoadError):
        hn.load_arc_json(path)


def test_load_allows_hidden_test_outputs(tmp_path):
    doc = {"train": [{"input": [[1]], "output": [[1]]}], "test": [{"input": [[1]]}]}
    path = write_json(tmp_path / "hidden.json", doc)
    record = hn.load_arc_json(path)[0]
    assert record.test[0][1] is None


def test_load_bundle_sorted_by_id(tmp_path):
    path = write_json(tmp_path / "bundle.json", {"zz": MINIMAL, "aa": MINIMAL})
    records = hn.load_arc_json(path)
    assert [r.id for r in records] == ["aa", "zz"]


def test_load_missing_file():
    with pytest.raises(hn.TaskLoadError):
        hn.load_arc_json("/nonexistent/task.json")


def test_load_directory_assigns_subsplits(tmp_path):
    (tmp_path / "move").mkdir()
    (tmp_path / "fill").mkdir()
    write_json(tmp_path / "move" / "b.json", MINIMAL)
    write_json(tmp_path / "move" / "a.json", MINIMAL)
    write_json(tmp_path / "fill" / "c.json", MINIMAL)
    write_json(tmp_path / "root.json", MINIMAL)
    records = hn.load_arc_directory(tmp_path)
    assert [(r.subsplit, r.id) for r in records] == [
        (None, "root"),
        ("fill", "c"),
        ("move", "a"),
        ("move", "b"),
    ]


def test_load_directory_rejects_empty(tmp_path):
    with pytest.raises(hn.TaskLoadError):
        hn.load_arc_directory(tmp_path)


@pytest.mark.skipif(
    not os.environ.get("ARC_AGI1_TRAIN_DIR"),
    reason="public training split not bundled; set ARC_AGI1_TRAIN_DIR to check its files",
)
def test_known_public_task_has_three_demos():
    root = Path(os.environ["ARC_AGI1_TRAIN_DIR"])
    matches = sorted(root.rglob("54d9e175.json"))
    assert matches, f"54d9e175.json not found under {root}"
    record = hn.load_arc_json(matches[0])[0]
    assert len(record.train) == 3


def test_task_round_trip_is_bit_exact(tmp_path):
    record = hn.generate_sort_of_arc(1, seed=5)[0]
    path = tmp_path / f"{record.id}.json"
    hn.write_task(record, path)
    loaded = hn.load_arc_json(path)[0]
    assert loaded.id == record.id
    for (a_in, a_out), (b_in, b_out) in zip(record.train, loaded.train):
        assert np.array_equal(a_in, b_in) and np.array_equal(a_out, b_out)
    for (a_in, a_out), (b_in, b_out) in zip(record.test, loaded.test):
        assert np.array_equal(a_in, b_in) and np.array_equal(a_out, b_out)


def test_prediction_round_trip_is_bit_exact(tmp_path):
    record = hn.load_arc_json(write_json(tmp_path / "t.json", MINIMAL))[0]
    grids = [np.array([[1, 2], [3, 4]], dtype=np.int64), None]
    predictions = [de.Prediction(0, grids[0], ["note"]), de.Prediction(1, None, ["unsolved: x"])]
    # The document `hologrid solve` writes, through JSON text and back.
    doc = json.loads(json.dumps(hn.predictions_to_json(record, predictions)))
    assert doc["id"] == "t"
    assert doc["traces"] == [["note"], ["unsolved: x"]]
    loaded = pc.as_grid(doc["predictions"][0])
    assert loaded.dtype == grids[0].dtype and np.array_equal(loaded, grids[0])
    assert doc["predictions"][1] is None


# ---------------------------------------------------------------------------
# Benchmark generation


def independently_connected(cells) -> bool:
    # Grow a region from an arbitrary seed cell by repeated dilation; this
    # avoids sharing the generator's BFS implementation.
    region = {next(iter(cells))}
    while True:
        grown = set(region)
        for r, c in region:
            grown.update({(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)} & cells)
        if grown == region:
            return len(region) == len(cells)
        region = grown


def test_stencil_shapes_properties():
    masks = hn.stencil_shapes()
    assert masks is hn.stencil_shapes()
    assert len(masks) == len(set(masks))
    # Pinned count documents the sampling law over drawn stencil patterns;
    # the digest pins their order, which seeded generators index into.
    assert len(masks) == 197
    digest = hashlib.sha256(repr([sorted(cells) for cells in masks]).encode()).hexdigest()
    assert digest == "af0ca150ddaf544a7879c6272caa63dbf6fed777d80aac35f8878307e39a4a71"
    for cells in masks:
        assert 3 <= len(cells) <= 9
        assert all(0 <= r < 3 and 0 <= c < 3 for r, c in cells)
        assert independently_connected(cells)
    full_square = frozenset((r, c) for r in range(3) for c in range(3))
    corner_l = frozenset({(0, 0), (1, 0), (1, 1)})
    assert full_square in masks and corner_l in masks


def test_canonical_shape_removes_translation():
    a = frozenset({(1, 1), (1, 2), (2, 1)})
    b = frozenset({(0, 0), (0, 1), (1, 0)})
    assert hn.canonical_shape(a) == hn.canonical_shape(b) == b


def test_generator_is_deterministic():
    blob_a = json.dumps([hn.task_to_json(r) for r in hn.generate_sort_of_arc(4, seed=7)])
    blob_b = json.dumps([hn.task_to_json(r) for r in hn.generate_sort_of_arc(4, seed=7)])
    assert blob_a == blob_b
    blob_c = json.dumps([hn.task_to_json(r) for r in hn.generate_sort_of_arc(4, seed=8)])
    assert blob_a != blob_c


def test_generator_stream_is_pinned():
    # Directions are drawn by index from dsl.Direction, and seeded corpora
    # built on this stream must not move when the generator is refactored.
    text = json.dumps([hn.task_to_json(r) for r in hn.generate_sort_of_arc(4, seed=0)], sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "1bf751e616e20e6d78220c0b437ed409f0958b2ca96b32d1119758127e5b241c"


def test_generator_layout_and_ids():
    records = hn.generate_sort_of_arc(5, seed=11)
    assert [r.subsplit for r in records] == ["colour"] * 3 + ["shape"] * 2
    assert records[0].id == "sort-of-arc-colour-0000"
    assert records[3].id == "sort-of-arc-shape-0000"
    for record in records:
        assert len(record.train) == 5
        assert len(record.test) == 1 and record.test[0][1] is not None


def test_generated_grids_hold_three_separated_objects():
    # Perception acts as the self-check oracle here.
    for record in hn.generate_sort_of_arc(4, seed=3):
        for grid_in, grid_out in list(record.train) + list(record.test):
            for grid in (grid_in, grid_out):
                assert grid.shape == (20, 20)
                masks = pc.segment(grid, pc.ObjectHypothesis.EIGHT_CONNECTED)
                assert len(masks) == 3
                assert len({m.colour for m in masks}) == 3


def test_generated_batch_passes_independent_validator():
    for record in hn.generate_sort_of_arc(12, seed=21):
        assert hn.validate_sort_of_arc(record) == []


def test_validator_catches_tampering():
    record = hn.generate_sort_of_arc(1, seed=2)[0]
    grid_in, grid_out = record.train[0]
    tampered = grid_out.copy()
    cells = np.argwhere(tampered > 0)
    r, c = cells[0]
    tampered[r, c] = 0 if tampered[r, c] != 0 else 1
    record.train[0] = (grid_in, tampered)
    assert hn.validate_sort_of_arc(record) != []


# ---------------------------------------------------------------------------
# Metrics


def recount(verdicts):
    """Direct recount oracle for the four metrics, written longhand."""
    demo_n = demo_y = 0
    for v in verdicts:
        for f in v.demo_flags:
            demo_n += 1
            demo_y += 1 if f else 0
    demo_task_n = demo_task_y = 0
    for v in verdicts:
        if len(v.demo_flags) == 0:
            continue
        demo_task_n += 1
        if sum(1 for f in v.demo_flags if not f) == 0:
            demo_task_y += 1
    q_n = q_y = q_task_n = q_task_y = 0
    for v in verdicts:
        scored = [f for f in v.query_flags if f is not None]
        q_n += len(scored)
        q_y += sum(1 for f in scored if f)
        if scored:
            q_task_n += 1
            if all(scored):
                q_task_y += 1

    def rate(y, n):
        return None if n == 0 else 100.0 * y / n

    return (rate(demo_y, demo_n), rate(demo_task_y, demo_task_n), rate(q_y, q_n), rate(q_task_y, q_task_n))


def random_verdicts(rng, n):
    verdicts = []
    for i in range(n):
        demos = [bool(rng.integers(2)) for _ in range(int(rng.integers(1, 6)))]
        queries = []
        for _ in range(int(rng.integers(1, 4))):
            roll = int(rng.integers(3))
            queries.append(None if roll == 2 else bool(roll))
        verdicts.append(
            hn.TaskVerdict(f"task-{i:03d}", None, demos, queries, ok=True, reason=None)
        )
    return verdicts


def test_metrics_match_recount_oracle():
    rng = np.random.default_rng(99)
    for trial in range(25):
        verdicts = random_verdicts(rng, int(rng.integers(1, 12)))
        m = hn.summarize(verdicts)
        expected = recount(verdicts)
        got = (m.demo_accuracy, m.demo_task_accuracy, m.query_accuracy, m.query_task_accuracy)
        for a, b in zip(got, expected):
            if b is None:
                assert a is None
            else:
                assert a == pytest.approx(b)


def test_task_accuracy_bounded_for_uniform_item_counts():
    # With unequal per-task item counts the inequality can flip (one task
    # at 1/1 plus one at 0/9 gives 10% accuracy but 50% task accuracy),
    # so it is only asserted for corpora with uniform counts.
    rng = np.random.default_rng(5)
    for trial in range(25):
        demos = int(rng.integers(1, 5))
        queries = int(rng.integers(1, 4))
        verdicts = [
            hn.TaskVerdict(
                f"task-{i}",
                None,
                [bool(rng.integers(2)) for _ in range(demos)],
                [bool(rng.integers(2)) for _ in range(queries)],
                ok=True,
                reason=None,
            )
            for i in range(8)
        ]
        m = hn.summarize(verdicts)
        assert m.query_task_accuracy <= m.query_accuracy + 1e-9
        assert m.demo_task_accuracy <= m.demo_accuracy + 1e-9


def test_metrics_empty_denominators_are_none():
    verdict = hn.TaskVerdict("t", None, [], [None], ok=False, reason="x")
    m = hn.summarize([verdict])
    assert m.demo_accuracy is None and m.query_accuracy is None
    assert m.demo_task_accuracy is None and m.query_task_accuracy is None


# ---------------------------------------------------------------------------
# Evaluation and reports


def copy_task(task_id, colour, subsplit=None):
    base = np.zeros((4, 4), dtype=np.int64)
    base[1, 1] = colour
    shifted = np.zeros((4, 4), dtype=np.int64)
    shifted[2, 2] = colour
    return hn.TaskRecord(
        id=task_id,
        train=[(base, base), (shifted, shifted)],
        test=[(base, base)],
        subsplit=subsplit,
    )


def test_evaluate_pure_copy_corpus_is_perfect():
    tasks = [copy_task("copy-a", 3, "left"), copy_task("copy-b", 5, "right"), copy_task("copy-c", 7, "left")]
    report = hn.evaluate(tasks, hn.EvalConfig(dimension=512, seed=33))
    m = report.metrics()
    assert m.tasks == 3
    assert m.demo_accuracy == 100.0 and m.demo_task_accuracy == 100.0
    assert m.query_accuracy == 100.0 and m.query_task_accuracy == 100.0
    assert report.subsplits() == ["left", "right"]
    assert report.metrics("left").tasks == 2


def test_evaluate_split_filter():
    tasks = [copy_task("copy-a", 3, "left"), copy_task("copy-b", 5, "right")]
    report = hn.evaluate(tasks, hn.EvalConfig(dimension=512, seed=33, split="right"))
    assert [v.task_id for v in report.verdicts] == ["copy-b"]
    with pytest.raises(ValueError):
        hn.evaluate(tasks, hn.EvalConfig(dimension=512, seed=33, split="nope"))


def test_evaluate_worker_count_never_changes_report_bytes():
    tasks = [copy_task("copy-a", 3), copy_task("copy-b", 5), copy_task("copy-c", 7)]
    serial = hn.evaluate(tasks, hn.EvalConfig(dimension=512, seed=33, workers=1))
    pooled = hn.evaluate(list(reversed(tasks)), hn.EvalConfig(dimension=512, seed=33, workers=2))
    assert hn.render_markdown(serial) == hn.render_markdown(pooled)


class RecordingPool:
    """A stand-in for ``ProcessPoolExecutor`` that records its size and solves in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        RecordingPool.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("tasks,workers,sizes", [(1, 8, []), (3, 8, [3]), (3, 2, [2]), (2, 1, [])])
def test_evaluate_starts_no_more_workers_than_tasks(monkeypatch, tasks, workers, sizes):
    import concurrent.futures

    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    chosen = [copy_task(f"copy-{k}", 3 + 2 * k) for k in range(tasks)]
    report = hn.evaluate(chosen, hn.EvalConfig(dimension=256, seed=33, workers=workers))
    assert RecordingPool.sizes == sizes
    assert [v.task_id for v in report.verdicts] == [t.id for t in chosen]


def test_evaluate_records_unsolvable_tasks():
    base = np.zeros((3, 3), dtype=np.int64)
    base[0, 0] = 2
    out_a = np.zeros((3, 3), dtype=np.int64)
    out_a[0, 0] = 4
    out_b = np.zeros((3, 3), dtype=np.int64)
    out_b[0, 0] = 6
    # Same input mapped to two different outputs: no consistent explanation.
    task = hn.TaskRecord("confused", [(base, out_a), (base, out_b)], [(base, out_a)])
    report = hn.evaluate([task], hn.EvalConfig(dimension=512, seed=33))
    verdict = report.verdicts[0]
    assert not verdict.ok and verdict.reason
    m = report.metrics()
    assert m.query_task_accuracy == 0.0 and m.demo_accuracy == 0.0
    text = hn.render_markdown(report)
    assert "confused" in text and verdict.reason in text


def test_report_layout_and_placeholders():
    verdicts = [
        hn.TaskVerdict("t-1", "colour", [True, True], [True], ok=True, reason=None),
        hn.TaskVerdict("t-2", "shape", [True, False], [None], ok=True, reason=None),
    ]
    report = hn.EvalReport(verdicts, fingerprint=[("dimension", "512"), ("seed", "33")])
    text = hn.render_markdown(report)
    assert "| Benchmark Split | Demonstrations Acc. (%) |" in text
    assert "| All (n=2) | 75.0 | 50.0 | 100.0 | 100.0 |" in text
    assert "| colour (n=1) |" in text and "| shape (n=1) |" in text
    assert "- dimension: 512" in text
    # the unscored query renders as a placeholder, not a number
    assert "| t-2 | shape | 1/2 | n/a | ok |" in text
    assert hn.render_markdown(report) == text


def test_report_trace_sections():
    verdicts = [hn.TaskVerdict("t-1", None, [True], [True], ok=True, reason=None, trace=["hello trace"])]
    report = hn.EvalReport(verdicts, fingerprint=[], include_trace=True)
    text = hn.render_markdown(report)
    assert "### t-1" in text and "hello trace" in text
    silent = hn.EvalReport(verdicts, fingerprint=[], include_trace=False)
    assert "hello trace" not in hn.render_markdown(silent)


def test_fingerprint_contents():
    pairs = dict(hn._fingerprint(hn.EvalConfig(dimension=256, seed=4, workers=8, split="s", trace=True)))
    assert pairs["dimension"] == "256" and pairs["seed"] == "4"
    assert pairs["operation cost"] == "10" and pairs["parameter cost"] == "1"
    assert pairs["split"] == "s" and pairs["trace"] == "on"
    assert "workers" not in pairs
    # Every constant that can change a verdict is in the report.
    assert pairs["learning rate"] == repr(ind.LEARNING_RATE) and pairs["max epochs"] == str(ind.MAX_EPOCHS)
    assert pairs["loss floor"] == repr(ind.LOSS_FLOOR) == "0.0001"
    assert pairs["initial steepness"] == repr(ind.INITIAL_STEEPNESS) == "5.0"
    assert pairs["decode floor"] == repr(ind.DECODE_FLOOR) == "0.3"
    assert pairs["same-object similarity"] == repr(ab.TAU_SAME) == "0.95"
    assert pairs["fire threshold"] == repr(ind.FIRE_THRESHOLD) == "0.5"
    assert pairs["node budget"] == str(ab.NODE_BUDGET) == "200000"
    assert pairs["centre blur sigma"] == repr(pc.BLUR_SIGMA) == "0.5"
    assert pairs["novel generate share"] == repr(ab.NOVEL_GENERATE_SHARE) == "0.5"


def test_readme_lists_every_fingerprint_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert [key for key, _ in hn._fingerprint(hn.EvalConfig()) if key not in readme] == []


# ---------------------------------------------------------------------------
# Heatmaps


def read_map_csv(path):
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,y,value"
    return [tuple(float(f) for f in line.split(",")) for line in rows[1:]]


def test_export_heatmaps_single_pixel(tmp_path):
    grid = np.zeros((5, 5), dtype=np.int64)
    grid[2, 1] = 4
    record = hn.TaskRecord("one-pixel", [(grid, grid)], [(grid, None)])
    paths = hn.export_heatmaps(record, 0, tmp_path / "maps", ENC, PALETTE)
    assert [p.name for p in paths] == ["colour.csv", "centre.csv", "shape.csv"]

    colour_rows = (tmp_path / "maps" / "colour.csv").read_text().strip().splitlines()
    assert colour_rows[0] == "colour,value"
    values = [float(line.split(",")[1]) for line in colour_rows[1:]]
    assert len(values) == 10
    assert values[4] > 0.9
    assert all(abs(v) < 0.3 for i, v in enumerate(values) if i != 4)

    centre = read_map_csv(tmp_path / "maps" / "centre.csv")
    best = max(centre, key=lambda row: row[2])
    # pixel (row 2, col 1) sits at x = -1, y = 0 in centred coordinates
    assert (best[0], best[1]) == (-1.0, 0.0)

    shape = read_map_csv(tmp_path / "maps" / "shape.csv")
    best = max(shape, key=lambda row: row[2])
    assert (best[0], best[1]) == (0.0, 0.0)


def test_export_heatmaps_square_shape_peaks(tmp_path):
    grid = np.zeros((6, 6), dtype=np.int64)
    grid[2:4, 3:5] = 6
    record = hn.TaskRecord("square", [(grid, grid)], [(grid, None)])
    hn.export_heatmaps(record, 0, tmp_path / "maps", ENC, PALETTE)
    shape = read_map_csv(tmp_path / "maps" / "shape.csv")
    by_point = {(x, y): v for x, y, v in shape}
    corners = [by_point[p] for p in ((-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5))]
    # The four cell offsets read back as near-equal values around one half
    # (four-term bundle, normalized). The exact argmax sits between them:
    # the cells are closer than the kernel width, so their lobes sum at
    # the centroid. The offsets still dominate everything off the object.
    assert all(0.35 < v < 0.65 for v in corners)
    assert max(corners) - min(corners) < 0.15
    far_field = max(v for (x, y), v in by_point.items() if max(abs(x), abs(y)) >= 2.0)
    assert far_field < min(corners)


def pin_grids():
    odd = np.zeros((5, 7), dtype=np.int64)
    odd[1, 2:5] = 3
    odd[3, 1] = 3
    odd[2:4, 5] = 3
    even = np.zeros((6, 8), dtype=np.int64)
    even[1:3, 1:3] = 6
    even[4, 6] = 2
    return odd, even


@pytest.mark.parametrize(
    "index,digests",
    [
        (
            0,
            [
                "e8b9fa47c2111ede8c69479dd105c3531c82e4b2e571b50a6bcc4b3f42160577",
                "233df8954b3f328bb81a656ae4046117c693ffb68e3896ae53cfeda01dcbefca",
                "563c8de88f8a99d4c2a70dcd98a45a54aca84d5df23401620c5e5682383812f6",
            ],
        ),
        (
            1,
            [
                "ff9ba882e47ea75043ddb6b4aa07cd0f724f3569ac595c0e43871f405a97fda5",
                "c0a0be5fdc088d838a2d4693346400529fdbb8a525e205901ea6721bd487771c",
                "eb3a0144cbfe583b747812223bd22eebec588d91ad8d62f7e5ed5e2150f52a2c",
            ],
        ),
    ],
)
def test_export_heatmaps_bytes_are_pinned(tmp_path, index, digests):
    # One odd-sided grid (integer centre lattice) and one even-sided grid
    # (half-integer centre lattice); every byte of all three panels is fixed.
    grid = pin_grids()[index]
    record = hn.TaskRecord("pinned", [(grid, grid)], [(grid, None)])
    paths = hn.export_heatmaps(record, 0, tmp_path / "maps", ENC, PALETTE)
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == digests


def test_export_heatmaps_csv_format(tmp_path):
    grid = np.zeros((3, 3), dtype=np.int64)
    grid[1, 1] = 5
    record = hn.TaskRecord("format", [(grid, grid)], [(grid, None)])
    first = hn.export_heatmaps(record, 0, tmp_path / "a", ENC, PALETTE)
    second = hn.export_heatmaps(record, 0, tmp_path / "b", ENC, PALETTE)
    text = first[1].read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 9
    # Row-major: x varies slowest, y fastest.
    assert lines[1].startswith("-1,-1,")
    assert lines[2].startswith("-1,0,")
    assert lines[4].startswith("0,-1,")
    # Values carry nine significant digits and the export is reproducible.
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    first_value = lines[1].split(",")[2]
    assert len(first_value.replace("-", "").replace(".", "").lstrip("0")) <= 9


def test_export_heatmaps_object_index_bounds(tmp_path):
    grid = np.zeros((4, 4), dtype=np.int64)
    grid[1, 1] = 2
    record = hn.TaskRecord("bounds", [(grid, grid)], [(grid, None)])
    with pytest.raises(ValueError):
        hn.export_heatmaps(record, 3, tmp_path / "maps", ENC, PALETTE)
