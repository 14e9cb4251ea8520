"""Tests for the command line front end."""
from __future__ import annotations

import json

import pytest

from hologrid import cli, induction as ind, vsa


def write_copy_task(path):
    grid = [[0, 0, 0], [0, 6, 0], [0, 0, 0]]
    doc = {
        "train": [
            {"input": grid, "output": grid},
            {"input": [[6, 0, 0], [0, 0, 0], [0, 0, 0]], "output": [[6, 0, 0], [0, 0, 0], [0, 0, 0]]},
        ],
        "test": [{"input": [[0, 0, 0], [0, 0, 6], [0, 0, 0]], "output": [[0, 0, 0], [0, 0, 6], [0, 0, 0]]}],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_solve_writes_predictions_and_program(tmp_path):
    task = write_copy_task(tmp_path / "copy.json")
    out = tmp_path / "preds.json"
    prog = tmp_path / "prog.json"
    rc = cli.main(
        ["--dimension", "512", "--seed", "33", "solve", str(task), "--output", str(out), "--program", str(prog)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["id"] == "copy"
    assert doc["predictions"][0] == [[0, 0, 0], [0, 0, 6], [0, 0, 0]]
    config = vsa.VsaConfig(dimension=512, seed=33)
    program = ind.program_from_json(json.loads(prog.read_text()), config)
    assert len(program.rules) >= 1


def test_solve_refuses_a_program_for_a_bundle_before_solving(tmp_path, capsys, monkeypatch):
    single = json.loads(write_copy_task(tmp_path / "copy.json").read_text())
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({"first": single, "second": single}), encoding="utf-8")
    prog = tmp_path / "prog.json"

    def must_not_solve(*args, **kwargs):
        raise AssertionError("solve_task called before the bundle was refused")

    monkeypatch.setattr(cli.deduction, "solve_task", must_not_solve)
    rc = cli.main(["--dimension", "256", "solve", str(bundle), "--program", str(prog)])
    assert rc == 1
    assert "exactly one task" in capsys.readouterr().err
    assert not prog.exists()


def test_inspect_refuses_a_bundle_before_exporting(tmp_path, capsys, monkeypatch):
    single = json.loads(write_copy_task(tmp_path / "copy.json").read_text())
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({"first": single, "second": single}), encoding="utf-8")
    maps = tmp_path / "maps"

    def must_not_export(*args, **kwargs):
        raise AssertionError("export_heatmaps called before the bundle was refused")

    monkeypatch.setattr(cli.harness, "export_heatmaps", must_not_export)
    rc = cli.main(["--dimension", "256", "inspect", str(bundle), "--heatmaps", str(maps)])
    assert rc == 1
    assert "exactly one task" in capsys.readouterr().err
    assert not maps.exists()


def test_solve_prints_to_stdout(tmp_path, capsys):
    task = write_copy_task(tmp_path / "copy.json")
    rc = cli.main(["--dimension", "512", "--seed", "33", "solve", str(task)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["predictions"][0] == [[0, 0, 0], [0, 0, 6], [0, 0, 0]]


def test_generate_then_evaluate(tmp_path, capsys):
    data = tmp_path / "bench"
    rc = cli.main(["gen-sort-of-arc", "--count", "2", "--seed", "7", "--out", str(data)])
    assert rc == 0
    assert (data / "colour" / "sort-of-arc-colour-0000.json").exists()
    assert (data / "shape" / "sort-of-arc-shape-0000.json").exists()
    capsys.readouterr()

    report = tmp_path / "report.md"
    rc = cli.main(
        ["--dimension", "512", "--seed", "33", "eval", str(data), "--report", str(report), "--workers", "1"]
    )
    assert rc == 0
    text = report.read_text()
    assert "| All (n=2) |" in text
    assert "| colour (n=1) |" in text and "| shape (n=1) |" in text
    assert "workers" not in text


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_eval_refuses_fewer_than_one_worker_before_loading(tmp_path, capsys, monkeypatch, workers):
    def fail(*args):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(cli.harness, "load_arc_json", fail)
    monkeypatch.setattr(cli.harness, "load_arc_directory", fail)
    assert cli.main(["eval", str(tmp_path), "--workers", workers]) == 1
    assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err


def test_eval_split_and_trace_flags(tmp_path):
    data = tmp_path / "bench"
    assert cli.main(["gen-sort-of-arc", "--count", "2", "--seed", "7", "--out", str(data)]) == 0
    report = tmp_path / "report.md"
    rc = cli.main(
        [
            "--dimension", "512", "--seed", "33",
            "eval", str(data), "--split", "shape", "--trace", "--report", str(report),
        ]
    )
    assert rc == 0
    text = report.read_text()
    assert "- split: shape" in text and "- trace: on" in text
    assert "| colour" not in text
    assert "## Traces" in text


def test_eval_single_file(tmp_path, capsys):
    task = write_copy_task(tmp_path / "solo.json")
    rc = cli.main(["--dimension", "512", "--seed", "33", "eval", str(task)])
    assert rc == 0
    assert "| All (n=1) | 100.0 | 100.0 | 100.0 | 100.0 |" in capsys.readouterr().out


def test_inspect_writes_heatmaps(tmp_path, capsys):
    task = write_copy_task(tmp_path / "copy.json")
    maps = tmp_path / "maps"
    rc = cli.main(["--dimension", "512", "--seed", "33", "inspect", str(task), "--object", "0", "--heatmaps", str(maps)])
    assert rc == 0
    for name in ("colour.csv", "centre.csv", "shape.csv"):
        assert (maps / name).exists()


def test_missing_file_is_operational_failure(capsys):
    rc = cli.main(["solve", "/no/such/task.json"])
    assert rc == 1
    assert "task.json" in capsys.readouterr().err


def test_bad_pixel_file_reports_cell(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"train": [{"input": [[11]], "output": [[0]]}], "test": [{"input": [[0]]}]}))
    rc = cli.main(["solve", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "row 0, column 0" in err


@pytest.mark.parametrize("cell", ["1.5", '"3"', "true", "1e300", str(2**70)])
def test_solve_refuses_cells_that_are_not_colour_integers(tmp_path, capsys, cell):
    path = tmp_path / "cell.json"
    path.write_text('{"train": [{"input": [[0, %s]], "output": [[0, 1]]}], "test": [{"input": [[0, 1]]}]}' % cell)
    rc = cli.main(["--dimension", "256", "solve", str(path)])
    assert rc == 1
    assert "row 0, column 1" in capsys.readouterr().err


def test_env_defaults(monkeypatch):
    monkeypatch.setenv("HOLOGRID_DIMENSION", "256")
    monkeypatch.setenv("HOLOGRID_SEED", "9")
    args = cli.build_parser().parse_args(["solve", "x.json"])
    assert args.dimension == 256 and args.seed == 9
    monkeypatch.delenv("HOLOGRID_DIMENSION")
    monkeypatch.delenv("HOLOGRID_SEED")
    args = cli.build_parser().parse_args(["solve", "x.json"])
    assert args.dimension == vsa.DEFAULT_DIMENSION and args.seed == vsa.DEFAULT_SEED


def test_env_must_be_integer(monkeypatch):
    monkeypatch.setenv("HOLOGRID_DIMENSION", "huge")
    with pytest.raises(SystemExit):
        cli.build_parser()
