"""Command line front end.

Subcommands: solve one task file, evaluate a corpus, generate the
synthetic benchmark, and export heatmaps for one object. Vector
dimension and seed come from ``--dimension``/``--seed``, defaulting to
the HOLOGRID_DIMENSION / HOLOGRID_SEED environment variables.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import deduction, harness, induction, ssp, vsa
from . import perception as pc


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"{name} must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hologrid",
        description="Solve grid puzzles with holographic object representations.",
    )
    parser.add_argument(
        "--dimension",
        type=int,
        default=_env_int("HOLOGRID_DIMENSION", vsa.DEFAULT_DIMENSION),
        help="hypervector dimension (env HOLOGRID_DIMENSION)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=_env_int("HOLOGRID_SEED", vsa.DEFAULT_SEED),
        help="base seed for all vocabularies (env HOLOGRID_SEED)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one task file and emit predictions as JSON")
    p.add_argument("task", help="path to a task JSON file")
    p.add_argument("--program", help="also write the learned rule program here")
    p.add_argument("--output", help="write predictions here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="evaluate a corpus directory or task file")
    p.add_argument("path", help="directory of task JSON files, or one file")
    p.add_argument("--split", help="only evaluate tasks in this subsplit")
    p.add_argument("--trace", action="store_true", help="append per-task trace sections")
    p.add_argument("--report", help="write the Markdown report here instead of stdout")
    p.add_argument("--workers", type=int, default=1, help="parallel solver processes")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen-sort-of-arc", help="generate the synthetic moving-objects benchmark")
    p.add_argument("--count", type=int, required=True, help="number of tasks")
    p.add_argument("--seed", type=int, default=0, dest="gen_seed", help="generator seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("inspect", help="export similarity heatmaps for one object")
    p.add_argument("task", help="path to a task JSON file")
    p.add_argument("--object", type=int, default=0, help="object index in the first demonstration input")
    p.add_argument("--heatmaps", required=True, help="directory for the CSV panels")
    p.set_defaults(func=_cmd_inspect)
    return parser


def _solver_state(args):
    config = vsa.VsaConfig(dimension=args.dimension, seed=args.seed)
    return config, ssp.SspEncoder(config), pc.build_palette(config)


def _cmd_solve(args) -> int:
    records = harness.load_arc_json(args.task)
    if args.program and len(records) != 1:
        raise ValueError("--program needs a file holding exactly one task")
    config, encoder, palette = _solver_state(args)
    docs = []
    first_diag = None
    for record in records:
        predictions, diag = deduction.solve_task(record, encoder, palette)
        if first_diag is None:
            first_diag = diag
        docs.append(harness.predictions_to_json(record, predictions))
    if args.program:
        if first_diag.program is None:
            raise ValueError(f"task unsolved, no program learned: {first_diag.reason}")
        doc = induction.program_to_json(first_diag.program, config)
        Path(args.program).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    payload = docs[0] if len(docs) == 1 else docs
    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_eval(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    path = Path(args.path)
    records = harness.load_arc_directory(path) if path.is_dir() else harness.load_arc_json(path)
    config = harness.EvalConfig(
        dimension=args.dimension,
        seed=args.seed,
        workers=args.workers,
        split=args.split,
        trace=args.trace,
    )
    report = harness.evaluate(records, config)
    text = harness.render_markdown(report)
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_generate(args) -> int:
    records = harness.generate_sort_of_arc(args.count, args.gen_seed)
    out = Path(args.out)
    for record in records:
        split_dir = out / (record.subsplit or "")
        split_dir.mkdir(parents=True, exist_ok=True)
        harness.write_task(record, split_dir / f"{record.id}.json")
    print(f"wrote {len(records)} tasks under {out}")
    return 0


def _cmd_inspect(args) -> int:
    records = harness.load_arc_json(args.task)
    if len(records) != 1:
        raise ValueError("inspect needs a file holding exactly one task")
    _, encoder, palette = _solver_state(args)
    paths = harness.export_heatmaps(records[0], args.object, args.heatmaps, encoder, palette)
    for path in paths:
        print(path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (harness.TaskLoadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
