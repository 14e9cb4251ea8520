"""hologrid benchmark: seconds per task and accuracy on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sort-of-arc --seed 1 --seconds 45 --trace 0

One process, one worker, BLAS pinned to one thread. ``--trace 0`` solves
tasks one after another for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` solves for half the time untraced, then solves the same
tasks again with every layer wrapped in spans (see ``tracing.py``),
checks that both passes reached the same verdicts, and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds details (tail percentile, answer digest, versions,
wall times). Times in the metrics are scaled to the reference speed of the
host speed probe (``speed.py``); the wall times are in the details.
A run record, and for traced runs the spans, go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Pinned before numpy loads, here and in the set-up probes.
BLAS_THREADS = "1"
THREAD_ENV = {name: BLAS_THREADS for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

DIMENSION = 1024
VSA_SEED = 0
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def warm_up(encoder, palette) -> None:
    """One tiny task through every stage, so lazy set-up is not timed."""
    import numpy as np

    from hologrid import deduction
    from hologrid.harness import TaskRecord

    def pair(col):
        grid_in = np.zeros((5, 5), dtype=np.int64)
        grid_in[2, col] = 3
        return grid_in, np.roll(grid_in, 1, axis=1)

    task = TaskRecord("warm-up", [pair(0), pair(1)], [pair(2)])
    deduction.solve_task(task, encoder, palette)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hologrid" / "__init__.py").is_file():
        sys.exit(f"hologrid sources not found at {SRC}")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    import bench
    import tracing
    from hologrid import SspEncoder, VsaConfig, build_palette
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")

    config = VsaConfig(dimension=DIMENSION, seed=VSA_SEED)
    encoder = SspEncoder(config)
    palette = build_palette(config)
    warm_up(encoder, palette)
    tasks = WORKLOADS[args.workload](args.seed)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": bench.environment(DIMENSION, VSA_SEED, BLAS_THREADS),
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        setup = bench.setup_seconds(SETUP_REPEATS, DIMENSION, VSA_SEED, dict(os.environ))
        _, outcomes = bench.solve_for(tasks, encoder, palette, args.seconds)
        metrics = bench.end_to_end(outcomes, setup)
        correct = True  # every answer is scored; a task that raised or answered malformed fails the run
        details["setup_runs_s"] = setup
    else:
        done, outcomes = bench.solve_for(tasks, encoder, palette, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced_outcomes = []
            for task in done:
                tracer.task = task.id
                traced_outcomes.append(bench.solve_one(task, encoder, palette))
        correct = [o.verdict() for o in traced_outcomes] == [o.verdict() for o in outcomes]
        n = len(done)
        scale = {o.task_id: o.speed_factor for o in traced_outcomes}
        totals = tracing.layer_totals(tracer.spans, scale)
        metrics = tracing.layer_metrics(tracer, totals, n)
        untraced = sum(o.scaled_seconds for o in outcomes) / n
        traced_s = sum(o.scaled_seconds for o in traced_outcomes) / n
        metrics["trace_overhead_s"] = (traced_s - untraced, "s/task")
        solve_s = totals["busy"]["deduction.solve_task"]
        details["share_pct"] = {
            module: round(100.0 * totals["module_busy"][module] / solve_s, 2)
            for module in tracing.MODULES
        }
        details["span_s_per_task"] = {name: busy / n for name, busy in sorted(totals["busy"].items())}
        details["spans"] = len(tracer.spans)
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl.gz"))

    times = [o.seconds for o in outcomes]
    _, tail_pct = bench.tail(times)
    details.update(
        tasks=len(outcomes),
        task_s_tail_percentile=tail_pct,
        wall_s_per_task=sum(times) / len(times),
        wall_task_s_p50=statistics.median(times),
        probe_ms_p50=1e3 * statistics.median(o.probe_s for o in outcomes),
        scores=bench.scores(outcomes),
        answer_sha256=bench.answer_digest(outcomes),
        errors=[o.error for o in outcomes if o.error is not None][:5],
    )
    failed = sum(o.error is not None for o in outcomes)
    result = {
        "correct": bool(correct) and failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "details": details,
        "result": result,
        "task_seconds": times,
        "task_scaled_seconds": [o.scaled_seconds for o in outcomes],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
