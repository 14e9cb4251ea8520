"""Solve loop, scoring and end-to-end metrics of the benchmark.

Every task goes through ``deduction.solve_task`` once, in this process,
with the query outputs withheld; each query answer is then scored
against the task's stored output. Each solve, and each set-up, is timed
between two host speed probes, and the timings behind the end-to-end
metrics are scaled to the probe's reference speed (see ``speed.py``).
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from hologrid import deduction
from hologrid.harness import TaskRecord
from hologrid.perception import GridError, as_grid, grid_equal

import speed

TAIL_BEYOND = 10  # tasks that must lie beyond the reported tail percentile


@dataclass
class Outcome:
    """What the solver did with one task, and how long it took."""

    task_id: str
    seconds: float  # wall time of the solve
    probe_s: float  # mean of the host speed probes before and after it
    error: Optional[str] = None
    ok: bool = False
    hypothesis: Optional[str] = None
    actions: tuple[str, ...] = ()
    cost: int = 0
    answers: list = field(default_factory=list)  # grid as nested lists, or None
    query_flags: list[bool] = field(default_factory=list)
    demo_flags: list[bool] = field(default_factory=list)

    @property
    def speed_factor(self) -> float:
        return speed.factor(self.probe_s)

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.speed_factor

    def verdict(self) -> tuple:
        """Everything but the timing; equal verdicts mean equal behaviour."""
        return (
            self.task_id,
            self.error,
            self.ok,
            self.hypothesis,
            self.actions,
            self.cost,
            json.dumps(self.answers),
            tuple(self.query_flags),
            tuple(self.demo_flags),
        )


def blind(task: TaskRecord) -> TaskRecord:
    """The task as the solver may see it: query outputs withheld."""
    return TaskRecord(task.id, task.train, [(q, None) for q, _ in task.test], task.subsplit)


def solve_one(task: TaskRecord, encoder, palette) -> Outcome:
    # The name is looked up at call time so that a traced run sees its wrapper.
    probe_before = speed.probe_seconds()
    start = perf_counter()
    try:
        predictions, diag = deduction.solve_task(blind(task), encoder, palette)
    except Exception as exc:  # a raising task is scored as failed, the run goes on
        seconds = perf_counter() - start
        probe_s = (probe_before + speed.probe_seconds()) / 2
        return Outcome(task.id, seconds, probe_s, error=f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    probe_s = (probe_before + speed.probe_seconds()) / 2
    # One answer per query, each unsolved or a valid grid; anything else fails the task.
    try:
        if len(predictions) != len(task.test):
            raise GridError(f"{len(predictions)} answers for {len(task.test)} queries")
        answers = [None if p.grid is None else as_grid(p.grid).tolist() for p in predictions]
    except GridError as exc:
        return Outcome(task.id, seconds, probe_s, error=f"malformed answer: {exc}")
    query_flags = [
        p.grid is not None and grid_equal(p.grid, np.asarray(want))
        for p, (_, want) in zip(predictions, task.test)
    ]
    demo_flags = list(diag.demo_replays) if diag.ok else [False] * len(task.train)
    return Outcome(
        task_id=task.id,
        seconds=seconds,
        probe_s=probe_s,
        ok=diag.ok,
        hypothesis=None if diag.hypothesis is None else diag.hypothesis.value,
        actions=tuple(a.sort_key() for a in diag.action_set),
        cost=int(diag.cost),
        answers=answers,
        query_flags=query_flags,
        demo_flags=[bool(f) for f in demo_flags],
    )


def solve_for(tasks, encoder, palette, seconds: float) -> tuple[list[TaskRecord], list[Outcome]]:
    """Solve tasks in order until ``seconds`` have passed; at least one."""
    done: list[TaskRecord] = []
    outcomes: list[Outcome] = []
    start = perf_counter()
    for task in tasks:
        if outcomes and perf_counter() - start >= seconds:
            break
        done.append(task)
        outcomes.append(solve_one(task, encoder, palette))
    return done, outcomes


def tail(seconds: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND tasks above it.

    With too few tasks for that, the slowest task stands in, at percentile 100.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def scores(outcomes: list[Outcome]) -> dict:
    """Accuracy and failure shares over a run's tasks."""
    queries = sum(len(o.query_flags) for o in outcomes if o.error is None)
    wrong = sum(
        a is not None and not hit
        for o in outcomes
        for a, hit in zip(o.answers, o.query_flags)
    )
    demos = sum(len(o.demo_flags) for o in outcomes)
    return {
        "query_task_acc": 100.0 * sum(o.error is None and all(o.query_flags) for o in outcomes) / len(outcomes),
        "demo_replay_acc": 100.0 * sum(sum(o.demo_flags) for o in outcomes) / demos if demos else 0.0,
        "wrong_answer_frac": wrong / queries if queries else 0.0,
        "error_frac": sum(o.error is not None for o in outcomes) / len(outcomes),
    }


def answer_digest(outcomes: list[Outcome]) -> str:
    """SHA-256 over each task's hypothesis, action set, cost and answer grids."""
    digest = hashlib.sha256()
    for o in outcomes:
        record = [o.task_id, o.error, o.hypothesis, list(o.actions), o.cost, o.answers]
        digest.update(json.dumps(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def setup_seconds(repeats: int, dimension: int, vsa_seed: int, env: dict) -> list[dict]:
    """Time the solver's set-up ``repeats`` times, each in a fresh interpreter.

    Each entry holds the wall ``seconds``, the probes around them and the
    ``scaled`` seconds.
    """
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(SETUP_PROBE), str(dimension), str(vsa_seed)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        run = json.loads(done.stdout.strip().splitlines()[-1])
        run["scaled"] = run["seconds"] * speed.factor((run["probe_before"] + run["probe_after"]) / 2)
        runs.append(run)
    return runs


def environment(dimension: int, vsa_seed: int, blas_threads: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "dimension": dimension,
        "vsa_seed": vsa_seed,
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def end_to_end(outcomes: list[Outcome], setup: list[dict]) -> dict:
    times = [o.scaled_seconds for o in outcomes]
    tail_s, _ = tail(times)
    acc = scores(outcomes)
    return {
        "s_per_task": (sum(times) / len(times), "s"),
        "task_s_p50": (statistics.median(times), "s"),
        "task_s_tail": (tail_s, "s"),
        "query_task_acc": (acc["query_task_acc"], "%"),
        "demo_replay_acc": (acc["demo_replay_acc"], "%"),
        "setup_s": (statistics.median(run["scaled"] for run in setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
