"""Program execution: size a canvas, fire rules on query objects, render.

Every input object is considered by every rule (objects outer, rules in
program order). A rule fires when its condition predictor reports at least
0.5; the predicted action is executed and the produced object joins the
output scene. Failures along the way (parameter decode too weak, action
out of bounds) skip that object/rule pair and leave a trace line instead
of raising.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dsl, perception as pc
from .abduction import AbductionResult, SizeHypothesis, abduce
from .dsl import Action, ActionError, OperationKind
from .induction import ParamCodec, Program, induce, make_codec, training_fit
from .perception import Grid, ObjectHypothesis, Scene
from .ssp import SspEncoder
from .vsa import Vocabulary

FIRE_THRESHOLD = 0.5  # a probability of exactly one half still fires


@dataclass
class Prediction:
    """Outcome for one query: the produced grid, or None when unsolved."""

    query_index: int
    grid: Optional[Grid]
    trace: list[str] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.grid is not None


@dataclass
class TaskDiagnostics:
    """What the solver believed while working on a task."""

    ok: bool
    reason: Optional[str]
    hypothesis: Optional[ObjectHypothesis]
    size: SizeHypothesis
    action_set: tuple[Action, ...] = ()
    cost: int = 0
    optimal: bool = True  # False: the hitting set is the best found within the node budget
    demo_replays: list[bool] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)
    program: Optional[Program] = None
    training_fit: bool = False


def _produce(program: Program, scene: Scene, ctx_dims, decode_dims, codec: ParamCodec, trace):
    """Fire every applicable rule on every object; return produced masks."""
    all_cells = frozenset().union(*(o.mask.cells for o in scene.objects)) if scene.objects else frozenset()
    produced: list[tuple[dsl.ObjectMask, OperationKind]] = []
    for i, obj in enumerate(scene.objects):
        ctx = dsl.SceneContext(dims=ctx_dims, occupied=all_cells - obj.mask.cells)
        for rule in program.rules:
            p = rule.condition.probability(obj)
            if p < FIRE_THRESHOLD:
                continue
            params = {}
            abstained = None
            for slot, predictor in rule.parameters.items():
                value = predictor.predict(obj, decode_dims, codec)
                if value is None:
                    abstained = slot
                    break
                params[slot] = value
            if abstained is not None:
                trace.append(f"object={i} rule={rule.kind.value} abstained slot={abstained}")
                continue
            try:
                action = Action.make(rule.kind, **params)
                produced.append((dsl.apply_action(obj.mask, action, ctx), rule.kind))
                trace.append(f"object={i} rule={rule.kind.value} fired p={p:.3f}")
            except (ActionError, ValueError) as exc:
                trace.append(f"object={i} rule={rule.kind.value} failed: {exc}")
    return produced


def solve_query(
    program: Program,
    hypothesis: ObjectHypothesis,
    size: SizeHypothesis,
    query: Grid,
    encoder: SspEncoder,
    palette: Vocabulary,
    codec: Optional[ParamCodec] = None,
    query_index: int = 0,
) -> Prediction:
    """Perceive one query grid, then answer it with ``answer_scene``."""
    scene = pc.perceive(query, hypothesis, encoder, palette)
    return answer_scene(program, size, scene, codec or make_codec(encoder, palette), query_index)


def answer_scene(program: Program, size: SizeHypothesis, scene: Scene, codec: ParamCodec, query_index: int = 0) -> Prediction:
    """Run the program over an already perceived query scene and render the answer."""
    trace: list[str] = []
    query_dims = tuple(scene.grid.shape)
    if size.kind == "identity":
        canvas = query_dims
    elif size.kind == "constant":
        canvas = size.dims
    else:
        canvas = None  # function-sized: settled after execution

    ctx_dims = canvas if canvas is not None else query_dims
    produced = _produce(program, scene, ctx_dims, ctx_dims, codec, trace)

    if canvas is not None:
        grid = dsl.render([m for m, _ in produced], canvas)
        return Prediction(query_index, grid, trace)

    extracted = [m for m, kind in produced if kind is OperationKind.EXTRACT]
    if extracted:
        return Prediction(query_index, dsl.render_extract(extracted[0]), trace)
    full = dsl.render([m for m, _ in produced], query_dims)
    rows, cols = np.nonzero(full)
    if len(rows) == 0:
        return Prediction(query_index, full, trace)
    crop = full[rows.min() : rows.max() + 1, cols.min() : cols.max() + 1]
    return Prediction(query_index, crop, trace)


def _replay_demos(result: AbductionResult, program: Program, codec: ParamCodec) -> list[bool]:
    """Run the induced program back over each demo input scene; exact-match flags."""
    flags = []
    for scene, out_scene in zip(result.input_scenes, result.output_scenes):
        want = out_scene.grid
        got = answer_scene(program, result.size, scene, codec).grid
        flags.append(got is not None and got.shape == want.shape and bool(np.array_equal(got, want)))
    return flags


def solve_task(task, encoder: SspEncoder, palette: Vocabulary):
    """Explain the demos, learn rules, answer every query.

    ``task`` needs ``train`` (list of (input, output) grid pairs) and
    ``test`` (list of (input, output-or-None) pairs). Failures become
    unsolved markers, not exceptions.
    """
    demos = [(pc.as_grid(i), pc.as_grid(o)) for i, o in task.train]
    queries = [pc.as_grid(q) for q, _ in task.test]
    result = abduce(demos, encoder, palette)
    if not result.ok:
        diag = TaskDiagnostics(
            ok=False,
            reason=result.reason,
            hypothesis=None,
            size=result.size,
            trace=list(result.trace),
        )
        marker = f"unsolved: {result.reason}"
        return [Prediction(i, None, [marker]) for i in range(len(queries))], diag

    codec = make_codec(encoder, palette)
    program = induce(result, codec)
    diag = TaskDiagnostics(
        ok=True,
        reason=None,
        hypothesis=result.hypothesis,
        size=result.size,
        action_set=result.action_set,
        cost=result.cost,
        optimal=result.optimal,
        demo_replays=_replay_demos(result, program, codec),
        trace=list(result.trace),
        program=program,
        training_fit=training_fit(result, program, codec),
    )
    predictions = [
        solve_query(program, result.hypothesis, result.size, q, encoder, palette, codec, i)
        for i, q in enumerate(queries)
    ]
    return predictions, diag
