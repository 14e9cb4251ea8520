"""First stage of solving: guess scene structure and explain the demos.

Given demonstration pairs, this stage
1. picks an output-size hypothesis (same as input, one constant size, or
   determined by the actions themselves),
2. ranks the six segmentation hypotheses by how confidently each output
   object can be matched to some input object of the same demo,
3. under the best hypothesis, pairs every output object with its most
   similar input object, proposes candidate actions from whichever property
   changed, and
4. picks the cheapest action set that explains every output object via an
   exact minimum-cost hitting set (operation kinds are expensive, extra
   parameterizations cheap, so shared structure wins).

A hypothesis is rejected when the explanation degenerates: an output object
with no candidate action, the same input object needing one operation with
two different parameterizations, or most objects explained only by
memorized one-off Generate actions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import dsl
from .dsl import Action, OperationKind, SceneContext
from .perception import Grid, ObjectHypothesis, ObjectRepr, Scene, centre_table, perceive
from .ssp import SspEncoder
from .vsa import Vocabulary

OP_COST = 10
PARAM_COST = 1
TAU_SAME = 0.95
NODE_BUDGET = 200_000  # branch-and-bound nodes per hitting-set search
NOVEL_GENERATE_SHARE = 0.5  # above this share of one-off generate actions, a hypothesis is rejected


@dataclass(frozen=True)
class SizeHypothesis:
    """How output canvas dims are chosen: identity, constant, or function."""

    kind: str  # "identity" | "constant" | "function"
    dims: tuple[int, int] | None = None


def choose_size_hypothesis(demos: list[tuple[Grid, Grid]]) -> SizeHypothesis:
    """Identity when dims always match, constant when outputs agree, else function."""
    if all(inp.shape == out.shape for inp, out in demos):
        return SizeHypothesis("identity")
    out_dims = {out.shape for _, out in demos}
    if len(out_dims) == 1:
        dims = next(iter(out_dims))
        return SizeHypothesis("constant", (int(dims[0]), int(dims[1])))
    return SizeHypothesis("function")


# ---------------------------------------------------------------- similarity


def similarity_matrices(
    outs: list[ObjectRepr], ins: list[ObjectRepr], encoder: SspEncoder, palette: Vocabulary
) -> np.ndarray:
    """Property similarities of every (output, input) pair, gathered from three small tables.

    Shape (3, len(outs), len(ins)), one matrix per property in
    ``PROPERTIES`` order. Their sum over the first axis divided by 3 is the
    combined similarity that ranks hypotheses and matches objects. Each
    entry is the dot product of the two objects' vectors up to rounding:

    - colour from ``palette.gram`` at the masks' colours (row c is colour c);
    - centre from ``centre_table(encoder)`` at the displacement of the
      masks' centres;
    - shape from the products of the outputs' distinct shape vectors with
      the inputs', one row per vector object, so a memo that shares one
      vector per offset set keeps it as small as the scenes' shapes.

    No (objects, N) stack of vectors is copied.
    """
    (out_colour, out_centre, out_shape), out_shapes = _table_keys(outs)
    (in_colour, in_centre, in_shape), in_shapes = _table_keys(ins)
    colours, shapes = palette.gram, _shape_products(out_shapes, in_shapes)
    sims = np.empty((3, len(outs), len(ins)))
    # Flat indices; the centre's is [2dx + 59, 2dy + 59] of the 119 x 119 table.
    sims[0] = colours.take((out_colour * len(colours))[:, None] + in_colour)
    sims[1] = centre_table(encoder).take((out_centre + 59 * 120)[:, None] - in_centre)
    sims[2] = shapes.take((out_shape * len(in_shapes))[:, None] + in_shape)
    return sims


def _table_keys(objects: list[ObjectRepr]) -> tuple[np.ndarray, list]:
    """Each object's keys into the three tables, (3, len(objects)), and the distinct shape vectors.

    The keys are the mask's colour, ``119 * 2x + 2y`` for the (x, y) of its
    ``centre_point`` (integers, as centres lie on the half-cell lattice),
    and the row of its shape vector among the distinct vector objects, in
    first-seen order.
    """
    keys = []
    shape_rows: dict[int, int] = {}
    shapes = []
    for o in objects:
        mask, shape = o.mask, o.shape_vec
        r0, c0, r1, c1 = mask.bbox
        height, width = mask.dims
        row = shape_rows.get(id(shape))
        if row is None:
            row = shape_rows[id(shape)] = len(shapes)
            shapes.append(shape)
        keys += (mask.colour, 119 * (c0 + c1 - width + 1) + height - 1 - r0 - r1, row)
    return np.array(keys, dtype=np.int64).reshape(-1, 3).T, shapes


def _shape_products(out_shapes: list, in_shapes: list) -> np.ndarray:
    """Similarities of every distinct output shape vector with every distinct input one."""
    return np.array(out_shapes) @ np.array(in_shapes).T


def padded_max_softmax(rows) -> np.ndarray:
    """Softmax confidence of each row's best match, padded with anchors 0 and 1.

    ``rows`` is a (k, m) array of similarities, m possibly 0; the result
    holds k confidences. The anchors keep scores comparable across scenes
    with different object counts: a lone perfect match against one input
    scores e/(2e+1). Each row is scored as if alone: its max, exp terms
    and sum are its own.
    """
    rows = np.asarray(rows, dtype=np.float64)
    padded = np.zeros((rows.shape[0], rows.shape[1] + 2))
    padded[:, :-2] = rows
    padded[:, -1] = 1.0
    e = np.exp(padded - padded.max(axis=1, keepdims=True))
    return e.max(axis=1) / e.sum(axis=1)


@dataclass(frozen=True)
class ScenePair:
    """One demo pair perceived under one hypothesis, as the ranking compared it.

    ``sims`` is ``similarity_matrices(outputs.objects, inputs.objects, encoder, palette)``,
    or None when either scene has no objects.
    """

    inputs: Scene
    outputs: Scene
    sims: np.ndarray | None


class RankedHypothesis(NamedTuple):
    hypothesis: ObjectHypothesis
    score: float
    pairs: list[ScenePair]  # one per demo, in demo order


def rank_object_hypotheses(
    demos: list[tuple[Grid, Grid]], encoder: SspEncoder, palette: Vocabulary
) -> list[RankedHypothesis]:
    """Score each segmentation hypothesis by average best-match confidence.

    For every output object the combined similarities to all same-demo
    input objects are softmaxed together with the 0/1 anchors; the max is
    that object's confidence. A hypothesis yielding no output objects at
    all cannot be scored and sinks to -inf. Ties keep declaration order.

    This is the only place the demo grids are perceived: each once per
    hypothesis, all through one encoding memo (see ``perceive``) that is
    dropped on return. Demos run outside and hypotheses inside; every
    hypothesis still collects its terms in demo order. Each hypothesis
    comes with the scene pairs it was scored on, for the explanation to
    read; they live as long as the caller keeps the ranking.
    """
    memo: dict = {}
    pairs: dict[ObjectHypothesis, list[ScenePair]] = {hyp: [] for hyp in ObjectHypothesis}
    terms: dict[ObjectHypothesis, list[float]] = {hyp: [] for hyp in ObjectHypothesis}
    for in_grid, out_grid in demos:
        for hyp in ObjectHypothesis:
            ins = perceive(in_grid, hyp, encoder, palette, memo)
            outs = perceive(out_grid, hyp, encoder, palette, memo)
            sims = None
            if outs.objects and ins.objects:
                sims = similarity_matrices(outs.objects, ins.objects, encoder, palette)
                terms[hyp].extend(padded_max_softmax(sims.sum(axis=0) / 3.0).tolist())
            elif outs.objects:
                terms[hyp].extend(padded_max_softmax(np.zeros((len(outs.objects), 0))).tolist())
            pairs[hyp].append(ScenePair(ins, outs, sims))
    ranked = [
        RankedHypothesis(hyp, float(np.mean(t)) if t else float("-inf"), pairs[hyp]) for hyp, t in terms.items()
    ]
    order = {hyp: i for i, hyp in enumerate(ObjectHypothesis)}
    return sorted(ranked, key=lambda r: (-r.score, order[r.hypothesis]))


# ---------------------------------------------------------------- candidates


def candidate_operations(colour_sim: float, centre_sim: float, shape_sim: float) -> set[OperationKind]:
    """Operation kinds worth trying, from whichever property changed.

    The arguments are one matched pair's entries of ``similarity_matrices``.
    A property changed when its similarity falls below ``TAU_SAME``.
    Exactly one changed property narrows the menu to the operations that
    touch it; several changed properties leave only Generate; none leaves
    Identity.
    """
    changed = [colour_sim < TAU_SAME, centre_sim < TAU_SAME, shape_sim < TAU_SAME]
    if not any(changed):
        return {OperationKind.IDENTITY}
    if sum(changed) > 1:
        return {OperationKind.GENERATE}
    if changed[0]:
        return {OperationKind.RECOLOUR, OperationKind.GENERATE}
    if changed[1]:
        return {
            OperationKind.RECENTRE,
            OperationKind.MOVE,
            OperationKind.GRAVITY,
            OperationKind.GENERATE,
        }
    return {
        OperationKind.RESHAPE,
        OperationKind.GROW,
        OperationKind.FILL,
        OperationKind.HOLLOW,
        OperationKind.GENERATE,
    }


# ---------------------------------------------------------------- hitting set


def minimum_hitting_set(partial_sets):
    """Exact minimum-cost hitting set by branch and bound.

    Cost charges ``OP_COST`` per distinct operation kind plus ``PARAM_COST``
    per distinct action, so one shared parameterization beats many one-off
    ones. Equal-cost solutions resolve to the lexicographically smallest
    action encoding. Returns (actions, cost, optimal); ``optimal`` goes
    False only if the search used up ``NODE_BUDGET`` nodes, in which case
    the best hitting set found so far is returned.
    """
    sets = [frozenset(s) for s in partial_sets]
    if any(not s for s in sets):
        raise ValueError("cannot hit an empty candidate set")
    # The search runs on action numbers given in ``sort_key`` order. Distinct
    # actions have distinct keys, so sorted number tuples compare exactly as
    # the sorted encodings they stand for: every ordering and tie-break
    # below is the one on encodings.
    actions = sorted(frozenset().union(*sets), key=lambda a: a.sort_key())
    number = {a: i for i, a in enumerate(actions)}
    # Identical sets are one constraint; supersets are implied by subsets.
    unique: list[tuple[int, ...]] = []
    for s in sorted({tuple(sorted(number[a] for a in s)) for s in sets}, key=lambda t: (len(t), t)):
        if not any(set(keep).issubset(s) for keep in unique):
            unique.append(s)
    if not unique:
        return frozenset(), 0, True

    kind_number: dict = {}
    kind_bit = [1 << kind_number.setdefault(a.kind, len(kind_number)) for a in actions]
    coverage = [0] * len(actions)  # bitmask of the sets each action hits
    for idx, s in enumerate(unique):
        for a in s:
            coverage[a] |= 1 << idx
    reach = []  # bitmask of the sets that share a candidate with each set
    for s in unique:
        mask = 0
        for a in s:
            mask |= coverage[a]
        reach.append(mask)
    full_mask = (1 << len(unique)) - 1

    # Greedy warm start gives the search a finite bound immediately.
    greedy: list[int] = []
    covered = 0
    while covered != full_mask:
        pick = max(range(len(actions)), key=lambda a: (coverage[a] & ~covered).bit_count())
        greedy.append(pick)
        covered |= coverage[pick]
    greedy_kinds = len({actions[a].kind for a in greedy})
    best = (OP_COST * greedy_kinds + PARAM_COST * len(greedy), tuple(sorted(greedy)))
    nodes = 0

    def search(uncovered: int, chosen: list[int], kinds: int, cost: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            return
        if uncovered == 0:
            best = min(best, (cost, tuple(sorted(chosen))))
            return
        # Greedily pack sets that share no candidate action: each needs its
        # own new action, so their count is an admissible increment.
        bound, remaining = cost, uncovered
        while remaining:
            bound += PARAM_COST
            remaining &= ~reach[(remaining & -remaining).bit_length() - 1]
        if bound > best[0]:
            return
        # Branch on the first uncovered set, the one with the fewest candidates.
        for a in unique[(uncovered & -uncovered).bit_length() - 1]:
            extra = PARAM_COST + (0 if kinds & kind_bit[a] else OP_COST)
            if cost + extra > best[0]:
                continue
            chosen.append(a)
            search(uncovered & ~coverage[a], chosen, kinds | kind_bit[a], cost + extra)
            chosen.pop()

    search(full_mask, [], 0, 0)
    return frozenset(actions[a] for a in best[1]), best[0], nodes <= NODE_BUDGET


# ---------------------------------------------------------------- abduction


@dataclass(frozen=True)
class Assignment:
    """One explained output object: which input object, which action."""

    demo_index: int
    output_index: int
    input_index: int
    action: Action


@dataclass
class AbductionResult:
    ok: bool
    reason: str | None
    hypothesis: ObjectHypothesis | None
    size: SizeHypothesis
    action_set: tuple[Action, ...] = ()
    cost: int = 0
    assignments: list[Assignment] = field(default_factory=list)
    input_scenes: list[Scene] = field(default_factory=list)
    output_scenes: list[Scene] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)
    optimal: bool = True  # False: the hitting set is the best found within the node budget


def _explain_under_hypothesis(pairs: list[ScenePair], hyp, size) -> AbductionResult | str:
    """Candidate sets, hitting set and assignments for one hypothesis.

    ``pairs`` are the ranking's scene pairs for ``hyp``, one per demo, so
    the scenes and similarities are the ones the ranking scored. Returns
    the accepted explanation, still without a trace, or the reason the
    hypothesis is rejected.
    """
    in_scenes = [pair.inputs for pair in pairs]
    out_scenes = [pair.outputs for pair in pairs]

    items = []  # (demo_idx, out_idx, in_idx, candidate action set)
    for demo_idx, pair in enumerate(pairs):
        ins = pair.inputs.objects
        if not pair.outputs.objects:
            continue
        if not ins:
            return "output objects with no input objects to explain them"
        all_cells = frozenset().union(*(o.mask.cells for o in ins))
        out_dims = (int(pair.outputs.grid.shape[0]), int(pair.outputs.grid.shape[1]))
        # Each output object matches its most similar input; first index wins ties.
        matches = np.argmax(pair.sims.sum(axis=0) / 3.0, axis=1)
        for out_idx, out_obj in enumerate(pair.outputs.objects):
            in_idx = int(matches[out_idx])
            inp = ins[in_idx]
            allowed = candidate_operations(*pair.sims[:, out_idx, in_idx])
            if size.kind == "function":
                allowed = allowed | {OperationKind.EXTRACT}
            ctx = SceneContext(dims=out_dims, occupied=all_cells - inp.mask.cells)
            actions = dsl.infer_actions(inp.mask, out_obj.mask, allowed, ctx)
            if not actions:
                return f"demo {demo_idx} output object {out_idx} admits no action"
            items.append((demo_idx, out_idx, in_idx, actions))

    action_set, cost, optimal = minimum_hitting_set([actions for *_, actions in items])

    # Deterministic assignment: the action explaining the most objects wins,
    # then the lexicographically smallest encoding.
    counts: dict[Action, int] = {}
    for *_, actions in items:
        for a in actions & action_set:
            counts[a] = counts.get(a, 0) + 1
    assignments = []
    for demo_idx, out_idx, in_idx, actions in items:
        hits = sorted(actions & action_set, key=lambda a: (-counts[a], a.sort_key()))
        assignments.append(Assignment(demo_idx, out_idx, in_idx, hits[0]))

    # Consistency: one input object cannot need the same operation twice
    # with different parameters (a program holds one rule per kind).
    seen: dict[tuple, tuple] = {}
    for a in assignments:
        sig = in_scenes[a.demo_index].objects[a.input_index].signature()
        key = (sig, a.action.kind)
        params = a.action.params
        if key in seen and seen[key] != params:
            return "identical input objects demand conflicting parameters"
        seen[key] = params

    total_outputs = len(items)
    if total_outputs:
        if cost / total_outputs > OP_COST + PARAM_COST:
            return "explanation cost exceeds the per-object budget"
        if _novel_generate_fraction(assignments, in_scenes) > NOVEL_GENERATE_SHARE:
            return "most output objects need one-off generate actions"

    return AbductionResult(
        ok=True,
        reason=None,
        hypothesis=hyp,
        size=size,
        action_set=tuple(sorted(action_set, key=lambda a: a.sort_key())),
        cost=cost,
        assignments=assignments,
        input_scenes=in_scenes,
        output_scenes=out_scenes,
        optimal=optimal,
    )


def _novel_generate_fraction(assignments: list[Assignment], in_scenes) -> float:
    """Share of output objects explained only by fully novel Generate params.

    A Generate parameter is non-novel when the same slot value appears in
    another assignment or just copies the input object's own property; if
    all three parameters are novel the action is pure memorization.
    """
    if not assignments:
        return 0.0
    slot_counts: dict[tuple, int] = {}
    for a in assignments:
        for slot, value in a.action.params:
            key = (slot, value)
            slot_counts[key] = slot_counts.get(key, 0) + 1
    novel = 0
    for a in assignments:
        if a.action.kind is not OperationKind.GENERATE:
            continue
        inp = in_scenes[a.demo_index].objects[a.input_index]
        all_novel = True
        for slot, value in a.action.params:
            if slot_counts[(slot, value)] > 1 or dsl.own_value(inp.mask, slot) == value:
                all_novel = False
                break
        if all_novel:
            novel += 1
    return novel / len(assignments)


def abduce(demos: list[tuple[Grid, Grid]], encoder: SspEncoder, palette: Vocabulary) -> AbductionResult:
    """Explain the demonstrations; never raises on unexplainable tasks.

    The ranking's scene pairs, for every hypothesis, live for this call:
    each hypothesis tried is explained from its own pairs, with no grid
    perceived again, and only the accepted hypothesis's scenes outlive the
    call, in the result.
    """
    if not demos:
        return AbductionResult(False, "no demonstrations", None, SizeHypothesis("identity"))
    size = choose_size_hypothesis(demos)
    ranking = rank_object_hypotheses(demos, encoder, palette)
    trace: list[str] = []
    for hyp, score, pairs in ranking:
        explained = _explain_under_hypothesis(pairs, hyp, size)
        if isinstance(explained, str):
            trace.append(f"hypothesis={hyp.value} score={score:.6f} status=rejected ({explained})")
            continue
        cut = "" if explained.optimal else " optimal=false"  # the hitting set used up NODE_BUDGET
        trace.append(f"hypothesis={hyp.value} score={score:.6f} cost={explained.cost} status=accepted{cut}")
        explained.trace = trace
        return explained
    return AbductionResult(
        ok=False,
        reason="every segmentation hypothesis was rejected",
        hypothesis=None,
        size=size,
        trace=trace,
    )
