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

import numpy as np

from . import dsl
from .dsl import Action, OperationKind, SceneContext
from .perception import PROPERTIES, Grid, ObjectHypothesis, ObjectRepr, Scene, perceive
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


def similarity_matrices(outs: list[ObjectRepr], ins: list[ObjectRepr]) -> np.ndarray:
    """Property similarities of every (output, input) pair.

    Shape (3, len(outs), len(ins)), one dot-product matrix per property in
    ``PROPERTIES`` order. Their sum over the first axis divided by 3 is the
    combined similarity that ranks hypotheses and matches objects.
    """
    return np.stack(
        [
            np.stack([o.vector(p) for o in outs]) @ np.stack([i.vector(p) for i in ins]).T
            for p in PROPERTIES
        ]
    )


def padded_max_softmax(sims) -> float:
    """Softmax confidence of the best match, padded with anchors 0 and 1.

    The anchors keep scores comparable across scenes with different object
    counts: a lone perfect match against one input scores e/(2e+1).
    """
    padded = np.concatenate([np.asarray(sims, dtype=np.float64).ravel(), [0.0, 1.0]])
    e = np.exp(padded - padded.max())
    return float(np.max(e) / e.sum())


def rank_object_hypotheses(
    demos: list[tuple[Grid, Grid]], encoder: SspEncoder, palette: Vocabulary
) -> list[tuple[ObjectHypothesis, float]]:
    """Score each segmentation hypothesis by average best-match confidence.

    For every output object the combined similarities to all same-demo
    input objects are softmaxed together with the 0/1 anchors; the max is
    that object's confidence. A hypothesis yielding no output objects at
    all cannot be scored and sinks to -inf. Ties keep declaration order.

    Demos run outside and hypotheses inside, so each demo pair's distinct
    centres and shapes are encoded once for both grids and all six
    segmentations; every hypothesis still collects its terms in demo order.
    """
    terms: dict[ObjectHypothesis, list[float]] = {hyp: [] for hyp in ObjectHypothesis}
    for in_grid, out_grid in demos:
        # One cache per demo pair, shared by its two grids' segmentations only.
        cache: dict = {}
        for hyp in ObjectHypothesis:
            ins = perceive(in_grid, hyp, encoder, palette, cache).objects
            outs = perceive(out_grid, hyp, encoder, palette, cache).objects
            if not outs:
                continue
            if ins:
                matrix = similarity_matrices(outs, ins).sum(axis=0) / 3.0
                terms[hyp].extend(padded_max_softmax(row) for row in matrix)
            else:
                terms[hyp].extend(padded_max_softmax([]) for _ in outs)
    scored = [(hyp, float(np.mean(t)) if t else float("-inf")) for hyp, t in terms.items()]
    order = {hyp: i for i, hyp in enumerate(ObjectHypothesis)}
    return sorted(scored, key=lambda pair: (-pair[1], order[pair[0]]))


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


def _explain_under_hypothesis(demos, hyp, size, encoder, palette) -> AbductionResult | str:
    """Candidate sets, hitting set and assignments for one hypothesis.

    Returns the accepted explanation, still without a trace, or the reason
    the hypothesis is rejected.
    """
    in_scenes, out_scenes = [], []
    for inp, out in demos:
        cache: dict = {}  # one per demo pair, as in the ranking
        in_scenes.append(perceive(inp, hyp, encoder, palette, cache))
        out_scenes.append(perceive(out, hyp, encoder, palette, cache))

    items = []  # (demo_idx, out_idx, in_idx, candidate action set)
    for demo_idx, (in_scene, out_scene) in enumerate(zip(in_scenes, out_scenes)):
        ins = in_scene.objects
        if not out_scene.objects:
            continue
        if not ins:
            return "output objects with no input objects to explain them"
        all_cells = frozenset().union(*(o.mask.cells for o in ins))
        out_dims = (int(out_scene.grid.shape[0]), int(out_scene.grid.shape[1]))
        sims = similarity_matrices(out_scene.objects, ins)
        # Each output object matches its most similar input; first index wins ties.
        matches = np.argmax(sims.sum(axis=0) / 3.0, axis=1)
        for out_idx, out_obj in enumerate(out_scene.objects):
            in_idx = int(matches[out_idx])
            inp = ins[in_idx]
            allowed = candidate_operations(*sims[:, out_idx, in_idx])
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
    """Explain the demonstrations; never raises on unexplainable tasks."""
    if not demos:
        return AbductionResult(False, "no demonstrations", None, SizeHypothesis("identity"))
    size = choose_size_hypothesis(demos)
    ranking = rank_object_hypotheses(demos, encoder, palette)
    trace: list[str] = []
    for hyp, score in ranking:
        explained = _explain_under_hypothesis(demos, hyp, size, encoder, palette)
        if isinstance(explained, str):
            trace.append(f"hypothesis={hyp.value} score={score:.6f} status=rejected ({explained})")
            continue
        trace.append(f"hypothesis={hyp.value} score={score:.6f} cost={explained.cost} status=accepted")
        explained.trace = trace
        return explained
    return AbductionResult(
        ok=False,
        reason="every segmentation hypothesis was rejected",
        hypothesis=None,
        size=size,
        trace=trace,
    )
