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
from .perception import Grid, ObjectHypothesis, ObjectRepr, Scene, perceive
from .ssp import SspEncoder
from .vsa import Vocabulary, similarity

OP_COST = 10
PARAM_COST = 1
TAU_SAME = 0.95
NODE_BUDGET = 200_000  # branch-and-bound nodes per hitting-set search


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


def property_similarities(a: ObjectRepr, b: ObjectRepr) -> tuple[float, float, float]:
    return (
        similarity(a.colour_vec, b.colour_vec),
        similarity(a.centre_vec, b.centre_vec),
        similarity(a.shape_vec, b.shape_vec),
    )


def combined_similarity(a: ObjectRepr, b: ObjectRepr) -> float:
    return float(np.mean(property_similarities(a, b)))


def _combined_matrix(outs: list[ObjectRepr], ins: list[ObjectRepr]) -> np.ndarray:
    """Pairwise combined similarities, shape (len(outs), len(ins))."""
    total = np.zeros((len(outs), len(ins)))
    for pick in ("colour_vec", "centre_vec", "shape_vec"):
        mo = np.stack([getattr(o, pick) for o in outs])
        mi = np.stack([getattr(i, pick) for i in ins])
        total += mo @ mi.T
    return total / 3.0


def padded_max_softmax(sims) -> float:
    """Softmax confidence of the best match, padded with anchors 0 and 1.

    The anchors keep scores comparable across scenes with different object
    counts: a lone perfect match against one input scores e/(2e+1).
    """
    padded = np.concatenate([np.asarray(sims, dtype=np.float64).ravel(), [0.0, 1.0]])
    e = np.exp(padded - padded.max())
    return float(np.max(e) / e.sum())


def correspondence(out_obj: ObjectRepr, ins: list[ObjectRepr]) -> int:
    """Index of the most similar input object; first index wins ties."""
    if not ins:
        raise ValueError("correspondence needs at least one input object")
    sims = [combined_similarity(out_obj, i) for i in ins]
    return int(np.argmax(sims))


def rank_object_hypotheses(
    demos: list[tuple[Grid, Grid]], encoder: SspEncoder, palette: Vocabulary
) -> list[tuple[ObjectHypothesis, float]]:
    """Score each segmentation hypothesis by average best-match confidence.

    For every output object the combined similarities to all same-demo
    input objects are softmaxed together with the 0/1 anchors; the max is
    that object's confidence. A hypothesis yielding no output objects at
    all cannot be scored and sinks to -inf. Ties keep declaration order.
    """
    scored = []
    for hyp in ObjectHypothesis:
        terms: list[float] = []
        for in_grid, out_grid in demos:
            ins = perceive(in_grid, hyp, encoder, palette).objects
            outs = perceive(out_grid, hyp, encoder, palette).objects
            if not outs:
                continue
            if ins:
                matrix = _combined_matrix(outs, ins)
                terms.extend(padded_max_softmax(row) for row in matrix)
            else:
                terms.extend(padded_max_softmax([]) for _ in outs)
        score = float(np.mean(terms)) if terms else float("-inf")
        scored.append((hyp, score))
    order = {hyp: i for i, hyp in enumerate(ObjectHypothesis)}
    return sorted(scored, key=lambda pair: (-pair[1], order[pair[0]]))


# ---------------------------------------------------------------- candidates


def candidate_operations(inp: ObjectRepr, out: ObjectRepr, tau: float = TAU_SAME) -> set[OperationKind]:
    """Operation kinds worth trying, from whichever property changed.

    Exactly one changed property narrows the menu to the operations that
    touch it; several changed properties leave only Generate; none leaves
    Identity.
    """
    colour_sim, centre_sim, shape_sim = property_similarities(inp, out)
    changed = [colour_sim < tau, centre_sim < tau, shape_sim < tau]
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


def _solution_key(actions) -> tuple:
    return tuple(sorted(a.sort_key() for a in actions))


def minimum_hitting_set(partial_sets, op_cost: int = OP_COST, param_cost: int = PARAM_COST, node_budget: int = NODE_BUDGET):
    """Exact minimum-cost hitting set by branch and bound.

    Cost charges ``op_cost`` per distinct operation kind plus ``param_cost``
    per distinct action, so one shared parameterization beats many one-off
    ones. Equal-cost solutions resolve to the lexicographically smallest
    action encoding. Returns (actions, cost, optimal); ``optimal`` goes
    False only if the node budget was exhausted, in which case the best
    hitting set found so far is returned.
    """
    sets = [frozenset(s) for s in partial_sets]
    if any(not s for s in sets):
        raise ValueError("cannot hit an empty candidate set")
    # Identical sets are one constraint; supersets are implied by subsets.
    unique = []
    for s in sorted(set(sets), key=lambda s: (len(s), sorted(a.sort_key() for a in s))):
        if not any(keep < s for keep in unique):
            unique.append(s)
    if not unique:
        return frozenset(), 0, True

    def cost_of(actions) -> int:
        kinds = {a.kind for a in actions}
        return op_cost * len(kinds) + param_cost * len(actions)

    coverage: dict = {}
    for idx, s in enumerate(unique):
        for a in s:
            coverage.setdefault(a, 0)
            coverage[a] |= 1 << idx
    full_mask = (1 << len(unique)) - 1

    # Greedy warm start gives the search a finite bound immediately.
    greedy: set = set()
    covered = 0
    ordered_actions = sorted(coverage, key=lambda a: a.sort_key())
    while covered != full_mask:
        gains = [bin(coverage[a] & ~covered).count("1") for a in ordered_actions]
        best_a = ordered_actions[int(np.argmax(gains))]
        greedy.add(best_a)
        covered |= coverage[best_a]
    best_actions = frozenset(greedy)
    best_cost = cost_of(best_actions)
    best_key = _solution_key(best_actions)

    set_actions = [sorted(s, key=lambda a: a.sort_key()) for s in unique]
    nodes = 0
    exhausted = False

    def lower_bound(uncovered_mask: int, current_cost: int) -> int:
        # Greedily pack sets that share no candidate action: each needs its
        # own new action, so their count is an admissible increment.
        packed = 0
        remaining = uncovered_mask
        for idx in range(len(unique)):
            bit = 1 << idx
            if remaining & bit:
                packed += param_cost
                union = 0
                for a in set_actions[idx]:
                    union |= coverage[a]
                remaining &= ~union
        return current_cost + packed

    def search(uncovered_mask: int, chosen: list, kinds: set, current_cost: int) -> None:
        nonlocal best_actions, best_cost, best_key, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if uncovered_mask == 0:
            key = _solution_key(chosen)
            if current_cost < best_cost or (current_cost == best_cost and key < best_key):
                best_actions = frozenset(chosen)
                best_cost = current_cost
                best_key = key
            return
        if lower_bound(uncovered_mask, current_cost) > best_cost:
            return
        # Branch on the uncovered set with the fewest candidates.
        pick = -1
        pick_size = None
        for idx in range(len(unique)):
            if uncovered_mask & (1 << idx):
                size = len(set_actions[idx])
                if pick_size is None or size < pick_size:
                    pick, pick_size = idx, size
        for action in set_actions[pick]:
            extra = param_cost + (0 if action.kind in kinds else op_cost)
            if current_cost + extra > best_cost:
                continue
            kinds_after = kinds | {action.kind}
            chosen.append(action)
            search(uncovered_mask & ~coverage[action], chosen, kinds_after, current_cost + extra)
            chosen.pop()

    search(full_mask, [], set(), 0)
    return best_actions, best_cost, not exhausted


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


def _assignment_params(action: Action) -> tuple:
    return action.params


def _explain_under_hypothesis(
    demos, hyp, size, encoder, palette, node_budget
):
    """Candidate sets, hitting set and assignments for one hypothesis.

    Returns (result dict, None) or (None, rejection reason).
    """
    in_scenes = [perceive(inp, hyp, encoder, palette) for inp, _ in demos]
    out_scenes = [perceive(out, hyp, encoder, palette) for _, out in demos]

    items = []  # (demo_idx, out_idx, in_idx, candidate action set)
    for demo_idx, (in_scene, out_scene) in enumerate(zip(in_scenes, out_scenes)):
        ins = in_scene.objects
        if not out_scene.objects:
            continue
        if not ins:
            return None, "output objects with no input objects to explain them"
        all_cells = frozenset().union(*(o.mask.cells for o in ins))
        out_dims = (int(out_scene.grid.shape[0]), int(out_scene.grid.shape[1]))
        for out_idx, out_obj in enumerate(out_scene.objects):
            in_idx = correspondence(out_obj, ins)
            inp = ins[in_idx]
            allowed = candidate_operations(inp, out_obj)
            if size.kind == "function":
                allowed = allowed | {OperationKind.EXTRACT}
            ctx = SceneContext(dims=out_dims, occupied=all_cells - inp.mask.cells)
            actions = dsl.infer_actions(inp.mask, out_obj.mask, allowed, ctx)
            if not actions:
                return None, f"demo {demo_idx} output object {out_idx} admits no action"
            items.append((demo_idx, out_idx, in_idx, actions))

    action_set, cost, optimal = minimum_hitting_set(
        [actions for *_, actions in items], node_budget=node_budget
    )

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
        params = _assignment_params(a.action)
        if key in seen and seen[key] != params:
            return None, "identical input objects demand conflicting parameters"
        seen[key] = params

    total_outputs = len(items)
    if total_outputs:
        if cost / total_outputs > OP_COST + PARAM_COST:
            return None, "explanation cost exceeds the per-object budget"
        if _novel_generate_fraction(assignments, in_scenes) > 0.5:
            return None, "most output objects need one-off generate actions"

    return (
        {
            "action_set": tuple(sorted(action_set, key=lambda a: a.sort_key())),
            "cost": cost,
            "optimal": optimal,
            "assignments": assignments,
            "input_scenes": in_scenes,
            "output_scenes": out_scenes,
        },
        None,
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
        own = {
            "colour": dsl.Colour(inp.mask.colour),
            "centre": dsl.Centre(*inp.mask.centre_point()),
            "shape": dsl.Shape(inp.mask.offsets()),
        }
        all_novel = True
        for slot, value in a.action.params:
            if slot_counts[(slot, value)] > 1 or own.get(slot) == value:
                all_novel = False
                break
        if all_novel:
            novel += 1
    return novel / len(assignments)


def abduce(
    demos: list[tuple[Grid, Grid]],
    encoder: SspEncoder,
    palette: Vocabulary,
    node_budget: int = NODE_BUDGET,
) -> AbductionResult:
    """Explain the demonstrations; never raises on unexplainable tasks."""
    if not demos:
        return AbductionResult(False, "no demonstrations", None, SizeHypothesis("identity"))
    size = choose_size_hypothesis(demos)
    ranking = rank_object_hypotheses(demos, encoder, palette)
    trace: list[str] = []
    for hyp, score in ranking:
        explained, reason = _explain_under_hypothesis(
            demos, hyp, size, encoder, palette, node_budget
        )
        if explained is None:
            trace.append(f"hypothesis={hyp.value} score={score:.6f} status=rejected ({reason})")
            continue
        trace.append(
            f"hypothesis={hyp.value} score={score:.6f} cost={explained['cost']} status=accepted"
        )
        return AbductionResult(
            ok=True,
            reason=None,
            hypothesis=hyp,
            size=size,
            action_set=explained["action_set"],
            cost=explained["cost"],
            assignments=explained["assignments"],
            input_scenes=explained["input_scenes"],
            output_scenes=explained["output_scenes"],
            trace=trace,
            optimal=explained["optimal"],
        )
    return AbductionResult(
        ok=False,
        reason="every segmentation hypothesis was rejected",
        hypothesis=None,
        size=size,
        trace=trace,
    )
