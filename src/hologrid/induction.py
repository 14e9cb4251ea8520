"""Rule learning: generalize explained demonstrations into a reusable program.

The explanation stage leaves us with per-object action assignments. Here
those observations become a program of rules, one per operation kind. Each
rule carries a condition predictor (does this operation apply to a given
object?) and one parameter predictor per slot (with what arguments?). Both
kinds of predictor consume the holographic object vectors, so a single
weight vector or matrix is enough; no deep architecture is involved.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Optional, Union

import numpy as np
from numpy.typing import NDArray

from . import dsl, ssp, vsa
from .abduction import AbductionResult
from .dsl import Amount, Centre, Colour, Direction, OperationKind, ParamValue
from .perception import PROPERTIES, ObjectRepr, shape_bundle
from .ssp import SspEncoder
from .vsa import HyperVector, Vocabulary, VsaConfig

# Full-batch gradient descent budget, shared by both predictor families.
LEARNING_RATE = 0.05
MAX_EPOCHS = 500
LOSS_FLOOR = 1e-4
INITIAL_STEEPNESS = 5.0
DECODE_FLOOR = 0.3
FIRE_THRESHOLD = 0.5  # a probability of exactly one half still fires

PROGRAM_FORMAT = "hologrid-program"
PROGRAM_VERSION = 1

PropertySubset = tuple[str, ...]


class InductionError(ValueError):
    """Raised when rule learning is invoked on unusable inputs."""


# --------------------------------------------------------------------------
# property subsets


def canonical_subset(names) -> PropertySubset:
    subset = tuple(p for p in PROPERTIES if p in set(names))
    if not subset or len(subset) != len(set(names)):
        raise InductionError(f"not a property subset: {names!r}")
    return subset


def subset_vector(obj: ObjectRepr, subset: PropertySubset) -> HyperVector:
    """Bundle of the selected property vectors."""
    return vsa.bundle([obj.vector(name) for name in subset])


def subset_matrix(objects, subset: PropertySubset) -> NDArray[np.float64]:
    return np.stack([subset_vector(o, subset) for o in objects])


def property_scores(bundles: _Bundles, labels) -> NDArray[np.float64]:
    """Relevance of each property for separating the given grouping.

    For property p: mean pairwise similarity among objects treated alike,
    minus-squared against the mean among objects treated differently.
    Missing pair classes contribute zero. Similarities are read from the
    task's ``_Bundles``, one label per object.
    """
    labels = np.asarray(labels)
    idx_a, idx_b = np.triu_indices(len(labels), k=1)
    same = labels[idx_a] == labels[idx_b]
    scores = np.zeros(len(PROPERTIES))
    for k, gram in enumerate(bundles.grams):
        sims = gram[idx_a, idx_b]
        s_same = float(sims[same].mean()) if same.any() else 0.0
        s_diff = float(sims[~same].mean()) if (~same).any() else 0.0
        scores[k] = s_same**2 - s_diff**2
    return scores


def rank_properties(bundles: _Bundles, labels) -> list[PropertySubset]:
    """Candidate property subsets, most promising first.

    Singletons in descending score order, then pairs by score sum, then the
    full triple; ties keep the canonical colour/centre/shape order.
    """
    scores = {name: s for name, s in zip(PROPERTIES, property_scores(bundles, labels))}
    singles = sorted(PROPERTIES, key=lambda p: (-scores[p], PROPERTIES.index(p)))
    ranked: list[PropertySubset] = [(p,) for p in singles]
    pairs = sorted(
        combinations(PROPERTIES, 2),
        key=lambda pr: (-(scores[pr[0]] + scores[pr[1]]), pr),
    )
    ranked.extend(pairs)
    ranked.append(PROPERTIES)
    return ranked


# --------------------------------------------------------------------------
# operation predictor


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def operation_loss(weights, steepness, threshold, inputs, targets) -> float:
    """Binary cross-entropy of sigmoid(steepness * (inputs @ weights - threshold))."""
    z = steepness * (inputs @ weights - threshold)
    # log(1 + e^-|z|) form stays finite for any z.
    per_sample = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    return float(per_sample.mean())


def operation_loss_grad(weights, steepness, threshold, inputs, targets):
    """Loss plus exact gradients w.r.t. weights, steepness, and threshold."""
    margins = inputs @ weights - threshold
    z = steepness * margins
    probs = _sigmoid(z)
    resid = (probs - targets) / len(targets)
    loss = operation_loss(weights, steepness, threshold, inputs, targets)
    grad_w = steepness * (inputs.T @ resid)
    grad_steepness = float(resid @ margins)
    grad_threshold = float(-steepness * resid.sum())
    return loss, grad_w, grad_steepness, grad_threshold


@dataclass
class OperationPredictor:
    """Condition side of a rule.

    ``weights is None`` marks the vacuous predictor: the operation applied
    to every observed object, so the condition always holds. Otherwise the
    weight vector is a unit-length prototype and the output is
    sigmoid(steepness * (similarity - threshold)).
    """

    subset: PropertySubset
    weights: Optional[HyperVector] = None
    steepness: float = INITIAL_STEEPNESS
    threshold: float = 0.0

    def probability(self, obj: ObjectRepr) -> float:
        if self.weights is None:
            return 1.0
        sim = float(self.weights @ subset_vector(obj, self.subset))
        return float(_sigmoid(self.steepness * (sim - self.threshold)))


def _normable(norms) -> NDArray[np.bool_]:
    # What vsa.normalize accepts: a finite, non-zero length.
    return (norms > 0.0) & np.isfinite(norms)


def _starts(rows, train, labels) -> NDArray[np.float64]:
    """Coefficients over ``rows`` of each run's unit starting weights, (R, M); zero where those cannot be normalized.

    ``train`` and ``labels`` (R, M) hold each run's training rows and
    targets. A run starts from its positive training rows' sum less its
    negative ones; where the classes cancel (that sum, built in R^N, is
    under 1e-12 long), from the positive sum.
    """
    pos = train & labels
    coef = pos - (train & ~labels).astype(np.float64)
    lengths = np.linalg.norm(coef @ rows, axis=1)
    cancelled = lengths < 1e-12
    coef[cancelled] = pos[cancelled]
    lengths[cancelled] = np.linalg.norm(coef[cancelled] @ rows, axis=1)
    refused = ~_normable(lengths)
    coef[refused], lengths[refused] = 0.0, 1.0
    return coef / lengths[:, None]


def _operator(rows) -> NDArray[np.float64]:
    """[G P] (M, 2M): the rows' Gram and the projector onto its row space (eigenvalues up to M * eps * max are zero)."""
    gram = rows @ rows.T
    values, vectors = np.linalg.eigh(gram)
    kept = vectors[:, values > len(gram) * np.finfo(np.float64).eps * values[-1]]
    return np.hstack([gram, kept @ kept.T])


@dataclass
class _Conditions:
    """A batch of trained condition predictors, as coefficients over their rows.

    ``weights[f]`` are run f's unit weights as a combination of its rows and
    ``scores[f]`` their similarity to each row. A ``refused`` run met a
    weight vector that cannot be normalized, where training in R^N would
    raise ValueError.
    """

    weights: NDArray[np.float64]  # (F, M)
    steepness: NDArray[np.float64]  # (F,)
    threshold: NDArray[np.float64]  # (F,)
    scores: NDArray[np.float64]  # (F, M)
    refused: NDArray[np.bool_]  # (F,)

    def fires(self) -> NDArray[np.bool_]:
        z = self.steepness[:, None] * (self.scores - self.threshold[:, None])
        return _sigmoid(z) >= FIRE_THRESHOLD

    def with_mirrors(self, mirror) -> "_Conditions":
        """The full batch of runs that ``_mirror_runs`` returned ``mirror`` for.

        This batch holds the runs where ``mirror`` is -1, in order; each
        other run f is run ``mirror[f]`` with weights, threshold and scores
        negated and steepness kept.
        """
        own = mirror < 0
        source = np.empty(len(mirror), dtype=np.int64)
        source[own] = np.arange(own.sum())
        source[~own] = source[mirror[~own]]
        sign = np.where(own, 1.0, -1.0)
        weights, scores = (part[source] * sign[:, None] for part in (self.weights, self.scores))
        return _Conditions(weights, self.steepness[source], self.threshold[source] * sign, scores, self.refused[source])


def _mirror_runs(operators, starts, train) -> NDArray[np.int64]:
    """The earlier run each run mirrors, or -1.

    Run g mirrors run f when both have the same rows and training rows and
    g's starting coefficients are the negation of f's. A start's signs are
    its run's training labels, so g's are the complement of f's. A run
    whose classes cancel starts from its positive prototype, which no start
    negates (its zeros would be -0.0), so it is never mirrored.
    """
    mirror = np.full(len(train), -1)
    trained: dict[tuple[bytes, ...], int] = {}
    for f, (operator, start, used) in enumerate(zip(operators, starts, train)):
        key = (operator.tobytes(), used.tobytes())
        partner = trained.get(key + ((-start[used]).tobytes(),))
        if partner is not None:
            mirror[f] = partner
        else:
            trained.setdefault(key + (start[used].tobytes(),), f)
    return mirror


def _train_conditions(operators, starts, train, labels) -> _Conditions:
    """Condition training for a batch of runs, each over its own rows.

    Run f's rows give ``operators[f]`` = [G P] (``_operator``), its weights
    start from the coefficients ``starts[f]`` (``_starts``; a run with no
    start is refused), ``train[f]`` marks the rows it trains on (at least one
    of each label) and ``labels[f]`` the targets. Every step adds a
    combination of training rows, so the weights stay a combination a of the
    rows (the representer theorem) and the descent on ``operation_loss`` runs
    on a, step for step as in R^N: G a holds every similarity and a·G a the
    squared length that renormalizes each step. Dependent rows leave steps
    in G's null space, which renormalizing would blow up, and with them the
    rounding of G a; so a is projected, P a, after every step. Steepness is
    clamped at 1e-3. A run takes ``MAX_EPOCHS`` steps unless its loss falls
    below ``LOSS_FLOOR`` first, from which point its row is frozen.

    A run that mirrors an earlier one (``_mirror_runs``) is not trained:
    complementing the labels negates the label signs, the starting
    coefficients and the threshold, so the loss and the steepness stay equal
    and every step is negated, bit for bit. The mirrored run is the earlier
    one with weights, threshold and scores negated.
    """
    mirror = _mirror_runs(operators, starts, train)
    if (mirror >= 0).any():
        own = mirror < 0
        return _train_conditions(operators[own], starts[own], train[own], labels[own]).with_mirrors(mirror)
    # A run's state a^T [G P] = [G a, P a] (G and P are symmetric): its scores and coefficients.
    width = operators.shape[1]
    state = np.matmul(starts[:, None, :], operators)[:, 0]
    pos, neg = train & labels, train & ~labels
    refused = ~starts.any(axis=1)
    scores = state[:, :width]
    threshold = ((scores * pos).sum(axis=1) / pos.sum(axis=1) + (scores * neg).sum(axis=1) / neg.sum(axis=1)) / 2.0
    steepness = np.full(len(train), INITIAL_STEEPNESS)

    # A row's loss is softplus(-z), z = k * margin with the margin signed by its label, and
    # LEARNING_RATE times minus the loss gradient in z is push = LEARNING_RATE * share / (1 + e^z).
    # The step k * sign * push is added to the coefficients, and its sum taken off the threshold.
    sign = np.where(labels, 1.0, -1.0)
    share = train / train.sum(axis=1, keepdims=True)  # each training row's weight in the mean
    rate = LEARNING_RATE * share * sign
    # A run's loss is at least softplus(-z) / n at each of its n training rows, so a row
    # with z <= decisive keeps it over 4 * LOSS_FLOOR; the loss is evaluated only when
    # an active run has no such row. Rows outside training hold NaN, which never compares true.
    decisive = np.where(train, -np.log(np.expm1(4.0 * LOSS_FLOOR * train.sum(axis=1, keepdims=True))), np.nan)
    active = ~refused
    everyone = not refused.any()  # active.all()
    for _ in range(MAX_EPOCHS):
        distance = state[:, :width] - threshold[:, None]
        k = steepness[:, None]
        z = k * (sign * distance)
        decided = (z <= decisive).any(axis=1)
        if not (decided.all() if everyone else (decided | ~active).all()):
            softplus = np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))
            active &= ~(np.einsum("fi,fi->f", softplus, share) < LOSS_FLOOR)
            everyone = bool(active.all())
        if not (everyone or active.any()):
            break
        push = rate / (1.0 + np.exp(z))  # signed by label
        step = k * push
        stepped = np.matmul((state[:, width:] + step)[:, None, :], operators)[:, 0]
        lengths = np.sqrt(np.einsum("fi,fi->f", stepped[:, :width], stepped[:, width:]))
        if not (0.0 < lengths.min() and lengths.max() < np.inf):
            ok = _normable(lengths)
            refused |= active & ~ok
            active &= ok
            everyone = bool(active.all())
            lengths[~ok] = 1.0
        stepped /= lengths[:, None]
        update = (stepped, threshold - step.sum(axis=1), np.maximum(steepness + np.einsum("fi,fi->f", push, distance), 1e-3))
        if not everyone:  # frozen runs keep their state
            for new, old in zip(update, (state, threshold, steepness)):
                new[~active] = old[~active]
        state, threshold, steepness = update
    return _Conditions(state[:, width:], steepness, threshold, state[:, :width], refused)


# --------------------------------------------------------------------------
# parameter encoding / decoding


@dataclass
class ParamCodec:
    """Translates slot values to and from hypervectors."""

    encoder: SspEncoder
    palette: Vocabulary
    directions: Vocabulary  # keyed by Direction
    colours: Vocabulary  # keyed by Colour, 1..9

    def encode(self, slot: str, value: ParamValue) -> HyperVector:
        if slot == "colour":
            return self.colours[value]
        if slot == "centre":
            return self.encoder.encode((value.x, value.y))
        if slot == "amount":
            return self.encoder.encode((value.dx, value.dy))
        if slot == "direction":
            return self.directions[value]
        if slot == "shape":
            return shape_bundle(value.offsets, self.encoder)
        raise KeyError(slot)

    def decode(self, slot: str, vector: HyperVector, dims, shapes: Optional[Vocabulary]):
        """Nearest valid slot value, or None when the signal is too weak.

        ``dims`` bounds the lattice for the continuous slots. A discrete slot
        keeps the value its cleanup table recalls when the similarity reaches
        ``DECODE_FLOOR``; the shape slot's table is ``shapes``, the
        ``shape_vocabulary`` of the candidate shapes (None when there are none).
        """
        if slot in ("centre", "amount"):
            rows, cols = dims
            if slot == "centre":
                region = ((-(cols - 1) / 2, (cols - 1) / 2), (-(rows - 1) / 2, (rows - 1) / 2))
            else:
                region = ((-(cols - 1), cols - 1), (-(rows - 1), rows - 1))
            (x, y), _ = ssp.decode(self.encoder, vector, region, step=0.5)
            return Centre(x, y) if slot == "centre" else Amount(x, y)
        table = {"colour": self.colours, "direction": self.directions, "shape": shapes}[slot]
        if table is None:
            return None
        try:
            unit = vsa.normalize(vector)
        except ValueError:
            return None
        value, sim = table.cleanup(unit)
        return value if sim >= DECODE_FLOOR else None


def shape_vocabulary(shape_values, encoder: SspEncoder) -> Vocabulary:
    """Cleanup table of the candidate shapes, keyed by ``Shape``."""
    return Vocabulary(encoder.config, ((s, shape_bundle(s.offsets, encoder)) for s in shape_values))


def make_codec(encoder: SspEncoder, palette: Vocabulary) -> ParamCodec:
    config = encoder.config
    directions = Vocabulary(config, ((d, vsa.random_symbol(config, f"direction:{d.value}")) for d in Direction))
    colours = Vocabulary(config, ((Colour(c), palette[c]) for c in range(1, 10)))
    return ParamCodec(encoder, palette, directions, colours)


# --------------------------------------------------------------------------
# parameter predictors


@dataclass
class ConstantParameter:
    """Every observation used the same value; always predict it."""

    value: ParamValue

    def predict(self, obj: ObjectRepr, dims, codec: ParamCodec) -> Optional[ParamValue]:
        return self.value


@dataclass
class CopyParameter:
    """The value always matched one of the object's own properties."""

    prop: str

    def predict(self, obj: ObjectRepr, dims, codec: ParamCodec) -> Optional[ParamValue]:
        return dsl.own_value(obj.mask, self.prop)


@dataclass
class LinearParameter:
    """Learned linear map from a property bundle to the slot-value vector.

    The matrix is held in factored form: a circulant core (binding with
    ``base``) plus a rank-limited correction spanned by the training inputs.
    That keeps memory at O(m * N) instead of N * N and makes training a
    small m-dimensional iteration, with identical results to the dense map.
    """

    slot: str
    subset: PropertySubset
    base: HyperVector
    inputs: NDArray[np.float64]  # (m, N), training bundles as rows
    correction: NDArray[np.float64]  # (m, N); W = circulant(base) + correction.T @ inputs
    # The shape slot's candidate shapes, in first-seen order, as their cleanup table
    shapes: Optional[Vocabulary] = field(default=None, repr=False, compare=False)

    def apply(self, x: HyperVector) -> HyperVector:
        return vsa.bind(self.base, x) + self.correction.T @ (self.inputs @ x)

    def predict(self, obj: ObjectRepr, dims, codec: ParamCodec) -> Optional[ParamValue]:
        raw = self.apply(subset_vector(obj, self.subset))
        return codec.decode(self.slot, raw, dims, self.shapes)


ParameterPredictor = Union[ConstantParameter, CopyParameter, LinearParameter]


def parameter_loss(weights, inputs, targets) -> float:
    """Mean squared reconstruction error of a dense map; inputs/targets as rows."""
    resid = inputs @ weights.T - targets
    return float(np.mean(np.sum(resid * resid, axis=1)))


def parameter_loss_grad(weights, inputs, targets):
    resid = inputs @ weights.T - targets
    loss = float(np.mean(np.sum(resid * resid, axis=1)))
    grad = (2.0 / len(inputs)) * resid.T @ inputs
    return loss, grad


def circulant_matrix(vec: HyperVector) -> NDArray[np.float64]:
    """Dense matrix whose product equals binding with ``vec``; test bridge."""
    n = vec.shape[0]
    i, j = np.indices((n, n))
    return vec[(i - j) % n]


def _train_linear_factors(inputs, targets):
    """Gradient descent on the factored map; returns (base, correction).

    The map is W = W0 + C^T X, where W0 binds with ``base`` and X stacks the
    inputs x_i as rows. Row i of the residual R is bind(base, x_i) + (G C)_i - y_i
    with G = X X^T, and a gradient step on W is the step
    C <- C - (2 LEARNING_RATE / m) R.
    So the loop runs in (m, N) arrays and never forms W.
    """
    m = len(inputs)
    base = np.mean([vsa.unbind(y, x) for x, y in zip(inputs, targets)], axis=0)
    bound = np.stack([vsa.bind(base, x) for x in inputs])
    gram = inputs @ inputs.T
    correction = np.zeros_like(inputs)
    for _ in range(MAX_EPOCHS):
        resid = bound + gram @ correction - targets
        loss = float(np.mean(np.sum(resid * resid, axis=1)))
        if loss < LOSS_FLOOR:
            break
        correction = correction - (2.0 * LEARNING_RATE / m) * resid
    return base, correction


def _shortcut_predictor(pairs, slot: str) -> Optional[ParameterPredictor]:
    """Constant when every value matches, copy when every value is exactly the object's own."""
    values = [v for _, v in pairs]
    if all(v == values[0] for v in values):
        return ConstantParameter(values[0])
    if slot in PROPERTIES and all(v == dsl.own_value(obj.mask, slot) for obj, v in pairs):
        return CopyParameter(slot)
    return None


def train_parameter_predictor(pairs, slot: str, subset: PropertySubset, codec: ParamCodec) -> ParameterPredictor:
    """Shortcuts first (constant value, copied property), then a linear map."""
    if not pairs:
        raise InductionError("parameter predictor needs at least one example")
    values = [v for _, v in pairs]
    shortcut = _shortcut_predictor(pairs, slot)
    if shortcut is not None:
        return shortcut
    subset = canonical_subset(subset)
    inputs = subset_matrix([obj for obj, _ in pairs], subset)
    targets = np.stack([codec.encode(slot, v) for _, v in pairs])
    base, correction = _train_linear_factors(inputs, targets)
    shapes = shape_vocabulary(dict.fromkeys(values), codec.encoder) if slot == "shape" else None
    return LinearParameter(slot, subset, base, inputs, correction, shapes)


# --------------------------------------------------------------------------
# programs


@dataclass
class Rule:
    kind: OperationKind
    condition: OperationPredictor
    parameters: dict[str, ParameterPredictor]


@dataclass
class Program:
    rules: tuple[Rule, ...]


class _Bundles:
    """The property vectors and subset bundles of one task's demo objects.

    The objects' property vectors are stacked once, on first use, and shared
    by every subset, fold and rule kind of the task. A subset's rows are the
    objects' subset bundles, bitwise ``subset_matrix``, so training reads
    the vectors that ``OperationPredictor.probability`` reads. Subset
    ranking reads each property's Gram from the same stack.
    """

    def __init__(self, objects: list[ObjectRepr]):
        self.objects = objects

    @cached_property
    def _properties(self) -> NDArray[np.float64]:
        """(3, M, N): each property's vectors, in ``PROPERTIES`` order."""
        return np.array([[o.vector(p) for o in self.objects] for p in PROPERTIES])

    @cached_property
    def grams(self) -> list[NDArray[np.float64]]:
        """Similarities between the objects' vectors of each property, (M, M), in ``PROPERTIES`` order."""
        return [vectors @ vectors.T for vectors in self._properties]

    def rows(self, subset: PropertySubset) -> NDArray[np.float64]:
        """The objects' subset bundles, (M, N)."""
        return vsa.normalize_rows(self._properties[[PROPERTIES.index(p) for p in subset]].sum(axis=0))


@dataclass
class _RuleObservations:
    """Everything rule learning needs about one operation kind."""

    kind: OperationKind
    objects: list[ObjectRepr]  # all demo input objects, flattened
    demo_of: NDArray[np.int64]
    labels: NDArray[np.bool_]  # was this object subject to the operation?
    pairs_by_slot: dict[str, list[tuple[int, ParamValue]]]  # object index -> value
    out_dims: dict[int, tuple[int, int]]
    bundles: _Bundles  # over ``objects``, shared by the kinds of one task

    def folds(self) -> list[int]:
        """Demos to hold out in turn; a fold is skipped when no positive is left to train on."""
        return [d for d in np.unique(self.demo_of).tolist() if self.labels[self.demo_of != d].any()]

    def pairs(self, slot: str) -> list[tuple[ObjectRepr, ParamValue]]:
        """The (object, value) observations of one parameter slot."""
        return [(self.objects[i], v) for i, v in self.pairs_by_slot[slot]]


def _observations(result: AbductionResult) -> dict[OperationKind, _RuleObservations]:
    """One record per operation kind over the flattened demo input objects.

    The action set's kinds come first, in its order, which is the order of
    the program's rules; every other kind follows with no positives.
    """
    keys = [(d, i) for d, scene in enumerate(result.input_scenes) for i in range(len(scene.objects))]
    objects = [result.input_scenes[d].objects[i] for d, i in keys]
    index_of = {key: n for n, key in enumerate(keys)}
    demo_of = np.array([d for d, _ in keys], dtype=np.int64)
    out_dims = {d: tuple(scene.grid.shape) for d, scene in enumerate(result.output_scenes)}
    bundles = _Bundles(objects)
    assigned: dict[OperationKind, list] = {kind: [] for kind in [a.kind for a in result.action_set] + list(OperationKind)}
    for a in result.assignments:
        assigned[a.action.kind].append((index_of[(a.demo_index, a.input_index)], a.action))
    observations = {}
    for kind, acted in assigned.items():
        labels = np.zeros(len(objects), dtype=bool)
        labels[[i for i, _ in acted]] = True
        pairs_by_slot = {slot: [(i, action.param(slot)) for i, action in acted] for slot in dsl.PARAM_SLOTS[kind]}
        observations[kind] = _RuleObservations(kind, objects, demo_of, labels, pairs_by_slot, out_dims, bundles)
    return observations


@dataclass
class _KindConditions:
    """Condition training of one rule kind, from the task's shared batch."""

    accuracy: NDArray[np.float64]  # (subsets, folds): held-out accuracy
    full: dict[PropertySubset, tuple[_Conditions, int]]  # fit on every object, by subset

    def predictor(self, obs: _RuleObservations, subset: PropertySubset) -> OperationPredictor:
        """The full-data condition; vacuous when no object is a negative."""
        if subset not in self.full:
            return OperationPredictor(subset=subset)
        fit, run = self.full[subset]
        if fit.refused[run]:
            raise ValueError("cannot normalize a zero or non-finite vector")
        weights = vsa.normalize(fit.weights[run] @ obs.bundles.rows(subset))
        return OperationPredictor(subset, weights, float(fit.steepness[run]), float(fit.threshold[run]))


def train_operation_predictor(plans) -> list[_KindConditions]:
    """Every condition training of a task in one batch.

    ``plans`` holds (observations, candidate subsets, folds) per rule kind.
    Each kind trains one run per (subset, fold) for cross-validation and
    one per subset on every object, so the final fit is ready whichever
    subset wins. A fold with no negatives to train on keeps the vacuous
    condition, which fires on every held-out object. Each subset's rows and
    operator are built once, for the runs of every kind.
    """
    results, by_subset = [], {}  # (bundles, subset) -> per run (kind, subset index, fold or None, training rows)
    for k, (obs, subsets, folds) in enumerate(plans):
        held = [obs.demo_of == d for d in folds]
        accuracy = np.tile([np.mean(obs.labels[h]) for h in held], (len(subsets), 1))
        results.append(_KindConditions(accuracy, {}))
        if obs.labels.all():
            continue
        trained = [(f, ~h) for f, h in enumerate(held) if (~obs.labels & ~h).any()]
        everything = np.ones(len(obs.objects), dtype=bool)
        for s, subset in enumerate(subsets):
            group = by_subset.setdefault((obs.bundles, subset), [])
            group.extend((k, s, f, train) for f, train in trained + [(None, everything)])
    if not by_subset:
        return results
    runs, batch = [], []  # per run (kind, subset index, fold); per subset the trainer's inputs
    for (bundles, subset), group in by_subset.items():
        rows = bundles.rows(subset)
        train = np.stack([used for *_, used in group])
        labels = np.stack([plans[k][0].labels for k, *_ in group])
        batch.append((np.repeat(_operator(rows)[None], len(group), axis=0), _starts(rows, train, labels), train, labels))
        runs.extend((k, s, f) for k, s, f, _ in group)
    operators, starts, train, labels = (np.concatenate(part) for part in zip(*batch))
    fit = _train_conditions(operators, starts, train, labels)
    if any(fit.refused[r] for r, (_, _, f) in enumerate(runs) if f is not None):
        raise ValueError("cannot normalize a zero or non-finite vector")
    hits = fit.fires() == labels
    for r, (k, s, f) in enumerate(runs):
        if f is None:
            results[k].full[plans[k][1][s]] = (fit, r)
        else:
            results[k].accuracy[s, f] = np.mean(hits[r, ~train[r]])
    return results


def _fold_score(obs: _RuleObservations, subset, held_out, condition: float, codec: ParamCodec) -> float:
    components = [condition]
    dims = obs.out_dims[held_out]
    slot_scores = []
    for slot, pairs in obs.pairs_by_slot.items():
        train_pairs = [(obs.objects[i], v) for i, v in pairs if obs.demo_of[i] != held_out]
        test_pairs = [(obs.objects[i], v) for i, v in pairs if obs.demo_of[i] == held_out]
        if not train_pairs or not test_pairs:
            continue
        predictor = train_parameter_predictor(train_pairs, slot, subset, codec)
        slot_scores.append(
            float(np.mean([predictor.predict(o, dims, codec) == v for o, v in test_pairs]))
        )
    if slot_scores:
        components.append(float(np.mean(slot_scores)))
    # Equal-weight average of condition accuracy and parameter accuracy.
    return float(np.mean(components))


def cross_validate(obs: _RuleObservations, subsets, folds, codec: ParamCodec, conditions: _KindConditions) -> PropertySubset:
    """Leave-one-demonstration-out selection among candidate subsets.

    ``conditions`` carries the condition accuracies, trained by
    ``train_operation_predictor`` over the same subsets and ``folds``
    (``obs.folds()``). Without a fold, as in single-demonstration tasks, the
    top-ranked candidate wins; ties keep the heuristic ranking order.
    """
    best_subset, best_score = subsets[0], -1.0
    for s, subset in enumerate(subsets):
        fold_scores = [
            _fold_score(obs, subset, d, float(conditions.accuracy[s, f]), codec)
            for f, d in enumerate(folds)
        ]
        score = float(np.mean(fold_scores)) if fold_scores else -1.0
        if score > best_score:
            best_subset, best_score = subset, score
    return best_subset


def induce(result: AbductionResult, codec: ParamCodec) -> Program:
    """Turn a successful explanation into a program of per-operation rules."""
    if not result.ok:
        raise InductionError("cannot induce rules from a failed explanation")
    plans = []
    for obs in _observations(result).values():
        if not obs.labels.any():
            continue
        subsets = rank_properties(obs.bundles, obs.labels)
        # Subsets matter only when some predictor trains on property bundles.
        searched = not obs.labels.all() or any(
            _shortcut_predictor(obs.pairs(slot), slot) is None for slot in obs.pairs_by_slot
        )
        folds = obs.folds() if searched else []
        # Without a fold to score, the top-ranked subset is the only candidate.
        plans.append((obs, subsets if folds else subsets[:1], folds))

    rules = []
    for (obs, subsets, folds), conditions in zip(plans, train_operation_predictor(plans)):
        subset = cross_validate(obs, subsets, folds, codec, conditions) if folds else subsets[0]
        try:
            condition = conditions.predictor(obs, subset)
        except ValueError:
            condition = OperationPredictor(subset=subset)
        parameters: dict[str, ParameterPredictor] = {}
        for slot in obs.pairs_by_slot:
            pairs = obs.pairs(slot)
            try:
                parameters[slot] = train_parameter_predictor(pairs, slot, subset, codec)
            except ValueError:
                parameters[slot] = ConstantParameter(pairs[0][1])
        rules.append(Rule(obs.kind, condition, parameters))
    return Program(tuple(rules))


def training_fit(result: AbductionResult, program: Program, codec: ParamCodec) -> bool:
    """Whether the learned rules reproduce every training observation.

    Checks each trained condition against every object's label and each
    parameter prediction against its assigned value. A true fit says the
    rules agree with the explanation, not that rendering a demo input
    reproduces the demo output; replay is the end-to-end check.
    """
    if not result.ok:
        return False
    observations = _observations(result)
    for rule in program.rules:
        obs = observations[rule.kind]
        for obj, label in zip(obs.objects, obs.labels):
            if (rule.condition.probability(obj) >= FIRE_THRESHOLD) != label:
                return False
        for slot, indexed in obs.pairs_by_slot.items():
            predictor = rule.parameters.get(slot)
            if predictor is None:
                return False
            for i, expected in indexed:
                if predictor.predict(obs.objects[i], obs.out_dims[obs.demo_of[i]], codec) != expected:
                    return False
    return True


# --------------------------------------------------------------------------
# serialization


def _predictor_to_json(pred: ParameterPredictor):
    if isinstance(pred, ConstantParameter):
        return {"variant": "constant", "value": dsl.param_value_to_json(pred.value)}
    if isinstance(pred, CopyParameter):
        return {"variant": "copy", "property": pred.prop}
    doc = {
        "variant": "linear",
        "slot": pred.slot,
        "subset": list(pred.subset),
        "base": pred.base.tolist(),
        "inputs": pred.inputs.tolist(),
        "correction": pred.correction.tolist(),
    }
    if pred.shapes is not None:
        doc["shape_values"] = [dsl.param_value_to_json(s) for s in pred.shapes.keys()]
    return doc


def _array_field(doc, name: str, shape) -> NDArray[np.float64]:
    """``doc[name]`` as a float array of ``shape``, where None matches any length."""
    try:
        arr = np.array(doc[name], dtype=np.float64)
    except ValueError:
        raise ValueError(f"{name} is not a rectangular array of numbers") from None
    if arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def _predictor_from_json(doc, slot: str, kind: OperationKind, encoder: SspEncoder) -> ParameterPredictor:
    """The predictor stored under parameter key ``slot`` of a ``kind`` rule."""
    if slot not in dsl.PARAM_SLOTS[kind]:
        raise ValueError(f"{kind.value} has no parameter slot {slot!r}")
    variant = doc["variant"]
    if variant == "constant":
        return ConstantParameter(dsl.param_value_from_json(doc["value"]))
    if variant == "copy":
        if doc["property"] not in PROPERTIES:
            raise ValueError(f"unknown copied property {doc['property']!r}")
        return CopyParameter(doc["property"])
    if variant == "linear":
        if doc["slot"] != slot:
            raise ValueError(f"linear predictor slot {doc['slot']!r} is stored under slot {slot!r}")
        shape_values = tuple(dsl.param_value_from_json(s) for s in doc.get("shape_values") or ())
        n = encoder.config.dimension
        inputs = _array_field(doc, "inputs", (None, n))
        return LinearParameter(
            slot=slot,
            subset=canonical_subset(doc["subset"]),
            base=_array_field(doc, "base", (n,)),
            inputs=inputs,
            correction=_array_field(doc, "correction", inputs.shape),
            shapes=shape_vocabulary(shape_values, encoder) if shape_values else None,
        )
    raise ValueError(f"unknown parameter predictor variant {variant!r}")


def program_to_json(program: Program, config: VsaConfig) -> dict:
    rules = []
    for rule in program.rules:
        cond = {
            "subset": list(rule.condition.subset),
            "weights": None if rule.condition.weights is None else rule.condition.weights.tolist(),
            "steepness": rule.condition.steepness,
            "threshold": rule.condition.threshold,
        }
        rules.append(
            {
                "kind": rule.kind.value,
                "condition": cond,
                "parameters": {s: _predictor_to_json(p) for s, p in rule.parameters.items()},
            }
        )
    return {
        "format": PROGRAM_FORMAT,
        "version": PROGRAM_VERSION,
        "dimension": config.dimension,
        "seed": config.seed,
        "rules": rules,
    }


def program_from_json(doc, config: VsaConfig) -> Program:
    if doc.get("format") != PROGRAM_FORMAT or doc.get("version") != PROGRAM_VERSION:
        raise ValueError("not a recognized program document")
    if doc.get("dimension") != config.dimension or doc.get("seed") != config.seed:
        raise ValueError("program was built under a different vector configuration")
    encoder = SspEncoder(config)  # one per document, shared by its linear shape predictors
    rules = []
    for rd in doc["rules"]:
        cond = rd["condition"]
        condition = OperationPredictor(
            subset=canonical_subset(cond["subset"]),
            weights=None if cond["weights"] is None else _array_field(cond, "weights", (config.dimension,)),
            steepness=float(cond["steepness"]),
            threshold=float(cond["threshold"]),
        )
        kind = OperationKind(rd["kind"])
        parameters = {s: _predictor_from_json(p, s, kind, encoder) for s, p in rd["parameters"].items()}
        rules.append(Rule(kind, condition, parameters))
    return Program(tuple(rules))
