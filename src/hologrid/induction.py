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
from .abduction import AbductionResult, TAU_SAME
from .dsl import Amount, Centre, Colour, Direction, OperationKind, ParamValue, Shape
from .perception import ObjectRepr
from .ssp import SspEncoder
from .vsa import HyperVector, Vocabulary, VsaConfig

PROPERTY_ORDER = ("colour", "centre", "shape")

# Full-batch gradient descent budget, shared by both predictor families.
LEARNING_RATE = 0.05
MAX_EPOCHS = 500
LOSS_FLOOR = 1e-4
INITIAL_STEEPNESS = 5.0
DECODE_FLOOR = 0.3

PROGRAM_FORMAT = "hologrid-program"
PROGRAM_VERSION = 1

PropertySubset = tuple[str, ...]


class InductionError(ValueError):
    """Raised when rule learning is invoked on unusable inputs."""


# --------------------------------------------------------------------------
# property subsets


def canonical_subset(names) -> PropertySubset:
    subset = tuple(p for p in PROPERTY_ORDER if p in set(names))
    if not subset or len(subset) != len(set(names)):
        raise InductionError(f"not a property subset: {names!r}")
    return subset


def property_vector(obj: ObjectRepr, name: str) -> HyperVector:
    if name == "colour":
        return obj.colour_vec
    if name == "centre":
        return obj.centre_vec
    if name == "shape":
        return obj.shape_vec
    raise KeyError(name)


def subset_vector(obj: ObjectRepr, subset: PropertySubset) -> HyperVector:
    """Normalized bundle of the selected property vectors."""
    total = property_vector(obj, subset[0]).copy()
    for name in subset[1:]:
        total += property_vector(obj, name)
    return vsa.normalize(total)


def subset_matrix(objects, subset: PropertySubset) -> NDArray[np.float64]:
    return np.stack([subset_vector(o, subset) for o in objects])


def property_scores(objects, labels) -> NDArray[np.float64]:
    """Relevance of each property for separating the given grouping.

    For property p: mean pairwise similarity among objects treated alike,
    minus-squared against the mean among objects treated differently.
    Missing pair classes contribute zero.
    """
    n = len(objects)
    idx_a, idx_b = np.triu_indices(n, k=1)
    same = np.array([labels[i] == labels[j] for i, j in zip(idx_a, idx_b)], dtype=bool)
    scores = np.zeros(len(PROPERTY_ORDER))
    for k, name in enumerate(PROPERTY_ORDER):
        mat = np.stack([property_vector(o, name) for o in objects]) if n else np.zeros((0, 1))
        sims = (mat @ mat.T)[idx_a, idx_b]
        s_same = float(sims[same].mean()) if same.any() else 0.0
        s_diff = float(sims[~same].mean()) if (~same).any() else 0.0
        scores[k] = s_same**2 - s_diff**2
    return scores


def rank_properties(objects, labels) -> list[PropertySubset]:
    """Candidate property subsets, most promising first.

    Singletons in descending score order, then pairs by score sum, then the
    full triple; ties keep the canonical colour/centre/shape order.
    """
    scores = {name: s for name, s in zip(PROPERTY_ORDER, property_scores(objects, labels))}
    singles = sorted(PROPERTY_ORDER, key=lambda p: (-scores[p], PROPERTY_ORDER.index(p)))
    ranked: list[PropertySubset] = [(p,) for p in singles]
    pairs = sorted(
        combinations(PROPERTY_ORDER, 2),
        key=lambda pr: (-(scores[pr[0]] + scores[pr[1]]), pr),
    )
    ranked.extend(canonical_subset(pr) for pr in pairs)
    ranked.append(PROPERTY_ORDER)
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

    @property
    def vacuous(self) -> bool:
        return self.weights is None

    def probability(self, obj: ObjectRepr) -> float:
        if self.weights is None:
            return 1.0
        sim = float(self.weights @ subset_vector(obj, self.subset))
        return float(_sigmoid(self.steepness * (sim - self.threshold)))


def _row_ids(rows) -> NDArray[np.int64]:
    """Ids that two rows share exactly when they are bitwise equal."""
    seen: dict[bytes, int] = {}
    return np.array([seen.setdefault(r.tobytes(), len(seen)) for r in rows], dtype=np.int64)


@dataclass
class _Span:
    """Coordinates of unit rows in an orthonormal basis of their span.

    Built from the Gram matrix alone, by a pivoted Cholesky factorization:
    identical rows (equal ``ids``) share one coordinate row, and the
    factorization stops once every row lies within rounding of the span
    found so far. Coordinates are padded with zero columns to the row
    count, so the spans of one task stack into a batch.
    """

    coords: NDArray[np.float64]  # (M, M): row i's coordinates
    first: NDArray[np.int64]  # one row index per distinct row
    to_rows: NDArray[np.float64]  # (distinct, M): each basis vector over the distinct rows

    @classmethod
    def of(cls, gram, ids) -> "_Span":
        first = np.unique(ids, return_index=True)[1]
        gram = gram[np.ix_(first, first)]
        n, m = len(first), len(ids)
        # Each step takes the distinct row farthest from the span so far; the
        # part of it outside that span is the next basis direction.
        lower = np.zeros((n, n))
        residual = np.diagonal(gram).copy()  # squared distance of each row from the span
        floor = residual.max() * n * np.finfo(np.float64).eps
        pivots: list[int] = []
        for j in range(n):
            p = int(np.argmax(residual))
            if residual[p] <= floor:
                break
            column = (gram[:, p] - lower[:, :j] @ lower[p, :j]) / np.sqrt(residual[p])
            column[pivots] = 0.0
            column[p] = np.sqrt(residual[p])
            lower[:, j] = column
            pivots.append(p)
            residual -= column**2
            residual[pivots] = 0.0
        rank = len(pivots)
        # The basis in R^N comes from the pivot rows through their inverted triangle.
        triangle = lower[pivots, :rank]
        inverse = np.zeros((rank, rank))
        for j in range(rank):
            inverse[j] = -(triangle[j, :j] @ inverse[:j])
            inverse[j, j] += 1.0
            inverse[j] /= triangle[j, j]
        coords, to_rows = np.zeros((m, m)), np.zeros((n, m))
        coords[:, :rank] = lower[ids, :rank]
        to_rows[pivots, :rank] = inverse.T
        return cls(coords, first, to_rows)

    def vector(self, coef, distinct_rows) -> HyperVector:
        """The vector in R^N with the given coordinates; rows as listed by ``first``."""
        return (self.to_rows @ coef) @ distinct_rows


def _normable(norms) -> NDArray[np.bool_]:
    # What vsa.normalize accepts: a finite, non-zero length.
    return (norms > 0.0) & np.isfinite(norms)


@dataclass
class _SpanConditions:
    """A batch of trained condition predictors, in span coordinates.

    ``weights[f]`` are run f's unit weights in the coordinates of its span
    and ``scores[f]`` their similarity to each row. A ``refused`` run met a
    weight vector that cannot be normalized, where the direct trainer
    raises ValueError.
    """

    weights: NDArray[np.float64]  # (F, M)
    steepness: NDArray[np.float64]  # (F,)
    threshold: NDArray[np.float64]  # (F,)
    scores: NDArray[np.float64]  # (F, M)
    refused: NDArray[np.bool_]  # (F,)

    def fires(self) -> NDArray[np.bool_]:
        z = self.steepness[:, None] * (self.scores - self.threshold[:, None])
        return _sigmoid(z) >= 0.5


def _train_span_conditions(coords, train, labels) -> _SpanConditions:
    """Condition training for a batch of runs, each in the span of its rows.

    ``coords`` (F, M, M) holds each run's rows in span coordinates,
    ``train`` (F, M) the rows it trains on (at least one of each label) and
    ``labels`` (M,) or (F, M) the targets. The weights start as a signed sum
    of training rows and every step adds a combination of them, so they
    never leave the rows' span (the representer theorem). The descent on
    ``operation_loss`` therefore runs there, step for step as it would in
    R^N: weights renormalized after each step, steepness clamped at 1e-3.
    Each run takes ``MAX_EPOCHS`` full-batch steps unless its loss falls
    below ``LOSS_FLOOR`` first, from which point its row is frozen.
    """
    train = np.asarray(train, dtype=bool)
    runs, m = train.shape
    labels = np.broadcast_to(labels, (runs, m))
    pos, neg = train & labels, train & ~labels
    transposed = np.ascontiguousarray(coords.transpose(0, 2, 1))

    def combine(coef):  # sum of coef[i] * row i, in coordinates
        return np.matmul(transposed, coef[..., None])[..., 0]

    def norm(vectors):
        return np.sqrt(np.einsum("fi,fi->f", vectors, vectors))

    diff = combine(pos - neg.astype(np.float64))
    # Both classes bundle to the same point: start from the positive prototype
    # and let the threshold carry the fit.
    diff = np.where((norm(diff) < 1e-12)[:, None], combine(pos.astype(np.float64)), diff)
    lengths = norm(diff)
    refused = ~_normable(lengths)
    lengths[refused] = 1.0
    weights = diff / lengths[:, None]
    scores = np.matmul(coords, weights[..., None])[..., 0]
    threshold = ((scores * pos).sum(axis=1) / pos.sum(axis=1) + (scores * neg).sum(axis=1) / neg.sum(axis=1)) / 2.0
    steepness = np.full(runs, INITIAL_STEEPNESS)

    # With flip = -1 for positives and +1 for negatives, a row's loss is
    # softplus(flip * z) and its residual sigmoid(z) - y is flip * sigmoid(flip * z).
    flip = np.where(labels, -1.0, 1.0)
    share = train / train.sum(axis=1, keepdims=True)  # each training row's weight in the mean
    flip_share = flip * share
    active = ~refused
    for _ in range(MAX_EPOCHS):
        margins = scores - threshold[:, None]
        flipped = steepness[:, None] * margins * flip
        softplus = np.maximum(flipped, 0.0) + np.log1p(np.exp(-np.abs(flipped)))
        loss = np.einsum("fi,fi->f", softplus, share)
        active &= ~(loss < LOSS_FLOOR)
        if not active.any():
            break
        resid = _sigmoid(flipped) * flip_share
        step = weights - LEARNING_RATE * (steepness[:, None] * combine(resid))
        lengths = norm(step)
        ok = _normable(lengths)
        if not ok.all():
            refused |= active & ~ok
            active &= ok
            lengths[~ok] = 1.0
        updated = (
            step / lengths[:, None],
            np.maximum(steepness - LEARNING_RATE * np.einsum("fi,fi->f", resid, margins), 1e-3),
            threshold + LEARNING_RATE * (steepness * resid.sum(axis=1)),  # a step down d loss / d threshold
        )
        if not active.all():
            frozen = ~active
            for new, old in zip(updated, (weights, steepness, threshold)):
                new[frozen] = old[frozen]
        weights, steepness, threshold = updated
        scores = np.matmul(coords, weights[..., None])[..., 0]
    return _SpanConditions(weights, steepness, threshold, scores, refused)


def _materialize(fit: _SpanConditions, run: int, subset, span: _Span, distinct_rows) -> OperationPredictor:
    """One run's predictor, its weights built in R^N from the span's distinct rows."""
    if fit.refused[run]:
        raise ValueError("cannot normalize a zero or non-finite vector")
    weights = vsa.normalize(span.vector(fit.weights[run], distinct_rows))
    return OperationPredictor(subset, weights, float(fit.steepness[run]), float(fit.threshold[run]))


def train_operation_predictor(positives, negatives, subset: PropertySubset) -> OperationPredictor:
    """Fit the condition predictor; no negatives means a vacuous condition."""
    if not positives:
        raise InductionError("operation predictor needs at least one positive example")
    subset = canonical_subset(subset)
    if not negatives:
        return OperationPredictor(subset=subset)
    inputs = subset_matrix(list(positives) + list(negatives), subset)
    rows = len(inputs)
    span = _Span.of(inputs @ inputs.T, _row_ids(inputs))
    fit = _train_span_conditions(
        span.coords[None], np.ones((1, rows), dtype=bool), np.arange(rows) < len(positives)
    )
    return _materialize(fit, 0, subset, span, inputs[span.first])


# --------------------------------------------------------------------------
# parameter encoding / decoding


@dataclass
class ParamCodec:
    """Translates slot values to and from hypervectors."""

    encoder: SspEncoder
    palette: Vocabulary
    directions: Vocabulary
    colours: Vocabulary

    def encode(self, slot: str, value: ParamValue) -> HyperVector:
        if slot == "colour":
            return self.palette[f"colour:{value.value}"]
        if slot == "centre":
            return self.encoder.encode((value.x, value.y))
        if slot == "amount":
            return self.encoder.encode((value.dx, value.dy))
        if slot == "direction":
            return self.directions[value.value]
        if slot == "shape":
            return shape_bundle(value.offsets, self.encoder)
        raise KeyError(slot)

    def decode(self, slot: str, vector: HyperVector, dims, shape_values=None, shapes: Optional[Vocabulary] = None):
        """Nearest valid slot value, or None when the signal is too weak.

        ``dims`` bounds the lattice for the continuous slots. Discrete slots
        go through vocabulary cleanup with a confidence floor; shapes against
        ``shapes``, the ``shape_vocabulary`` of the candidate ``shape_values``.
        """
        if slot in ("centre", "amount"):
            rows, cols = dims
            if slot == "centre":
                region = ((-(cols - 1) / 2, (cols - 1) / 2), (-(rows - 1) / 2, (rows - 1) / 2))
            else:
                region = ((-(cols - 1), cols - 1), (-(rows - 1), rows - 1))
            (x, y), _ = ssp.decode(self.encoder, vector, region, step=0.5)
            return Centre(x, y) if slot == "centre" else Amount(x, y)
        try:
            unit = vsa.normalize(vector)
        except ValueError:
            return None
        if slot == "colour":
            name, sim = self.colours.cleanup(unit)
            return Colour(int(name.split(":")[1])) if sim >= DECODE_FLOOR else None
        if slot == "direction":
            name, sim = self.directions.cleanup(unit)
            return Direction(name) if sim >= DECODE_FLOOR else None
        if slot == "shape":
            if not shape_values:
                return None
            name, sim = shapes.cleanup(unit)
            return shape_values[int(name.split(":")[1])] if sim >= DECODE_FLOOR else None
        raise KeyError(slot)


def shape_bundle(offsets, encoder: SspEncoder) -> HyperVector:
    """Same construction as an object's shape vector, from bare offsets."""
    pts = np.array([(dc, -dr) for dr, dc in sorted(offsets)])
    return vsa.normalize(encoder.encode_many(pts).sum(axis=0))


def shape_vocabulary(shape_values, encoder: SspEncoder) -> Vocabulary:
    """Cleanup table of the candidate shapes, entry i named ``shape:i``."""
    vocab = Vocabulary(encoder.config)
    for i, shape in enumerate(shape_values):
        vocab.add_vector(f"shape:{i}", shape_bundle(shape.offsets, encoder))
    return vocab


def direction_vocabulary(config: VsaConfig) -> Vocabulary:
    vocab = Vocabulary(config)
    for d in Direction:
        vocab.add_vector(d.value, vsa.random_symbol(config, f"direction:{d.value}"))
    return vocab


def make_codec(encoder: SspEncoder, palette: Vocabulary) -> ParamCodec:
    colours = Vocabulary(encoder.config)
    for c in range(1, 10):
        colours.add_vector(f"colour:{c}", palette[f"colour:{c}"])
    return ParamCodec(encoder, palette, direction_vocabulary(encoder.config), colours)


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
        if self.prop == "colour":
            return Colour(obj.mask.colour)
        if self.prop == "centre":
            return Centre(*obj.mask.centre_point())
        return Shape(obj.mask.offsets())


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
    shape_values: Optional[tuple[Shape, ...]] = None
    # shape_vocabulary(shape_values), built once when the predictor is trained or loaded
    shapes: Optional[Vocabulary] = field(default=None, repr=False, compare=False)

    def apply(self, x: HyperVector) -> HyperVector:
        return vsa.bind(self.base, x) + self.correction.T @ (self.inputs @ x)

    def predict(self, obj: ObjectRepr, dims, codec: ParamCodec) -> Optional[ParamValue]:
        raw = self.apply(subset_vector(obj, self.subset))
        return codec.decode(self.slot, raw, dims, self.shape_values, self.shapes)


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

    With W = W0 + C^T X the residual is R = X W^T... kept concretely: row i of
    the residual is bind(base, x_i) + (G C)_i - y_i with G = X X^T, so the
    whole loop runs in (m, N) arrays.
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


def _copy_source_property(slot: str) -> Optional[str]:
    return slot if slot in PROPERTY_ORDER else None


def _shortcut_predictor(pairs, slot: str, codec: ParamCodec) -> Optional[ParameterPredictor]:
    """Constant when every value matches, copy when values track a property."""
    values = [v for _, v in pairs]
    if all(v == values[0] for v in values):
        return ConstantParameter(values[0])
    prop = _copy_source_property(slot)
    if prop is not None:
        sims = [
            float(codec.encode(slot, v) @ property_vector(obj, prop)) for obj, v in pairs
        ]
        if all(s >= TAU_SAME for s in sims):
            return CopyParameter(prop)
    return None


def train_parameter_predictor(pairs, slot: str, subset: PropertySubset, codec: ParamCodec) -> ParameterPredictor:
    """Shortcuts first (constant value, copied property), then a linear map."""
    if not pairs:
        raise InductionError("parameter predictor needs at least one example")
    values = [v for _, v in pairs]
    shortcut = _shortcut_predictor(pairs, slot, codec)
    if shortcut is not None:
        return shortcut
    subset = canonical_subset(subset)
    inputs = subset_matrix([obj for obj, _ in pairs], subset)
    targets = np.stack([codec.encode(slot, v) for _, v in pairs])
    base, correction = _train_linear_factors(inputs, targets)
    if slot != "shape":
        return LinearParameter(slot, subset, base, inputs, correction)
    shape_values = tuple(dict.fromkeys(values))
    shapes = shape_vocabulary(shape_values, codec.encoder)
    return LinearParameter(slot, subset, base, inputs, correction, shape_values, shapes)


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

    def __len__(self) -> int:
        return len(self.rules)


class _SpanBasis:
    """Span coordinates of every property subset over one task's demo objects.

    A subset vector is a normalized sum of property vectors, so each
    subset's Gram matrix follows from 3x3 blocks of the property cross-Gram.
    That takes one (3M x N) product, made on first use and shared by every
    subset, fold and rule kind of the task. A fold trains on some rows of
    its subset's span and scores the rest from the same coordinates.
    """

    def __init__(self, objects: list[ObjectRepr]):
        self.objects = objects
        self._spans: dict[PropertySubset, _Span] = {}

    @cached_property
    def _cross(self):
        props = np.array([[property_vector(o, p) for o in self.objects] for p in PROPERTY_ORDER])
        flat = props.reshape(-1, props.shape[-1])
        m = len(self.objects)
        blocks = (flat @ flat.T).reshape(3, m, 3, m).transpose(0, 2, 1, 3)
        return blocks, np.array([_row_ids(p) for p in props])

    def span(self, subset: PropertySubset) -> _Span:
        """Span coordinates of the subset bundles, from their Gram matrix."""
        if subset not in self._spans:
            blocks, ids = self._cross
            k = [PROPERTY_ORDER.index(p) for p in subset]
            raw = blocks[np.ix_(k, k)].sum(axis=(0, 1))
            norms = np.sqrt(np.diagonal(raw))
            self._spans[subset] = _Span.of(raw / np.outer(norms, norms), _row_ids(ids[k].T))
        return self._spans[subset]


def _demo_objects(result: AbductionResult):
    """Every demo input object, flattened, with its demo, the flat index of each
    (demo, object in demo) pair, and each demo's output dims."""
    keys = [(d, i) for d, scene in enumerate(result.input_scenes) for i in range(len(scene.objects))]
    objects = [result.input_scenes[d].objects[i] for d, i in keys]
    index_of = {key: n for n, key in enumerate(keys)}
    out_dims = {d: tuple(scene.grid.shape) for d, scene in enumerate(result.output_scenes)}
    return objects, [d for d, _ in keys], index_of, out_dims


def _labels(assigned, index_of) -> NDArray[np.bool_]:
    """Which objects the given assignments act on."""
    labels = np.zeros(len(index_of), dtype=bool)
    labels[[index_of[(a.demo_index, a.input_index)] for a in assigned]] = True
    return labels


@dataclass
class _RuleObservations:
    """Everything rule learning needs about one operation kind."""

    kind: OperationKind
    objects: list[ObjectRepr]  # all demo input objects, flattened
    demo_of: list[int]
    labels: NDArray[np.bool_]  # was this object subject to the operation?
    pairs_by_slot: dict[str, list[tuple[int, ParamValue]]]  # object index -> value
    out_dims: dict[int, tuple[int, int]]
    basis: Optional[_SpanBasis] = None  # shared by the kinds of one task

    def __post_init__(self) -> None:
        if self.basis is None:
            self.basis = _SpanBasis(self.objects)


@dataclass
class _KindConditions:
    """Condition training of one rule kind, from the task's shared batch."""

    accuracy: NDArray[np.float64]  # (subsets, folds): held-out accuracy
    full: dict[PropertySubset, tuple[_SpanConditions, int]]  # fit on every object, by subset

    def predictor(self, obs: _RuleObservations, subset: PropertySubset) -> OperationPredictor:
        """The full-data condition; vacuous when no object is a negative."""
        if subset not in self.full:
            return OperationPredictor(subset=subset)
        fit, run = self.full[subset]
        span = obs.basis.span(subset)
        distinct = subset_matrix([obs.objects[i] for i in span.first], subset)
        return _materialize(fit, run, subset, span, distinct)


def _scored_folds(obs: _RuleObservations) -> list[int]:
    """Demos to hold out in turn; a fold is skipped when no positive is left to train on."""
    demo_of = np.asarray(obs.demo_of)
    return [d for d in sorted(set(obs.demo_of)) if obs.labels[demo_of != d].any()]


def _fit_conditions(plans) -> list[_KindConditions]:
    """Every condition training of a task in one batch.

    ``plans`` holds (observations, candidate subsets, folds) per rule kind.
    Each kind trains one run per (subset, fold) for cross-validation and
    one per subset on every object, so the final fit is ready whichever
    subset wins. A fold with no negatives to train on keeps the vacuous
    condition, which fires on every held-out object.
    """
    results, runs = [], []  # runs: (kind, subset, fold or None for the full fit, training rows)
    for k, (obs, subsets, folds) in enumerate(plans):
        held = [np.asarray(obs.demo_of) == d for d in folds]
        accuracy = np.tile([np.mean(obs.labels[h]) for h in held], (len(subsets), 1))
        results.append(_KindConditions(accuracy, {}))
        if obs.labels.all():
            continue
        trained = [(f, ~h) for f, h in enumerate(held) if (~obs.labels & ~h).any()]
        everything = np.ones(len(obs.objects), dtype=bool)
        for s in range(len(subsets)):
            runs.extend((k, s, f, train) for f, train in trained + [(None, everything)])
    if not runs:
        return results
    labels = np.stack([plans[k][0].labels for k, *_ in runs])
    fit = _train_span_conditions(
        np.stack([plans[k][0].basis.span(plans[k][1][s]).coords for k, s, *_ in runs]),
        np.stack([train for *_, train in runs]),
        labels,
    )
    if any(fit.refused[r] for r, (_, _, f, _) in enumerate(runs) if f is not None):
        raise ValueError("cannot normalize a zero or non-finite vector")
    hits = fit.fires() == labels
    for r, (k, s, f, train) in enumerate(runs):
        if f is None:
            results[k].full[plans[k][1][s]] = (fit, r)
        else:
            results[k].accuracy[s, f] = np.mean(hits[r, ~train])
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


def cross_validate(
    obs: _RuleObservations, subsets, codec: ParamCodec, conditions: Optional[_KindConditions] = None
) -> PropertySubset:
    """Leave-one-demonstration-out selection among candidate subsets.

    ``conditions`` carries the condition accuracies when they were trained
    with the task's other kinds. Single-demonstration tasks fall back to
    the top-ranked candidate; ties keep the heuristic ranking order.
    """
    folds = _scored_folds(obs)
    if conditions is None:
        (conditions,) = _fit_conditions([(obs, subsets, folds)])
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


def _needs_subset_search(obs: _RuleObservations, codec: ParamCodec) -> bool:
    """True when some predictor will actually train on property bundles."""
    if not obs.labels.all():
        return True
    for slot, pairs in obs.pairs_by_slot.items():
        sample = [(obs.objects[i], v) for i, v in pairs]
        if _shortcut_predictor(sample, slot, codec) is None:
            return True
    return False


def induce(result: AbductionResult, codec: ParamCodec) -> Program:
    """Turn a successful explanation into a program of per-operation rules."""
    if not result.ok:
        raise InductionError("cannot induce rules from a failed explanation")
    objects, demo_of, index_of, out_dims = _demo_objects(result)
    basis = _SpanBasis(objects)

    kinds: list[OperationKind] = []
    for action in result.action_set:
        if action.kind not in kinds:
            kinds.append(action.kind)

    plans = []
    for kind in kinds:
        assigned = [a for a in result.assignments if a.action.kind is kind]
        if not assigned:
            continue
        labels = _labels(assigned, index_of)
        pairs_by_slot = {
            slot: [(index_of[(a.demo_index, a.input_index)], a.action.param(slot)) for a in assigned]
            for slot in dsl.PARAM_SLOTS[kind]
        }
        obs = _RuleObservations(kind, objects, demo_of, labels, pairs_by_slot, out_dims, basis)
        subsets = rank_properties(objects, [bool(x) for x in labels])
        folds = _scored_folds(obs) if _needs_subset_search(obs, codec) else []
        # Without a fold to score, the top-ranked subset is the only candidate.
        plans.append((obs, subsets if folds else subsets[:1], folds))

    rules = []
    for (obs, subsets, folds), conditions in zip(plans, _fit_conditions(plans)):
        subset = cross_validate(obs, subsets, codec, conditions) if folds else subsets[0]
        try:
            condition = conditions.predictor(obs, subset)
        except ValueError:
            condition = OperationPredictor(subset=canonical_subset(subset))
        parameters: dict[str, ParameterPredictor] = {}
        for slot, pairs in obs.pairs_by_slot.items():
            full = [(obs.objects[i], v) for i, v in pairs]
            try:
                parameters[slot] = train_parameter_predictor(full, slot, subset, codec)
            except ValueError:
                parameters[slot] = ConstantParameter(full[0][1])
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
    objects, demo_of, index_of, out_dims = _demo_objects(result)
    by_kind: dict[OperationKind, list] = {}
    for a in result.assignments:
        by_kind.setdefault(a.action.kind, []).append(a)
    for rule in program.rules:
        assigned = by_kind.get(rule.kind, [])
        labels = _labels(assigned, index_of)
        for i, obj in enumerate(objects):
            if (rule.condition.probability(obj) >= 0.5) != bool(labels[i]):
                return False
        for slot in dsl.PARAM_SLOTS[rule.kind]:
            predictor = rule.parameters.get(slot)
            if predictor is None:
                return False
            for a in assigned:
                i = index_of[(a.demo_index, a.input_index)]
                expected = a.action.param(slot)
                if predictor.predict(objects[i], out_dims[demo_of[i]], codec) != expected:
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
    if pred.shape_values is not None:
        doc["shape_values"] = [dsl.param_value_to_json(s) for s in pred.shape_values]
    return doc


def _predictor_from_json(doc, config: VsaConfig) -> ParameterPredictor:
    variant = doc["variant"]
    if variant == "constant":
        return ConstantParameter(dsl.param_value_from_json(doc["value"]))
    if variant == "copy":
        return CopyParameter(doc["property"])
    if variant == "linear":
        shape_values = tuple(dsl.param_value_from_json(s) for s in doc.get("shape_values") or ())
        return LinearParameter(
            slot=doc["slot"],
            subset=canonical_subset(doc["subset"]),
            base=np.array(doc["base"], dtype=np.float64),
            inputs=np.array(doc["inputs"], dtype=np.float64),
            correction=np.array(doc["correction"], dtype=np.float64),
            shape_values=shape_values or None,
            shapes=shape_vocabulary(shape_values, SspEncoder(config)) if shape_values else None,
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
    rules = []
    for rd in doc["rules"]:
        cond = rd["condition"]
        weights = cond["weights"]
        condition = OperationPredictor(
            subset=canonical_subset(cond["subset"]),
            weights=None if weights is None else np.array(weights, dtype=np.float64),
            steepness=float(cond["steepness"]),
            threshold=float(cond["threshold"]),
        )
        parameters = {s: _predictor_from_json(p, config) for s, p in rd["parameters"].items()}
        rules.append(Rule(OperationKind(rd["kind"]), condition, parameters))
    return Program(tuple(rules))
