"""Tests for rule learning: predictors, subset selection, program assembly."""
from __future__ import annotations

import json

import numpy as np
import pytest

from hologrid import abduction as ab
from hologrid import induction as ind, perception as pc
from hologrid import ssp, vsa
from hologrid.deduction import solve_task
from hologrid.dsl import Amount, Centre, Colour, Direction, OperationKind as Op, Shape
from hologrid.harness import TaskRecord

from oracles import (
    bundle_direct,
    circulant_direct,
    condition_training_direct,
    conv_direct,
    linear_loss_direct,
    name_decode_direct,
    property_scores_direct,
    span_conditions_direct,
    span_conditions_two_product_direct,
)

CFG = vsa.VsaConfig(dimension=512, seed=33)
ENC = ssp.SspEncoder(CFG)
PALETTE = pc.build_palette(CFG)
CODEC = ind.make_codec(ENC, PALETTE)


def obj(rows):
    objects = pc.perceive(
        pc.as_grid(rows), pc.ObjectHypothesis.EIGHT_CONNECTED, ENC, PALETTE
    ).objects
    assert len(objects) == 1
    return objects[0]


def pixel(colour, r, c, rows=7, cols=7):
    grid = [[0] * cols for _ in range(rows)]
    grid[r][c] = colour
    return obj(grid)


def square(colour, r, c, rows=7, cols=7):
    grid = [[0] * cols for _ in range(rows)]
    for dr in (0, 1):
        for dc in (0, 1):
            grid[r + dr][c + dc] = colour
    return obj(grid)


# ---------------------------------------------------------------- properties


def test_property_scores_colour_separation():
    objects = [pixel(3, 1, 1), square(3, 4, 4), pixel(5, 1, 4), square(5, 4, 1)]
    labels = ["a", "a", "b", "b"]
    basis = ind._Bundles(objects)
    scores = ind.property_scores(basis, labels)
    # Same-group colour similarity 1, cross-group ~0: score(colour) ~ 1.
    assert scores[0] == pytest.approx(1.0, abs=0.05)
    assert ind.rank_properties(basis, labels)[0] == ("colour",)


def test_property_scores_uninformative_property_is_zero():
    objects = [pixel(4, 1, 1), pixel(4, 1, 5), pixel(4, 5, 1), pixel(4, 5, 5)]
    scores = ind.property_scores(ind._Bundles(objects), ["a", "a", "b", "b"])
    # Identical colour everywhere gives s_same = s_diff, so no separation.
    assert scores[0] == pytest.approx(0.0, abs=1e-9)


def test_property_scores_match_pairwise_dot_oracle():
    rng = np.random.default_rng(8)
    for _ in range(6):
        objects = []
        for _ in range(int(rng.integers(2, 9))):
            grid = np.where(rng.random((5, 6)) < 0.3, rng.integers(1, 4, size=(5, 6)), 0)
            grid[rng.integers(5), rng.integers(6)] = rng.integers(1, 4)
            objects.extend(pc.perceive(pc.as_grid(grid), pc.ObjectHypothesis.EIGHT_CONNECTED, ENC, PALETTE).objects)
        labels = [bool(x) for x in rng.random(len(objects)) < 0.5]
        scores = ind.property_scores(ind._Bundles(objects), labels)
        assert np.max(np.abs(scores - property_scores_direct(objects, labels))) < 1e-12


def test_rank_properties_layout():
    objects = [pixel(2, 0, 0), pixel(9, 6, 6)]
    ranked = ind.rank_properties(ind._Bundles(objects), [0, 1])
    assert len(ranked) == 7
    assert all(len(s) == 1 for s in ranked[:3])
    assert all(len(s) == 2 for s in ranked[3:6])
    assert ranked[6] == ("colour", "centre", "shape")
    assert {s[0] for s in ranked[:3]} == set(pc.PROPERTIES)


def test_subset_vector_is_normalized_bundle():
    o = square(4, 2, 2)
    v = ind.subset_vector(o, ("colour", "shape"))
    expected = vsa.normalize(o.colour_vec + o.shape_vec)
    assert np.allclose(v, expected)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


def test_subset_vector_matches_sequential_sum_bitwise():
    rng = np.random.default_rng(41)
    objects = []
    for _ in range(8):
        g = np.where(rng.random((6, 6)) < 0.4, rng.integers(1, 10, size=(6, 6)), 0)
        g[rng.integers(6), rng.integers(6)] = rng.integers(1, 10)
        for hyp in pc.ObjectHypothesis:
            objects.extend(pc.perceive(pc.as_grid(g), hyp, ENC, PALETTE).objects)
    for o in objects:
        for subset in ALL_SUBSETS:
            expected = bundle_direct([o.vector(p) for p in subset])
            assert np.array_equal(ind.subset_vector(o, subset), expected)
    # The rows condition training reads are the same bundles, stacked.
    basis = ind._Bundles(objects)
    for subset in ALL_SUBSETS:
        assert np.array_equal(basis.rows(subset), ind.subset_matrix(objects, subset))


def test_canonical_subset_rejects_junk():
    assert ind.canonical_subset(("shape", "colour")) == ("colour", "shape")
    with pytest.raises(ValueError):
        ind.canonical_subset(("colour", "sparkle"))
    with pytest.raises(ValueError):
        ind.canonical_subset(())


# ---------------------------------------------------------------- operation predictor


def train_condition(positives, negatives, subset):
    """The full-data condition of one demo's objects, from the batch trainer."""
    objects = list(positives) + list(negatives)
    obs = make_observations([objects], [[i < len(positives) for i in range(len(objects))]])
    (conditions,) = ind.train_operation_predictor([(obs, [subset], [])])
    return conditions.predictor(obs, subset)


def test_vacuous_predictor_when_no_negatives():
    pred = train_condition([pixel(2, 1, 1)], [], ("colour",))
    assert pred.weights is None
    assert pred.probability(pixel(8, 5, 5)) == 1.0


def test_learned_predictor_separates_colours():
    positives = [pixel(2, r, c) for r, c in [(0, 0), (2, 3), (5, 1)]]
    negatives = [pixel(7, r, c) for r, c in [(1, 5), (4, 4), (6, 0)]]
    pred = train_condition(positives, negatives, ("colour",))
    assert pred.weights is not None
    assert_matches_direct(
        pred.weights, pred.steepness, pred.threshold,
        bundles(positives, ("colour",)), bundles(negatives, ("colour",)),
    )
    assert np.linalg.norm(pred.weights) == pytest.approx(1.0, abs=1e-6)
    assert pred.steepness > 0
    for o in positives + [pixel(2, 3, 3)]:
        assert pred.probability(o) >= 0.5
    for o in negatives + [pixel(7, 2, 2)]:
        assert pred.probability(o) < 0.5


def test_predictor_probability_monotone_in_similarity():
    positives = [square(1, 0, 0), square(1, 3, 3)]
    negatives = [pixel(6, 6, 6), pixel(6, 0, 6)]
    pred = train_condition(positives, negatives, ("colour", "shape"))
    assert_matches_direct(
        pred.weights, pred.steepness, pred.threshold,
        bundles(positives, ("colour", "shape")), bundles(negatives, ("colour", "shape")),
    )
    rng = np.random.default_rng(5)
    sims, probs = [], []
    for _ in range(20):
        x = vsa.normalize(rng.normal(size=CFG.dimension))
        sims.append(float(pred.weights @ x))
        probs.append(float(1 / (1 + np.exp(-pred.steepness * (sims[-1] - pred.threshold)))))
    order = np.argsort(sims)
    assert all(np.diff(np.array(probs)[order]) >= 0)


# ---------------------------------------------------------------- condition training over subset Grams

ALL_SUBSETS = [
    ("colour",), ("centre",), ("shape",),
    ("colour", "centre"), ("colour", "shape"), ("centre", "shape"),
    ("colour", "centre", "shape"),
]


def direct(pos, neg):
    return condition_training_direct(pos, neg, ind.LEARNING_RATE, ind.MAX_EPOCHS, ind.INITIAL_STEEPNESS)


def unit(v):
    return v / np.linalg.norm(v)


def bundles(objects, subset):
    """Subset vectors built in the test, from the raw property vectors."""
    return np.stack([
        unit(sum(getattr(o, f"{p}_vec") for p in subset)) for o in objects
    ])


def assert_matches_direct(weights, steepness, threshold, pos, neg):
    """Agreement with the direct trainer within 1e-12, returning its (w, k, b).

    A few trainings amplify rounding; there the bound is ten times the
    distance the direct trainer itself moves when only its row order changes.
    """
    w, k, b = direct(pos, neg)
    error = max(np.max(np.abs(weights - w)), abs(steepness - k), abs(threshold - b))
    if error >= 1e-12:
        w2, k2, b2 = direct(pos[::-1], neg[::-1])
        spread = max(np.max(np.abs(w2 - w)), abs(k2 - k), abs(b2 - b))
        assert error < 10 * spread, (error, spread)
    return w, k, b


def fires_direct(w, k, b, rows):
    return 1.0 / (1.0 + np.exp(-k * (rows @ w - b))) >= 0.5


def random_observations(rng, dim=64):
    """Objects drawn from small property pools, so identical bundles recur."""
    pools = {p: [unit(rng.normal(size=dim)) for _ in range(n)] for p, n in
             (("colour", 3), ("centre", 4), ("shape", 3))}
    demos = int(rng.integers(2, 5))
    demo_of = sorted(int(d) for d in rng.integers(0, demos, size=int(rng.integers(4, 13))))
    objects = [
        pc.ObjectRepr(None, *(pools[p][rng.integers(len(pools[p]))] for p in pc.PROPERTIES))
        for _ in demo_of
    ]
    labels = rng.random(len(objects)) < rng.uniform(0.2, 0.8)
    return ind._RuleObservations(
        Op.MOVE, objects, np.array(demo_of, dtype=np.int64), labels, {}, {d: (7, 7) for d in set(demo_of)},
        ind._Bundles(objects),
    )


ONE_GROUP = np.zeros(1, dtype=np.int64)  # a batch of one run, in group 0


def run_inputs(rows, train, labels):
    """A run's operator [G P] and starting coefficients over ``rows``, as ``train_operation_predictor`` builds them."""
    return ind._operator(rows), ind._starts(rows, train[None], labels[None])[0]


def test_span_training_matches_direct_oracle_on_random_folds():
    rng = np.random.default_rng(2024)
    seen = {"trained": 0, "vacuous": 0, "skipped": 0}
    for _ in range(20):
        obs = random_observations(rng)
        if obs.labels.all() or not obs.labels.any():
            continue
        folds = obs.folds()
        (conditions,) = ind.train_operation_predictor([(obs, ALL_SUBSETS, folds)])
        demo_of = np.array(obs.demo_of)
        runs = []  # (subset index, held-out demo) of every trained fold
        for s, subset in enumerate(ALL_SUBSETS):
            for d in sorted(set(obs.demo_of)):
                train = demo_of != d
                if not obs.labels[train].any():
                    assert d not in folds
                    seen["skipped"] += 1
                elif obs.labels[train].all():
                    assert conditions.accuracy[s, folds.index(d)] == np.mean(obs.labels[~train])
                    seen["vacuous"] += 1
                else:
                    runs.append((s, d))
        rows = [obs.bundles.rows(subset) for subset in ALL_SUBSETS]
        if runs:
            # One group per subset, as train_operation_predictor lays the batch out.
            train = np.stack([demo_of != d for _, d in runs])
            starts = np.stack([run_inputs(rows[s], used, obs.labels)[1] for (s, _), used in zip(runs, train)])
            fit = ind._train_conditions(
                np.stack([ind._operator(r) for r in rows]), np.array([s for s, _ in runs]),
                starts, train, np.tile(obs.labels, (len(runs), 1)),
            )
        for r, (s, d) in enumerate(runs):
            X = bundles(obs.objects, ALL_SUBSETS[s])
            train, test = demo_of != d, demo_of == d
            w, k, b = assert_matches_direct(
                fit.weights[r] @ rows[s], fit.steepness[r],
                fit.threshold[r], X[train & obs.labels], X[train & ~obs.labels],
            )
            expected = fires_direct(w, k, b, X[test])
            # A held-out bundle that also trains under both labels can sit at
            # p = 0.5 exactly, where rounding decides either way.
            clear = np.abs(k * (X[test] @ w - b)) > 1e-9
            assert np.array_equal(fit.fires()[r, test][clear], expected[clear])
            if clear.all():
                accuracy = conditions.accuracy[s, folds.index(d)]
                assert accuracy == np.mean(expected == obs.labels[test])
                seen["trained"] += 1
        for subset in ALL_SUBSETS:
            X = bundles(obs.objects, subset)
            pred = conditions.predictor(obs, subset)
            assert_matches_direct(
                pred.weights, pred.steepness, pred.threshold, X[obs.labels], X[~obs.labels]
            )
    assert min(seen.values()) > 0, seen


def test_subset_grams_hold_the_similarities_of_their_rows(monkeypatch):
    # The batch train_operation_predictor hands the trainer: one operator
    # [G P] per subset, shared by the group of runs of every kind under that
    # subset, and unit starting weights. Mirrors pair only within a group.
    batches = []

    def capture(*batch):
        batches.append(batch)
        return train_conditions(*batch)

    train_conditions = ind._train_conditions
    monkeypatch.setattr(ind, "_train_conditions", capture)
    rng = np.random.default_rng(5)
    checked = moves = crossed = 0
    for _ in range(40):
        obs = random_observations(rng)
        if obs.labels.all() or not obs.labels.any():
            continue
        other = ind._RuleObservations(Op.RECOLOUR, obs.objects, obs.demo_of, ~obs.labels, {}, obs.out_dims, obs.bundles)
        ind.train_operation_predictor([(obs, ALL_SUBSETS, obs.folds()), (other, ALL_SUBSETS[::-1], other.folds())])
        operators, group_of, starts, train, labels = batches[0]  # the whole batch, before mirrored runs are set aside
        batches.clear()
        assert np.array_equal(labels[0], obs.labels) and np.array_equal(labels[-1], other.labels)
        assert len(operators) == len({o.tobytes() for o in operators}) == len(ALL_SUBSETS)
        grams, projectors = np.split(operators, 2, axis=2)
        for subset in ALL_SUBSETS:
            X = bundles(obs.objects, subset)
            (s,) = np.flatnonzero([np.max(np.abs(g - X @ X.T)) < 1e-14 for g in grams])
            mine = group_of == s
            assert mine.sum() == len(group_of) // len(ALL_SUBSETS)
            g, p = grams[s], projectors[s]
            for start, used, wanted in zip(starts[mine], train[mine], labels[mine]):
                # A combination's similarity to each row, and its length; its
                # projection onto the row space combines the rows the same way.
                assert np.max(np.abs(g @ start - X @ (start @ X))) < 1e-14
                assert np.max(np.abs((p @ start) @ X - start @ X)) < 1e-14
                assert abs(np.linalg.norm(start @ X) - 1.0) < 1e-14
                assert start[used & wanted].min() > 0.0
            checked += 1
        # A run mirrors only a run of its own group. Where rows recur, a start can
        # also negate a start of another group, over other rows: no mirror.
        mirror = ind._mirror_runs(group_of, starts, train)
        mirrored = np.flatnonzero(mirror >= 0)
        assert np.array_equal(group_of[mirrored], group_of[mirror[mirrored]])
        for f in range(len(train)):
            negates = [e for e in range(f) if mirror[e] < 0 and np.array_equal(train[e], train[f])
                       and np.array_equal(starts[e][train[f]], -starts[f][train[f]])]
            crossed += any(group_of[e] != group_of[f] for e in negates)
            assert (mirror[f] >= 0) == any(group_of[e] == group_of[f] for e in negates)
        # Moved to a group of its own, a mirroring run negates only runs of other groups.
        for f in mirrored:
            moved = group_of.copy()
            moved[f] = len(operators)
            assert ind._mirror_runs(moved, starts, train)[f] == -1
        moves += len(mirrored)
    assert checked > 150 and moves > 100 and crossed > 0


def test_linearly_dependent_rows_train_like_the_direct_oracle():
    rng = np.random.default_rng(12)
    x, y, z = (unit(rng.normal(size=32)) for _ in range(3))
    rows = np.stack([x, y, unit(x + y), z, unit(y - z), unit(x + y + z)])
    assert np.linalg.matrix_rank(rows) == 3
    labels = np.arange(6) % 2 == 0
    obs = make_observations([[pc.ObjectRepr(None, r, r, r) for r in rows]], [labels])
    # The Gram is singular; the descent on coefficients needs no factorization of it.
    assert np.linalg.matrix_rank(rows @ rows.T) == 3
    (conditions,) = ind.train_operation_predictor([(obs, [("colour",)], [])])
    pred = conditions.predictor(obs, ("colour",))
    X = bundles(obs.objects, ("colour",))
    assert_matches_direct(pred.weights, pred.steepness, pred.threshold, X[labels], X[~labels])


def test_train_operation_predictor_matches_direct_oracle():
    positives = [square(1, 0, 0), pixel(1, 3, 3), square(4, 4, 1)]
    negatives = [pixel(6, 6, 6), pixel(6, 0, 6), square(8, 2, 4)]
    for subset in ALL_SUBSETS:
        pred = train_condition(positives, negatives, subset)
        assert_matches_direct(
            pred.weights, pred.steepness, pred.threshold,
            bundles(positives, subset), bundles(negatives, subset),
        )


def test_cancelling_bundles_start_from_positive_prototype():
    # Positives and negatives bundle to the same point. The fallback is decided
    # on the start vector in R^N, not on sqrt(c^T G c), which rounding keeps above 1e-12.
    objs = [pixel(2, 1, 1), square(5, 3, 3), pixel(7, 0, 4)]
    positives, negatives = objs, [objs[2], objs[0], objs[1]]
    subset = ("colour", "shape")
    X, Y = bundles(positives, subset), bundles(negatives, subset)
    assert np.linalg.norm(X.sum(axis=0) - Y.sum(axis=0)) < 1e-12
    pred = train_condition(positives, negatives, subset)
    w, _, _ = assert_matches_direct(pred.weights, pred.steepness, pred.threshold, X, Y)
    # Rows that carry rounding noise are six distinct rows whose classes
    # still cancel, and decide the same way.
    rng = np.random.default_rng(3)
    rows = np.vstack([X, Y]) + rng.normal(scale=1e-15, size=(6, CFG.dimension))
    labels = np.arange(6) < 3
    train = np.ones(6, dtype=bool)
    operator, start = run_inputs(rows, train, labels)
    diff = labels - (~labels).astype(float)
    assert np.sqrt(abs(diff @ (rows @ rows.T) @ diff)) > 1e-12 > np.linalg.norm(diff @ rows)
    assert np.array_equal(start != 0, labels)
    fit = ind._train_conditions(operator[None], ONE_GROUP, start[None], train[None], labels[None])
    assert np.max(np.abs(fit.weights[0] @ rows - w)) < 1e-9


def test_zero_norm_weights_are_refused():
    rng = np.random.default_rng(8)
    x, y = unit(rng.normal(size=32)), unit(rng.normal(size=32))
    # Rows x, -x, y, -y: both class sums vanish, and so does the positive prototype.
    rows = np.stack([x, -x, y, -y])
    labels = np.array([True, True, False, False])
    with pytest.raises(ValueError):
        direct(rows[labels], rows[~labels])
    train = np.ones(4, dtype=bool)
    operator, start = run_inputs(rows, train, labels)
    assert not start.any()
    fit = ind._train_conditions(operator[None], ONE_GROUP, start[None], train[None], labels[None])
    assert fit.refused[0]
    # The refusal surfaces as the ValueError that induce turns into a vacuous condition.
    obs = make_observations([[pc.ObjectRepr(None, r, r, r) for r in rows]], [labels])
    conditions = ind._KindConditions(np.zeros((1, 0)), {("colour",): (fit, 0)})
    with pytest.raises(ValueError):
        conditions.predictor(obs, ("colour",))


def assert_same_runs(fit, r, alone):
    """Run r of a batch equals the one run of ``alone``, bit for bit."""
    assert np.array_equal(fit.weights[r], alone.weights[0])
    assert fit.steepness[r] == alone.steepness[0]
    assert fit.threshold[r] == alone.threshold[0]
    assert np.array_equal(fit.scores[r], alone.scores[0])
    assert fit.refused[r] == alone.refused[0]
    assert np.array_equal(fit.fires()[r], alone.fires()[0])


def test_mirrored_runs_equal_separately_trained_runs():
    rng = np.random.default_rng(77)
    mirrored = 0
    for _ in range(30):
        obs = random_observations(rng)
        demo_of = np.array(obs.demo_of)
        runs = []  # (rows, training rows, labels), each fold under both labelings
        for subset in ALL_SUBSETS[:: int(rng.integers(1, 4))]:
            rows = obs.bundles.rows(subset)
            for d in [None, *sorted(set(obs.demo_of))]:
                train = demo_of != d
                if obs.labels[train].any() and not obs.labels[train].all():
                    runs.append((rows, train, obs.labels))
                    runs.append((rows, train, ~obs.labels))
        if not runs:
            continue
        cancelled = np.array([
            np.linalg.norm((used & wanted) @ rows - (used & ~wanted) @ rows) < 1e-12 for rows, used, wanted in runs
        ])
        # One operator per run. A run shares its group with its complement, so
        # that it can mirror it, unless their classes cancel: then each trains
        # in its own group. Every group trains one run, one product per run.
        group_of = np.where(cancelled, np.arange(len(runs)), np.arange(len(runs)) // 2 * 2)
        order = rng.permutation(len(runs))
        runs, group_of = [runs[i] for i in order], group_of[order]
        operators, starts = (np.stack(part) for part in zip(*(run_inputs(*run) for run in runs)))
        operators = operators[np.argsort(order)]  # operator g belongs to group g
        train, labels = (np.stack([run[k] for run in runs]) for k in (1, 2))
        fit = ind._train_conditions(operators, group_of, starts, train, labels)
        for r in range(len(runs)):
            alone = ind._train_conditions(
                operators[group_of[r]][None], ONE_GROUP, starts[r : r + 1], train[r : r + 1], labels[r : r + 1]
            )
            assert_same_runs(fit, r, alone)
        # Each labeling's classes cancel exactly when the other's do.
        mirror = ind._mirror_runs(group_of, starts, train)
        assert (mirror >= 0).sum() == (~cancelled).sum() // 2
        mirrored += (~cancelled).sum() // 2
    assert mirrored > 100


def test_a_run_whose_classes_cancel_is_not_mirrored():
    # The objects of test_cancelling_bundles_start_from_positive_prototype:
    # both classes bundle to one point under either labeling, so each run
    # starts from its own positive prototype, not from the other's negated.
    objs = [pixel(2, 1, 1), square(5, 3, 3), pixel(7, 0, 4)]
    objs = objs + [objs[2], objs[0], objs[1]]
    obs = make_observations([objs], [[i < 3 for i in range(6)]])
    rows = obs.bundles.rows(("colour", "shape"))
    labels = np.stack([obs.labels, ~obs.labels])
    train = np.ones((2, 6), dtype=bool)
    operators = np.stack([ind._operator(rows)] * 2)
    starts = ind._starts(rows, train, labels)
    fit = ind._train_conditions(operators, np.arange(2), starts, train, labels)
    for r in range(2):
        alone = ind._train_conditions(operators[:1], ONE_GROUP, starts[r : r + 1], train[r : r + 1], labels[r : r + 1])
        assert_same_runs(fit, r, alone)
    assert not np.array_equal(fit.weights[1], -fit.weights[0])
    # Not even in one group, where the two runs share their rows.
    assert np.array_equal(ind._mirror_runs(np.zeros(2, dtype=np.int64), starts, train), [-1, -1])


def test_ragged_groups_train_each_run_as_alone():
    # The batch of a task whose groups differ in size: one kind trains two
    # subsets and a second kind one of them (12 runs there), a kind without
    # folds adds a single run under a third subset, and a complementary kind
    # adds runs that mirror the first kind's. Padding fills the smaller
    # groups; each run trains as it would alone, to rounding (a group of
    # several runs takes one matrix product, where a run alone takes a
    # vector product), and the result holds no padding run.
    rng = np.random.default_rng(41)
    pools = {p: [unit(rng.normal(size=CFG.dimension)) for _ in range(8)] for p in pc.PROPERTIES}
    demo_of = np.repeat(np.arange(5), 3)
    objects = [pc.ObjectRepr(None, *(pools[p][rng.integers(8)] for p in pc.PROPERTIES)) for _ in demo_of]
    shared = ind._Bundles(objects)

    def kind(kind, labels):
        return ind._RuleObservations(kind, objects, demo_of, labels, {}, {d: (7, 7) for d in range(5)}, shared)

    first, second, once = (kind(k, np.arange(15) % 3 == r) for k, r in ((Op.MOVE, 0), (Op.RECOLOUR, 1), (Op.GROW, 2)))
    complement = kind(Op.RESHAPE, ~first.labels)
    plans = [
        (first, ALL_SUBSETS[:2], first.folds()), (second, ALL_SUBSETS[:1], second.folds()),
        (once, ALL_SUBSETS[2:3], []), (complement, ALL_SUBSETS[1:2], complement.folds()),
    ]
    batches = []
    train_conditions = ind._train_conditions

    def capture(*batch):
        batches.append(batch)
        return train_conditions(*batch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ind, "_train_conditions", capture)
        ind.train_operation_predictor(plans)
    operators, group_of, starts, train, labels = batches[0]
    mirror = ind._mirror_runs(group_of, starts, train)
    assert np.array_equal(np.bincount(group_of), [12, 12, 1])
    assert np.array_equal(np.bincount(group_of[mirror < 0]), [12, 6, 1])
    fit = train_conditions(*batches[0])
    assert all(len(part) == len(group_of) for part in fields(fit))
    assert not fit.refused.any()
    for r, g in enumerate(group_of):
        alone = train_conditions(operators[g][None], ONE_GROUP, starts[r : r + 1], train[r : r + 1], labels[r : r + 1])
        for got, want in zip(fields(fit)[:4], fields(alone)):
            assert np.max(np.abs(got[r] - want[0])) < 1e-12
        assert fit.refused[r] == alone.refused[0]
        assert np.array_equal(fit.fires()[r], alone.fires()[0])


def condition_batch(rng, runs=12, m=10, dim=48):
    """A seeded batch of condition runs, each over m unit rows in R^dim.

    A run's rows are +-unit(p0 + spread * p_i) for p_i from a small pool, so
    rows recur. Half the runs label a row by its sign, so they separate; the
    rest label at random. The batch also
    holds a run's mirror (the same rows and training rows under
    complementary labels), a run whose classes cancel and a run whose
    starting weights cannot be normalized. Returns (rows, train, labels).
    """
    pool = [unit(rng.normal(size=dim)) for _ in range(6)]
    rows, train, labels = [], [], []
    for r in range(runs):
        signs = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        signs[:2] = 1.0, -1.0
        spread = rng.uniform(0.0, 0.6)
        rows.append(signs[:, None] * np.stack([unit(pool[0] + spread * pool[i]) for i in rng.integers(1, 4, size=m)]))
        used = rng.random(m) < 0.8
        used[:2] = True
        wanted = signs > 0 if r % 2 else rng.random(m) < 0.5
        wanted[:2] = True, False
        train.append(used)
        labels.append(wanted)
    rows.append(rows[0])
    train.append(train[0])
    labels.append(~labels[0])
    # Positives a, b, c against negatives c, a, b cancel. Positives x, -x
    # against y, -y cancel too, and so does their positive sum. Only these
    # rows train.
    a, b, c, x, y = pool[:5]
    filler = [pool[5]] * (m - 6)
    for head, run in ((6, [a, b, c, c, a, b]), (4, [x, -x, y, -y, a, b])):
        rows.append(np.stack(run + filler))
        train.append(np.arange(m) < head)
        labels.append(np.arange(m) < head // 2)
    order = rng.permutation(len(rows))
    return tuple(np.stack(part)[order] for part in (rows, train, labels))


def seeded_condition_batches():
    """Each batch as (rows, train, labels, operators, group_of, starts).

    Runs over equal rows share a group and its operator: only a run and its
    mirror do, so every group trains one run, one product per run.
    """
    rng = np.random.default_rng(19)
    batches = []
    for _ in range(6):
        rows, train, labels = condition_batch(rng)
        first: dict[bytes, int] = {}
        for f, run in enumerate(rows):
            first.setdefault(run.tobytes(), f)
        group_of = np.array([list(first).index(run.tobytes()) for run in rows])
        operators = np.stack([ind._operator(rows[f]) for f in first.values()])
        starts = np.stack([run_inputs(*run)[1] for run in zip(rows, train, labels)])
        batches.append((rows, train, labels, operators, group_of, starts))
    return batches


def fields(fit):
    return fit.weights, fit.steepness, fit.threshold, fit.scores, fit.refused


def fires_direct_batch(steepness, threshold, scores):
    return 1.0 / (1.0 + np.exp(-steepness[:, None] * (scores - threshold[:, None]))) >= 0.5


def test_span_training_equals_the_every_epoch_oracle_bitwise():
    refused = 0
    for _, train, labels, operators, group_of, starts in seeded_condition_batches():
        assert len(operators) == len(train) - 1  # one run shares its operator with its mirror
        want = span_conditions_direct(
            operators[group_of], starts, train, labels, ind.LEARNING_RATE, ind.MAX_EPOCHS, ind.INITIAL_STEEPNESS
        )
        fit = ind._train_conditions(operators, group_of, starts, train, labels)
        for got, expected in zip(fields(fit), want):
            assert np.array_equal(got, expected)
        refused += fit.refused.sum()
    assert refused == 6


def span_coordinates(rows):
    """Each row's coordinates in an orthonormal basis of the rows' span, and that basis.

    The basis is the Q factor of one QR of the rows, and a row's coordinates
    are its product with Q, so equal or negated rows get equal or negated
    coordinates.
    """
    q = np.linalg.qr(rows.T)[0]
    return rows @ q, q


def test_span_training_agrees_with_the_two_product_oracle():
    # The same descent in QR coordinates, with weights, threshold and scores
    # kept apart: a different representation and summation order, so
    # agreement to rounding, and equal verdicts.
    for rows, train, labels, operators, group_of, starts in seeded_condition_batches():
        coords, bases = (np.stack(part) for part in zip(*map(span_coordinates, rows)))
        weights, steepness, threshold, scores, refused = span_conditions_two_product_direct(
            coords, train, labels, ind.LEARNING_RATE, ind.MAX_EPOCHS, ind.INITIAL_STEEPNESS
        )
        fit = ind._train_conditions(operators, group_of, starts, train, labels)
        for got, expected in (
            (fit.steepness, steepness),
            (fit.threshold, threshold),
            (fit.scores, scores),
            (np.einsum("fmn,fm->fn", rows, fit.weights), np.einsum("fnm,fm->fn", bases, weights)),
        ):
            assert np.max(np.abs(got - expected)) < 1e-12
        assert np.array_equal(fit.refused, refused)
        # The run whose classes cancel (positives a, b, c against c, a, b)
        # converges on a tie: its six training rows end at its threshold, where
        # even 80-bit arithmetic leaves z within one ulp of 0, so rounding
        # alone decides whether they fire. Both sides must put exactly those
        # rows at the threshold; every other verdict must be equal. (A refused
        # run's scores and threshold are exactly zero on both sides.)
        tie = ~refused[:, None] & (np.abs(steepness[:, None] * (scores - threshold[:, None])) < 1e-12)
        cancelling = [f for f in range(len(rows)) if train[f].sum() == 6 and (rows[f][:3] == rows[f][[4, 5, 3]]).all()]
        assert np.array_equal(np.nonzero(tie.any(axis=1))[0], cancelling)
        assert np.array_equal(tie[cancelling[0]], train[cancelling[0]])
        assert (np.abs(fit.steepness[:, None] * (fit.scores - fit.threshold[:, None]))[tie] < 1e-12).all()
        assert np.array_equal(fit.fires()[~tie], fires_direct_batch(steepness, threshold, scores)[~tie])


def test_coefficients_stay_in_the_row_space():
    # Recurring rows under both labels leave steps in the Gram's null space.
    # Projected away, a stays in the row space, where a.G a = 1 bounds it by
    # the smallest non-zero eigenvalue; without the projection the seeded
    # batches grow a to a norm of about 6,000.
    for rows, train, labels, operators, group_of, starts in seeded_condition_batches():
        fit = ind._train_conditions(operators, group_of, starts, train, labels)
        for run, operator, a, refused in zip(rows, operators[group_of], fit.weights, fit.refused):
            if refused:
                continue
            gram, projector = run @ run.T, operator[:, len(run) :]
            assert np.array_equal(operator[:, : len(run)], gram)
            assert np.max(np.abs(projector @ a - a)) < 1e-12
            values = np.linalg.eigvalsh(gram)
            smallest = values[values > len(gram) * np.finfo(np.float64).eps * values[-1]].min()
            assert a @ a <= (1.0 + 1e-9) / smallest
            assert abs(a @ gram @ a - 1.0) < 1e-12


# ---------------------------------------------------------------- parameter predictors


def test_constant_parameter_shortcut():
    pairs = [(pixel(2, 1, 1), Colour(3)), (pixel(7, 4, 4), Colour(3))]
    pred = ind.train_parameter_predictor(pairs, "colour", ("colour",), CODEC)
    assert isinstance(pred, ind.ConstantParameter)
    assert pred.predict(pixel(9, 0, 0), (7, 7), CODEC) == Colour(3)


def test_copy_parameter_shortcut_colour():
    pairs = [(pixel(2, 1, 1), Colour(2)), (pixel(7, 4, 4), Colour(7)), (pixel(4, 2, 5), Colour(4))]
    pred = ind.train_parameter_predictor(pairs, "colour", ("colour",), CODEC)
    assert isinstance(pred, ind.CopyParameter) and pred.prop == "colour"
    assert pred.predict(pixel(9, 3, 3), (7, 7), CODEC) == Colour(9)


def test_copy_parameter_shortcut_centre():
    objs = [square(3, 0, 0), square(5, 4, 4), square(6, 2, 3)]
    pairs = [(o, Centre(*o.mask.centre_point())) for o in objs]
    pred = ind.train_parameter_predictor(pairs, "centre", ("shape",), CODEC)
    assert isinstance(pred, ind.CopyParameter) and pred.prop == "centre"
    probe = square(1, 1, 1)
    assert pred.predict(probe, (7, 7), CODEC) == Centre(*probe.mask.centre_point())


def test_copy_parameter_shortcut_shape():
    objs = [square(3, 0, 0), pixel(5, 4, 4), obj([[2, 2, 2]])]
    pairs = [(o, Shape(o.mask.offsets())) for o in objs]
    pred = ind.train_parameter_predictor(pairs, "shape", ("colour",), CODEC)
    assert isinstance(pred, ind.CopyParameter) and pred.prop == "shape"


def test_a_near_identical_shape_is_not_copied():
    # Each value is its object's shape less the top-left cell: its vector
    # is within TAU_SAME of the object's own, but copying would mispredict it.
    objs = [obj([[4] * 5] * 5), obj([[6] * 6] * 4)]
    values = [Shape(frozenset(sorted(o.mask.offsets())[1:])) for o in objs]
    assert all(CODEC.encode("shape", v) @ o.shape_vec >= ab.TAU_SAME for o, v in zip(objs, values))
    pred = ind.train_parameter_predictor(list(zip(objs, values)), "shape", ("shape",), CODEC)
    assert not isinstance(pred, ind.CopyParameter)
    assert [pred.predict(o, o.mask.dims, CODEC) for o in objs] == values


def test_shortcut_precedence_over_linear():
    # A linear map could fit these, but the constant shortcut must win.
    pairs = [(pixel(c, c - 1, 0), Amount(2.0, 0.0)) for c in (1, 2, 3)]
    pred = ind.train_parameter_predictor(pairs, "amount", ("colour",), CODEC)
    assert isinstance(pred, ind.ConstantParameter)


def test_linear_parameter_four_way_colour_map():
    src_dst = [(1, 5), (2, 6), (3, 7), (4, 8)]
    pairs = [(pixel(s, i, i), Colour(d)) for i, (s, d) in enumerate(src_dst)]
    pred = ind.train_parameter_predictor(pairs, "colour", ("colour",), CODEC)
    assert isinstance(pred, ind.LinearParameter)
    for i, (s, d) in enumerate(src_dst):
        assert pred.predict(pixel(s, 6 - i, i), (7, 7), CODEC) == Colour(d)


def test_linear_parameter_centre_shift_decodes_on_lattice():
    objs = [pixel(4, 3, c) for c in (0, 2, 3, 5)]
    pairs = [(o, Centre(o.mask.centre_point()[0] + 1.0, o.mask.centre_point()[1])) for o in objs]
    pred = ind.train_parameter_predictor(pairs, "centre", ("centre",), CODEC)
    assert isinstance(pred, ind.LinearParameter)
    for o, want in pairs:
        assert pred.predict(o, (7, 7), CODEC) == want


def test_linear_parameter_shape_vocabulary_decode():
    shapes = [Shape(square(1, 0, 0).mask.offsets()), Shape(pixel(1, 0, 0).mask.offsets())]
    objs = [pixel(2, 1, 1), pixel(7, 5, 5), pixel(2, 3, 1), pixel(7, 1, 5)]
    pairs = [(o, shapes[i % 2]) for i, o in enumerate(objs)]
    pred = ind.train_parameter_predictor(pairs, "shape", ("colour",), CODEC)
    assert isinstance(pred, ind.LinearParameter)
    assert pred.shapes.keys() == [shapes[0], shapes[1]]
    assert pred.predict(pixel(2, 6, 6), (7, 7), CODEC) == shapes[0]
    assert pred.predict(pixel(7, 0, 0), (7, 7), CODEC) == shapes[1]


def test_linear_shape_parameter_survives_program_json():
    shapes = [Shape(square(1, 0, 0).mask.offsets()), Shape(pixel(1, 0, 0).mask.offsets())]
    objs = [pixel(2, 1, 1), pixel(7, 5, 5), pixel(2, 3, 1), pixel(7, 1, 5)]
    pred = ind.train_parameter_predictor(
        [(o, shapes[i % 2]) for i, o in enumerate(objs)], "shape", ("colour",), CODEC
    )
    rule = ind.Rule(Op.GENERATE, ind.OperationPredictor(subset=("colour",)), {"shape": pred})
    doc = json.loads(json.dumps(ind.program_to_json(ind.Program((rule,)), CFG)))
    back = ind.program_from_json(doc, CFG).rules[0].parameters["shape"]
    # The shape cleanup table is rebuilt at load time, entry for entry.
    assert back.shapes.keys() == pred.shapes.keys()
    assert np.array_equal(
        np.stack([back.shapes[k] for k in back.shapes.keys()]),
        np.stack([pred.shapes[k] for k in pred.shapes.keys()]),
    )
    for probe in (pixel(2, 6, 6), pixel(7, 0, 0)):
        assert back.predict(probe, (7, 7), CODEC) == pred.predict(probe, (7, 7), CODEC)


def decode(slot, vector, shape_values=()):
    shapes = ind.shape_vocabulary(shape_values, ENC) if shape_values else None
    return CODEC.decode(slot, vector, (7, 7), shapes)


def discrete_values():
    bar = Shape(obj([[0, 0, 0], [3, 3, 3], [0, 0, 0]]).mask.offsets())
    corner = Shape(obj([[3, 0], [3, 3]]).mask.offsets())
    shapes = (Shape(square(1, 0, 0).mask.offsets()), Shape(pixel(1, 0, 0).mask.offsets()), bar, corner)
    return {
        "colour": [Colour(c) for c in range(1, 10)],
        "direction": list(Direction),
        "shape": list(shapes),
    }


@pytest.mark.parametrize("slot", ["colour", "direction", "shape"])
def test_decode_keeps_a_discrete_value_only_from_the_floor_up(slot):
    values = discrete_values()[slot]
    shape_values = tuple(values) if slot == "shape" else ()
    table = np.stack([CODEC.encode(slot, v) for v in values])
    # A unit direction orthogonal to every entry: a probe's similarity to
    # entry k is then its weight on entry k, and every other entry scores lower.
    basis, _ = np.linalg.qr(table.T)
    away = np.random.default_rng(3).standard_normal(CFG.dimension)
    away -= basis @ (basis.T @ away)
    away /= np.linalg.norm(away)
    for value, entry in zip(values, table):
        assert decode(slot, entry, shape_values) == value
        for sim, want in ((ind.DECODE_FLOOR + 0.01, value), (ind.DECODE_FLOOR - 0.01, None)):
            probe = sim * entry + np.sqrt(1.0 - sim * sim) * away
            assert decode(slot, probe, shape_values) == want


def test_decode_matches_the_name_parsing_oracle():
    values = discrete_values()
    shape_values = tuple(values["shape"])
    named = {
        "colour": [(f"colour:{c}", vsa.random_symbol(CFG, f"colour:{c}")) for c in range(1, 10)],
        "direction": [(d.value, vsa.random_symbol(CFG, f"direction:{d.value}")) for d in Direction],
        "shape": [(f"shape:{i}", pc.shape_bundle(s.offsets, ENC)) for i, s in enumerate(shape_values)],
    }
    rng = np.random.default_rng(11)
    n = CFG.dimension
    outcomes = set()
    for slot, table in named.items():
        names = [name for name, _ in table]
        matrix = np.stack([vec for _, vec in table])
        probes = [np.zeros(n)] + [rng.standard_normal(n) for _ in range(20)]
        probes += [vec + s * rng.standard_normal(n) / np.sqrt(n) for _, vec in table for s in (0.5, 1.5, 2.5, 3.5)]
        for candidates in ((shape_values, ()) if slot == "shape" else ((),)):
            for probe in probes:
                want = name_decode_direct(
                    slot, probe, names, matrix, ind.DECODE_FLOOR, Colour, Direction, candidates
                )
                assert decode(slot, probe, candidates) == want
                outcomes.add((slot, want is None))
    assert outcomes == {(slot, none) for slot in named for none in (True, False)}


def test_circulant_matrix_product_is_binding():
    rng = np.random.default_rng(29)
    v = rng.normal(size=16)
    x = rng.normal(size=16)
    assert np.allclose(circulant_direct(v) @ x, conv_direct(v, x), atol=1e-9)


def dense_descent(X, Y):
    """Dense reference: the factored trainer's initialization and schedule on an explicit matrix.

    Returns the map and the number of steps taken before the loss fell under ``LOSS_FLOOR``.
    """
    W = circulant_direct(np.mean([vsa.unbind(y, x) for x, y in zip(X, Y)], axis=0))
    for steps in range(ind.MAX_EPOCHS):
        resid = X @ W.T - Y
        if np.mean(np.sum(resid * resid, axis=1)) < ind.LOSS_FLOOR:
            return W, steps
        W = W - ind.LEARNING_RATE * ((2.0 / len(X)) * resid.T @ X)
    return W, ind.MAX_EPOCHS


def test_factored_training_matches_dense_training():
    rng = np.random.default_rng(31)
    n, m = 32, 3
    X = np.stack([vsa.normalize(rng.normal(size=n)) for _ in range(m)])
    Y = np.stack([vsa.normalize(rng.normal(size=n)) for _ in range(m)])
    base, correction = ind._train_linear_factors(X, Y)
    W, _ = dense_descent(X, Y)
    factored = circulant_direct(base) + correction.T @ X
    assert np.allclose(factored, W, atol=1e-8)
    probe = vsa.normalize(rng.normal(size=n))
    lp = ind.LinearParameter("colour", ("colour",), base, X, correction)
    assert np.allclose(lp.apply(probe), W @ probe, atol=1e-8)


def test_linear_training_stops_at_the_loss_floor(monkeypatch):
    # The correction fits three independent rows exactly, so the squared loss
    # falls through LOSS_FLOOR and the descent stops there, early.
    rng = np.random.default_rng(43)
    n = 64
    X = np.stack([vsa.normalize(rng.normal(size=n)) for _ in range(3)])
    Y = np.stack([vsa.normalize(rng.normal(size=n)) for _ in range(3)])
    W, steps = dense_descent(X, Y)
    assert 0 < steps < ind.MAX_EPOCHS
    base, correction = ind._train_linear_factors(X, Y)
    factored = circulant_direct(base) + correction.T @ X
    assert np.allclose(factored, W, atol=1e-8)
    loss = linear_loss_direct(factored, X, Y)
    assert loss < ind.LOSS_FLOOR
    # The floor is read at call time: without it the descent runs on to a smaller loss.
    monkeypatch.setattr(ind, "LOSS_FLOOR", 0.0)
    base, correction = ind._train_linear_factors(X, Y)
    assert linear_loss_direct(circulant_direct(base) + correction.T @ X, X, Y) < loss / 100


def recolour_by_shape_task(seed):
    """4 demos and 1 query on 8x8 grids: a 2x2 square at two corners and a 1x3
    bar at the other two, the colours 1, 2, 4 and 6 shuffled over the four;
    squares become colour 3 and bars colour 5, so the colour follows the
    shape alone."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(5):
        inp, out = np.zeros((8, 8), dtype=np.int64), np.zeros((8, 8), dtype=np.int64)
        squares = rng.permutation([True, True, False, False])
        for (r0, c0), is_square, colour in zip(((0, 0), (0, 4), (4, 0), (4, 4)), squares, rng.permutation([1, 2, 4, 6])):
            cells = ((0, 0), (0, 1), (1, 0), (1, 1)) if is_square else ((0, 0), (0, 1), (0, 2))
            for dr, dc in cells:
                inp[r0 + dr, c0 + dc] = colour
                out[r0 + dr, c0 + dc] = 3 if is_square else 5
        pairs.append((inp, out))
    return TaskRecord("recolour-by-shape", pairs[:4], [pairs[4]])


@pytest.mark.parametrize("dimension", [1024, 4096])
def test_recolour_by_shape_trains_a_linear_parameter(dimension, monkeypatch):
    config = vsa.VsaConfig(dimension=dimension, seed=0)
    encoder = ssp.SspEncoder(config)
    calls = []  # (inputs, targets) of each factored training

    def recording(inputs, targets, train=ind._train_linear_factors):
        calls.append((inputs, targets))
        return train(inputs, targets)

    monkeypatch.setattr(ind, "_train_linear_factors", recording)
    task = recolour_by_shape_task(7)
    (prediction,), diag = solve_task(task, encoder, pc.build_palette(config))
    assert diag.ok and diag.hypothesis is pc.ObjectHypothesis.EIGHT_CONNECTED
    assert [(a.kind, a.params) for a in diag.action_set] == [
        (Op.RECOLOUR, (("colour", Colour(3)),)),
        (Op.RECOLOUR, (("colour", Colour(5)),)),
    ]
    (rule,) = diag.program.rules
    predictor = rule.parameters["colour"]
    assert isinstance(predictor, ind.LinearParameter) and predictor.subset == ("shape",)
    # 7 subsets x 4 held-out demos in cross-validation, then the final fit.
    assert len(calls) == 29
    assert diag.demo_replays == [True] * 4 and diag.training_fit
    assert np.array_equal(prediction.grid, task.test[0][1])
    if dimension > 1024:
        return  # the dense map below is N x N
    X, Y = calls[-1]
    assert X is predictor.inputs
    W, _ = dense_descent(X, Y)
    factored = circulant_direct(predictor.base) + predictor.correction.T @ X
    assert np.max(np.abs(factored - W)) < 1e-9


# ---------------------------------------------------------------- cross validation


def make_observations(groups, labels_by_demo):
    objects, demo_of, labels = [], [], []
    for d, demo_objects in enumerate(groups):
        for o, lab in zip(demo_objects, labels_by_demo[d]):
            objects.append(o)
            demo_of.append(d)
            labels.append(lab)
    return ind._RuleObservations(
        kind=Op.MOVE,
        objects=objects,
        demo_of=np.array(demo_of, dtype=np.int64),
        labels=np.array(labels, dtype=bool),
        pairs_by_slot={},
        out_dims={d: (7, 7) for d in range(len(groups))},
        bundles=ind._Bundles(objects),
    )


def cross_validate(obs, subsets):
    """Subset selection as ``induce`` runs it: conditions trained first, in one batch."""
    folds = obs.folds()
    (conditions,) = ind.train_operation_predictor([(obs, subsets, folds)])
    return ind.cross_validate(obs, subsets, folds, CODEC, conditions)


def test_cross_validation_picks_generalizing_subset():
    # Colour separates the classes in every demo; centre only in the first two.
    groups = [
        [pixel(2, 1, 1), pixel(7, 1, 5)],
        [pixel(2, 2, 0), pixel(7, 2, 6)],
        [pixel(2, 3, 6), pixel(7, 3, 0)],
    ]
    labels = [[True, False]] * 3
    obs = make_observations(groups, labels)
    chosen = cross_validate(obs, [("centre",), ("colour",)])
    assert chosen == ("colour",)


def test_cross_validation_tie_keeps_rank_order():
    groups = [
        [pixel(2, 1, 1), pixel(7, 5, 5)],
        [pixel(2, 0, 3), pixel(7, 6, 3)],
    ]
    obs = make_observations(groups, [[True, False]] * 2)
    chosen = cross_validate(obs, [("colour",), ("colour", "shape")])
    assert chosen == ("colour",)


def test_cross_validation_single_demo_falls_back_to_top_rank():
    obs = make_observations([[pixel(2, 1, 1), pixel(7, 5, 5)]], [[True, False]])
    assert cross_validate(obs, [("shape",), ("colour",)]) == ("shape",)


def fold_scores_per_subset_and_fold(obs, subsets, folds, conditions, trained):
    """Cross-validation scores by training every slot anew for each (subset, fold): the oracle for ``ind._fold_scores``.

    Appends the class of every parameter predictor it trains to ``trained``.
    """
    scores = np.empty((len(subsets), len(folds)))
    for s, subset in enumerate(subsets):
        for f, held_out in enumerate(folds):
            dims = obs.out_dims[held_out]
            slot_scores = []
            for slot, pairs in obs.pairs_by_slot.items():
                train_pairs = [(obs.objects[i], v) for i, v in pairs if obs.demo_of[i] != held_out]
                test_pairs = [(obs.objects[i], v) for i, v in pairs if obs.demo_of[i] == held_out]
                if not train_pairs or not test_pairs:
                    continue
                predictor = ind.train_parameter_predictor(train_pairs, slot, subset, CODEC)
                trained.append(type(predictor))
                slot_scores.append(float(np.mean([predictor.predict(o, dims, CODEC) == v for o, v in test_pairs])))
            components = [float(conditions.accuracy[s, f])]
            if slot_scores:
                components.append(float(np.mean(slot_scores)))
            scores[s, f] = float(np.mean(components))
    return scores


def assert_cross_validation_matches_the_oracle(obs, subsets, trained):
    """Equal fold scores, bit for bit, and the subset the oracle's scores pick; returns the fold count."""
    folds = obs.folds()
    (conditions,) = ind.train_operation_predictor([(obs, subsets, folds)])
    want = fold_scores_per_subset_and_fold(obs, subsets, folds, conditions, trained)
    assert np.array_equal(ind._fold_scores(obs, subsets, folds, CODEC, conditions), want)
    chosen = ind.cross_validate(obs, subsets, folds, CODEC, conditions)
    assert chosen == (subsets[int(np.argmax(want.mean(axis=1)))] if folds else subsets[0])
    return len(folds)


def slot_observations(rng):
    """Seeded observations over perceived pixels and squares with one to three parameter slots.

    Every positive moves by one constant amount; each keeps its own colour,
    or each takes colour 3 or 5 at random; each takes one of three centres at
    random. So the slots train constant, copied and linear predictors, and a
    random slot is constant in the folds whose training values agree.
    """
    groups, labels = [], []
    for _ in range(int(rng.integers(2, 5))):
        count = int(rng.integers(2, 5))
        groups.append([
            (pixel, square)[rng.integers(2)](int(rng.integers(1, 10)), int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            for _ in range(count)
        ])
        wanted = rng.random(count) < 0.6
        wanted[0] = True
        labels.append(wanted)
    obs = make_observations(groups, labels)
    positives = np.flatnonzero(obs.labels)
    copied = rng.random() < 0.5
    slots = {
        "amount": lambda o: Amount(1.0, 0.0),
        "colour": lambda o: Colour(o.mask.colour) if copied else Colour(int(rng.choice([3, 5]))),
        "centre": lambda o: Centre(*[(0.0, 0.0), (1.0, -1.0), (-2.0, 1.5)][rng.integers(3)]),
    }
    chosen = [name for name in slots if rng.random() < 0.5] or ["amount"]
    obs.pairs_by_slot = {slot: [(int(i), slots[slot](obs.objects[i])) for i in positives] for slot in chosen}
    return obs


def test_cross_validation_scores_equal_the_per_subset_and_fold_loop_bitwise():
    rng = np.random.default_rng(61)
    trained, folds = [], 0
    for _ in range(15):
        obs = slot_observations(rng)
        folds += assert_cross_validation_matches_the_oracle(obs, ALL_SUBSETS, trained)
    assert folds > 40
    assert {ind.ConstantParameter, ind.CopyParameter, ind.LinearParameter} <= set(trained)


def test_cross_validation_on_recolour_by_shape_equals_the_oracle_bitwise():
    checked, trained = 0, []
    for seed in (0, 2):
        result = ab.abduce(recolour_by_shape_task(seed).train, ENC, PALETTE)
        for obs in ind._observations(result).values():
            if obs.labels.any():
                checked += assert_cross_validation_matches_the_oracle(obs, ind.rank_properties(obs.bundles, obs.labels), trained)
    assert checked == 8 and ind.LinearParameter in trained


def test_a_shortcut_slot_is_trained_once_per_fold(monkeypatch):
    # Per demo: a square that becomes colour 3 and moves right, a pixel that
    # becomes colour 5 and moves right, and an object left alone. The colour
    # needs a linear map under each subset; the constant amount does not.
    groups = [[square(2, 0, 0), pixel(7, 5, 5), pixel(4, 3, 3)],
              [pixel(6, 0, 0), square(8, 4, 4), pixel(4, 3, 3)],
              [square(1, 4, 0), pixel(9, 0, 5), square(4, 2, 2)]]
    labels = [[True, True, False]] * 3
    obs = make_observations(groups, labels)
    colours = [Colour(3), Colour(5), Colour(5), Colour(3), Colour(3), Colour(5)]
    positives = np.flatnonzero(obs.labels)
    obs.pairs_by_slot = {
        "colour": [(int(i), c) for i, c in zip(positives, colours)],
        "amount": [(int(i), Amount(1.0, 0.0)) for i in positives],
    }
    calls = []

    def counting(pairs, slot, subset, codec, train=ind.train_parameter_predictor):
        predictor = train(pairs, slot, subset, codec)
        calls.append((slot, type(predictor)))
        return predictor

    monkeypatch.setattr(ind, "train_parameter_predictor", counting)
    folds = obs.folds()
    (conditions,) = ind.train_operation_predictor([(obs, ALL_SUBSETS, folds)])
    ind.cross_validate(obs, ALL_SUBSETS, folds, CODEC, conditions)
    assert len(folds) == 3
    assert calls.count(("amount", ind.ConstantParameter)) == 3
    assert calls.count(("colour", ind.LinearParameter)) == 3 * len(ALL_SUBSETS)
    assert len(calls) == 3 + 3 * len(ALL_SUBSETS)


# ---------------------------------------------------------------- induce


def demo(inp, out):
    return (pc.as_grid(inp), pc.as_grid(out))


def conditional_move_demos():
    """Colour 2 moves one step right; colour 7 stays."""
    return [
        demo(
            [[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 7, 0], [0, 0, 0, 0]],
            [[0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 7, 0], [0, 0, 0, 0]],
        ),
        demo(
            [[0, 0, 0, 0], [7, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [7, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0]],
        ),
    ]


def test_induce_recolour_task_builds_vacuous_constant_rule():
    demos = [
        demo([[0, 3, 0], [3, 3, 0], [0, 0, 0]], [[0, 5, 0], [5, 5, 0], [0, 0, 0]]),
        demo([[0, 0, 0], [0, 3, 3], [0, 0, 3]], [[0, 0, 0], [0, 5, 5], [0, 0, 5]]),
    ]
    result = ab.abduce(demos, ENC, PALETTE)
    program = ind.induce(result, CODEC)
    assert len(program.rules) == 1
    rule = program.rules[0]
    assert rule.kind is Op.RECOLOUR
    assert rule.condition.weights is None
    assert rule.parameters["colour"] == ind.ConstantParameter(Colour(5))


def test_induce_conditional_move_task():
    demos = conditional_move_demos()
    result = ab.abduce(demos, ENC, PALETTE)
    assert result.ok
    program = ind.induce(result, CODEC)
    kinds = [r.kind for r in program.rules]
    assert set(kinds) == {Op.IDENTITY, Op.MOVE}
    move = program.rules[kinds.index(Op.MOVE)]
    ident = program.rules[kinds.index(Op.IDENTITY)]
    assert move.condition.weights is not None
    assert "colour" in move.condition.subset
    for scene in result.input_scenes:
        for o in scene.objects:
            fired = move.condition.probability(o) >= 0.5
            assert fired == (o.mask.colour == 2)
            held = ident.condition.probability(o) >= 0.5
            assert held == (o.mask.colour == 7)


def test_fire_threshold_is_read_when_called(monkeypatch):
    result = ab.abduce(conditional_move_demos(), ENC, PALETTE)
    program = ind.induce(result, CODEC)
    assert ind.training_fit(result, program, CODEC)
    groups = [
        [pixel(2, 1, 1), pixel(7, 1, 5), pixel(7, 4, 4)],
        [pixel(2, 2, 0), pixel(7, 2, 6), pixel(7, 5, 5)],
        [pixel(2, 3, 6), pixel(7, 3, 0), pixel(7, 6, 2)],
    ]
    obs = make_observations(groups, [[True, False, False]] * 3)
    subsets = [("centre",), ("colour",)]
    folds = obs.folds()
    (trained,) = ind.train_operation_predictor([(obs, subsets, folds)])
    assert trained.accuracy[1].tolist() == [1.0] * 3
    # No probability reaches a threshold above one, so no rule fires: the
    # fit fails and every held-out fold scores its share of negatives.
    monkeypatch.setattr(ind, "FIRE_THRESHOLD", 1.5)
    assert not ind.training_fit(result, program, CODEC)
    (silent,) = ind.train_operation_predictor([(obs, subsets, folds)])
    assert silent.accuracy == pytest.approx(np.full((2, 3), 2 / 3))


def test_training_fit_rejects_rules_that_disagree_with_the_explanation():
    result = ab.abduce(conditional_move_demos(), ENC, PALETTE)
    program = ind.induce(result, CODEC)
    assert ind.training_fit(result, program, CODEC)
    kinds = [r.kind for r in program.rules]
    move = program.rules[kinds.index(Op.MOVE)]

    def with_move(rule):
        rules = list(program.rules)
        rules[kinds.index(Op.MOVE)] = rule
        return ind.Program(tuple(rules))

    # A vacuous rule fires on objects the explanation never recoloured.
    unused = ind.Rule(Op.RECOLOUR, ind.OperationPredictor(("colour",)), {"colour": ind.ConstantParameter(Colour(5))})
    assert not ind.training_fit(result, ind.Program(program.rules + (unused,)), CODEC)
    wrong_amount = ind.Rule(Op.MOVE, move.condition, {"amount": ind.ConstantParameter(Amount(0, 1))})
    assert not ind.training_fit(result, with_move(wrong_amount), CODEC)
    assert not ind.training_fit(result, with_move(ind.Rule(Op.MOVE, move.condition, {})), CODEC)


def test_novel_generate_share_is_read_when_called(monkeypatch):
    # No share of novel generate actions stays at or below -1, so every
    # hypothesis that reaches the check is rejected by it.
    monkeypatch.setattr(ab, "NOVEL_GENERATE_SHARE", -1)
    result = ab.abduce(conditional_move_demos(), ENC, PALETTE)
    assert not result.ok
    assert len(result.trace) == len(pc.ObjectHypothesis)
    assert all(line.endswith("(most output objects need one-off generate actions)") for line in result.trace)


def test_same_object_similarity_is_read_when_called(monkeypatch):
    assert ab.candidate_operations(0.96, 1.0, 1.0) == {Op.IDENTITY}
    # Above the bar, the same similarity says the colour changed.
    monkeypatch.setattr(ab, "TAU_SAME", 0.97)
    assert ab.candidate_operations(0.96, 1.0, 1.0) == {Op.RECOLOUR, Op.GENERATE}


def test_induce_is_deterministic():
    demos = [
        demo([[0, 3], [3, 3]], [[0, 5], [5, 5]]),
        demo([[3, 0], [3, 3]], [[5, 0], [5, 5]]),
    ]
    result = ab.abduce(demos, ENC, PALETTE)
    doc_a = ind.program_to_json(ind.induce(result, CODEC), CFG)
    doc_b = ind.program_to_json(ind.induce(result, CODEC), CFG)
    assert doc_a == doc_b


def test_induce_rejects_failed_explanation():
    result = ab.abduce([demo([[7, 7]], [[5, 5]]), demo([[7, 7]], [[6, 6]])], ENC, PALETTE)
    assert not result.ok
    with pytest.raises(ValueError):
        ind.induce(result, CODEC)


def test_program_json_round_trip():
    demos = conditional_move_demos()
    result = ab.abduce(demos, ENC, PALETTE)
    program = ind.induce(result, CODEC)
    doc = ind.program_to_json(program, CFG)
    restored = ind.program_from_json(json.loads(json.dumps(doc)), CFG)
    assert [r.kind for r in restored.rules] == [r.kind for r in program.rules]
    for orig, back in zip(program.rules, restored.rules):
        for o in result.input_scenes[0].objects:
            assert back.condition.probability(o) == pytest.approx(
                orig.condition.probability(o), abs=1e-12
            )
            for slot, p in orig.parameters.items():
                assert back.parameters[slot].predict(o, (4, 4), CODEC) == p.predict(
                    o, (4, 4), CODEC
                )


def test_program_json_rejects_config_mismatch():
    demos = [demo([[3]], [[5]]), demo([[3, 3]], [[5, 5]])]
    program = ind.induce(ab.abduce(demos, ENC, PALETTE), CODEC)
    doc = ind.program_to_json(program, CFG)
    with pytest.raises(ValueError):
        ind.program_from_json(doc, vsa.VsaConfig(dimension=256, seed=33))
    bad = dict(doc)
    bad["format"] = "something-else"
    with pytest.raises(ValueError):
        ind.program_from_json(bad, CFG)


def linear_program_doc():
    shapes = [Shape(square(1, 0, 0).mask.offsets()), Shape(pixel(1, 0, 0).mask.offsets())]
    objs = [pixel(2, 1, 1), pixel(7, 5, 5), pixel(2, 3, 1), pixel(7, 1, 5)]
    pred = ind.train_parameter_predictor(
        [(o, shapes[i % 2]) for i, o in enumerate(objs)], "shape", ("colour",), CODEC
    )
    condition = ind.OperationPredictor(subset=("colour",), weights=vsa.normalize(np.ones(CFG.dimension)))
    rule = ind.Rule(Op.GENERATE, condition, {"shape": pred})
    return json.loads(json.dumps(ind.program_to_json(ind.Program((rule,)), CFG)))


def truncate_rows(rows):
    return [row[:-1] for row in rows]


@pytest.mark.parametrize(
    "field,part,mangle",
    [
        ("weights", "condition", lambda v: v[:-1]),
        ("base", "shape", lambda v: v[:-1]),
        ("base", "shape", lambda v: [v]),
        ("inputs", "shape", truncate_rows),
        ("inputs", "shape", lambda v: v[0]),
        ("inputs", "shape", lambda v: [v[0], v[1][:-1]]),
        ("correction", "shape", truncate_rows),
        ("correction", "shape", lambda v: v[:-1]),
    ],
)
def test_program_json_rejects_vectors_of_the_wrong_length(field, part, mangle):
    doc = linear_program_doc()
    assert len(ind.program_from_json(doc, CFG).rules) == 1
    rule = doc["rules"][0]
    section = rule["condition"] if part == "condition" else rule["parameters"][part]
    section[field] = mangle(section[field])
    with pytest.raises(ValueError, match=field):
        ind.program_from_json(doc, CFG)


def test_program_json_rejects_unknown_copied_property():
    rule = {
        "kind": "recolour",
        "condition": {"subset": ["colour"], "weights": None, "steepness": 5.0, "threshold": 0.0},
        "parameters": {"colour": {"variant": "copy", "property": "size"}},
    }
    doc = {"format": ind.PROGRAM_FORMAT, "version": ind.PROGRAM_VERSION, "dimension": CFG.dimension, "seed": CFG.seed}
    assert len(ind.program_from_json({**doc, "rules": []}, CFG).rules) == 0
    with pytest.raises(ValueError):
        ind.program_from_json({**doc, "rules": [rule]}, CFG)


@pytest.mark.parametrize("slot", ["bogus", "colour"])
def test_program_json_rejects_a_linear_predictor_under_the_wrong_slot(slot):
    # The document's one linear predictor is a generate rule's shape predictor.
    doc = linear_program_doc()
    doc["rules"][0]["parameters"]["shape"]["slot"] = slot
    with pytest.raises(ValueError, match="slot"):
        ind.program_from_json(doc, CFG)


def test_program_json_rejects_a_shape_offset_off_the_lattice():
    doc = linear_program_doc()
    doc["rules"][0]["parameters"]["shape"]["shape_values"][1]["value"] = [[0.0, 0.25]]
    with pytest.raises(ValueError, match="half-cell lattice"):
        ind.program_from_json(doc, CFG)


def test_program_json_rejects_a_parameter_key_its_kind_lacks():
    doc = linear_program_doc()
    rule = doc["rules"][0]
    shape = rule["parameters"].pop("shape")
    rule["parameters"]["bogus"] = {**shape, "slot": "bogus"}
    with pytest.raises(ValueError, match="slot"):
        ind.program_from_json(doc, CFG)
    # A real slot, but not one of a move rule's.
    rule["kind"], rule["parameters"] = "move", {"shape": shape}
    with pytest.raises(ValueError, match="slot"):
        ind.program_from_json(doc, CFG)
