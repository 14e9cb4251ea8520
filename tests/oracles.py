"""Independent reference implementations used to check the library.

Everything here is written directly from first principles (naive loops,
full complex FFTs) so that agreement with the library is meaningful.
Nothing in this module imports hologrid.
"""
from __future__ import annotations

import numpy as np


def conv_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular convolution by the O(N^2) definition: c[k] = sum_i a[i] b[(k-i) mod N]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for i in range(n):
            acc += a[i] * b[(k - i) % n]
        out[k] = acc
    return out


def invert_direct(a: np.ndarray) -> np.ndarray:
    """Index-reversed involution: out[i] = a[(-i) mod N], written as a loop."""
    n = a.shape[0]
    out = np.zeros(n)
    for i in range(n):
        out[i] = a[(-i) % n]
    return out


def identity_direct(n: int) -> np.ndarray:
    """The bind identity (1, 0, ..., 0): its spectrum is all ones."""
    out = np.zeros(n)
    out[0] = 1.0
    return out


def spectrum(v: np.ndarray) -> np.ndarray:
    """Full complex DFT of a real vector."""
    return np.fft.fft(np.asarray(v, dtype=np.float64))


def is_unitary_direct(v: np.ndarray, tol: float = 1e-9) -> bool:
    """All DFT coefficients on the unit circle."""
    return bool(np.max(np.abs(np.abs(spectrum(v)) - 1.0)) < tol)


def ssp_encode_direct(axis_symbols, point) -> np.ndarray:
    """Spatial encoding by the full-ifft definition.

    Row d of the 2 x N phase matrix is the full-spectrum phase of
    ``axis_symbols[d]``, with the DC and Nyquist phases set to zero.
    """
    phase_matrix = np.angle(np.fft.fft(np.asarray(axis_symbols, dtype=np.float64), axis=1))
    n = phase_matrix.shape[1]
    phase_matrix[:, 0] = 0.0
    phase_matrix[:, n // 2] = 0.0
    phases = phase_matrix.T @ np.asarray(point, dtype=np.float64)  # (N,)
    return np.real(np.fft.ifft(np.exp(1j * phases)))


def fractional_power_direct(v: np.ndarray, exponent: float) -> np.ndarray:
    """Element-wise spectral power with principal-branch phases, via full fft."""
    f = np.fft.fft(np.asarray(v, dtype=np.float64))
    powered = np.exp(1j * np.angle(f) * exponent) * (np.abs(f) ** exponent)
    return np.real(np.fft.ifft(powered))


def softmax_direct(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    e = np.exp(xs - np.max(xs))
    return e / e.sum()


def logistic_loss_direct(w, kappa, b, xs, ys) -> float:
    """Mean binary cross-entropy of sigmoid(kappa * (w.x - b)), naive formulation."""
    total = 0.0
    for x, y in zip(xs, ys):
        z = kappa * (float(np.dot(w, x)) - b)
        p = 1.0 / (1.0 + np.exp(-z))
        p = min(max(p, 1e-12), 1.0 - 1e-12)
        total += -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return total / len(ys)


def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / norm


def bbox_direct(cells) -> tuple[int, int, int, int]:
    """(min row, min col, max row, max col) of (row, col) cells, by numpy min and max."""
    arr = np.array(sorted(cells))
    return (int(arr[:, 0].min()), int(arr[:, 1].min()), int(arr[:, 0].max()), int(arr[:, 1].max()))


def _stencil_direct(point, sigma):
    """The 3x3 blur stencil around ``point`` and its weights exp(-d^2 / 2 sigma^2)."""
    offsets = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    weights = np.array([np.exp(-(dx * dx + dy * dy) / (2 * sigma**2)) for dx, dy in offsets])
    return np.array([(point[0] + dx, point[1] + dy) for dx, dy in offsets]), weights


def _shape_points_direct(cells):
    """Each (row, col) cell as the point (col - mid_col, mid_row - row) from the bbox midpoint, cells sorted."""
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    mid_r, mid_c = (min(rows) + max(rows)) / 2.0, (min(cols) + max(cols)) / 2.0
    return np.array([(c - mid_c, mid_r - r) for r, c in sorted(cells)])


def spectral_bundle_direct(half_phases, points, weights) -> np.ndarray:
    """Weighted bundle of spatial encodings, summed in the spectrum.

    ``half_phases`` is the encoder's 2 x (N/2 + 1) half-spectrum phase
    matrix. The phasors exp(i * Theta^T x) of the points (phases from one
    product of the point rows with ``half_phases``) are weighted and added
    one at a time, in point order; then one inverse real FFT, and division
    by the norm.
    """
    n = 2 * (half_phases.shape[1] - 1)
    total = None
    for weight, phases in zip(weights, np.asarray(points, dtype=np.float64) @ half_phases):
        term = weight * np.exp(1j * phases)
        total = term if total is None else total + term
    v = np.fft.irfft(total, n)
    return v / float(np.linalg.norm(v))


def centre_bundle_direct(point, sigma, half_phases) -> np.ndarray:
    """Blurred centre summed in the spectrum: the stencil of ``centre_vector_direct``."""
    return spectral_bundle_direct(half_phases, *_stencil_direct(point, sigma))


def shape_bundle_direct(cells, half_phases) -> np.ndarray:
    """Shape vector summed in the spectrum: the points of ``shape_vector_direct``, unit weights."""
    points = _shape_points_direct(cells)
    return spectral_bundle_direct(half_phases, points, np.ones(len(points)))


def shape_axis_product_direct(cells, half_phases) -> np.ndarray:
    """Shape vector from per-axis phasors: each point's half spectrum is exp(i theta_0 x) * exp(i theta_1 y).

    The points are those of ``shape_vector_direct``. Each axis row is built
    with ``np.exp`` from its row of ``half_phases``, the two are multiplied,
    and the products are added one at a time in point order; then one
    inverse real FFT, and division by the norm.
    """
    n = 2 * (half_phases.shape[1] - 1)
    total = None
    for x, y in _shape_points_direct(cells):
        term = np.exp(1j * (x * half_phases[0])) * np.exp(1j * (y * half_phases[1]))
        total = term if total is None else total + term
    return _unit(np.fft.irfft(total, n))


def centre_vector_direct(point, sigma, encode_many) -> np.ndarray:
    """Blurred centre: the 3x3 stencil around ``point`` weighted by exp(-d^2 / 2 sigma^2), normalized."""
    stencil, weights = _stencil_direct(point, sigma)
    return _unit(weights @ encode_many(stencil))


def shape_vector_direct(cells, encode_many) -> np.ndarray:
    """Sum of the encodings of each (row, col) cell as the point (col - mid_col, mid_row - row)
    from the bounding-box midpoint, cells in sorted order, normalized."""
    return _unit(encode_many(_shape_points_direct(cells)).sum(axis=0))


def bundle_direct(vectors) -> np.ndarray:
    """Normalized sum, accumulated in place one vector at a time."""
    total = np.array(vectors[0], dtype=np.float64)
    for v in vectors[1:]:
        total += v
    return _unit(total)


def condition_training_direct(pos, neg, learning_rate, max_epochs, initial_steepness):
    """Logistic condition predictor trained on the weight vector itself, in R^N.

    The weights start at the normalized difference of the class sums (the
    positive sum when that difference vanishes) and take ``max_epochs``
    full-batch gradient steps on sigmoid(k * (w.x - b)), renormalized after
    each one. Returns (weights, steepness, threshold); raises ValueError
    when a weight vector cannot be normalized.
    """
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    diff = pos.sum(axis=0) - neg.sum(axis=0)
    if np.linalg.norm(diff) < 1e-12:
        diff = pos.sum(axis=0)
    w = _unit(diff)
    b = float((pos @ w).mean() + (neg @ w).mean()) / 2.0
    k = initial_steepness
    xs = np.vstack([pos, neg])
    ys = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    for _ in range(max_epochs):
        margins = xs @ w - b
        z = k * margins
        r = (1.0 / (1.0 + np.exp(-z)) - ys) / len(ys)
        grad_w = k * (xs.T @ r)
        grad_k = float(r @ margins)
        grad_b = float(-k * r.sum())
        w = _unit(w - learning_rate * grad_w)
        k = max(k - learning_rate * grad_k, 1e-3)
        b = b - learning_rate * grad_b
    return w, k, b


def span_conditions_direct(operators, starts, train, labels, learning_rate, max_epochs, initial_steepness):
    """Condition training for a batch of runs over each run's Gram, every run for ``max_epochs`` steps.

    Run f's weights are a combination a of its rows, starting from
    ``starts[f]`` (all zero for a start that cannot be normalized, which
    refuses the run). ``operators[f]`` is [G P]: G a gives every similarity
    of the weights, and P a projects a onto the row space. The step
    k * sign_i * push_i (sign +1 for a positive, -1 for a negative) is added
    to a_i and its sum taken off the threshold; the stepped a is projected
    and renormalized by its length, sqrt(P a . G a). Every run is
    trained itself: a run that mirrors another (complementary labels, same
    rows) is trained from its own start, not negated. A weight vector that
    cannot be normalized freezes and refuses its run. Returns (weights,
    steepness, threshold, scores, refused).
    """
    train = np.asarray(train, dtype=bool)
    pos, neg = train & labels, train & ~labels

    def normable(norms):
        return (norms > 0.0) & np.isfinite(norms)

    width = operators.shape[1]

    def apply(coef):  # (G a, P a) from one product, a^T [G P]
        both = np.matmul(coef[:, None, :], operators)[:, 0]
        return both[:, :width], both[:, width:]

    refused = ~starts.any(axis=1)
    scores, weights = apply(starts)
    threshold = ((scores * pos).sum(axis=1) / pos.sum(axis=1) + (scores * neg).sum(axis=1) / neg.sum(axis=1)) / 2.0
    steepness = np.full(len(train), initial_steepness)

    sign = np.where(labels, 1.0, -1.0)
    share = train / train.sum(axis=1, keepdims=True)
    rate = learning_rate * share * sign
    active = ~refused
    for _ in range(max_epochs):
        if not active.any():
            break
        distance = scores - threshold[:, None]
        z = steepness[:, None] * (sign * distance)  # a row's loss is softplus(-z)
        push = rate / (1.0 + np.exp(z))  # sign times learning_rate times minus the loss gradient in z
        step = steepness[:, None] * push
        similarities, stepped = apply(weights + step)
        lengths = np.sqrt(np.einsum("fi,fi->f", stepped, similarities))
        ok = normable(lengths)
        if not ok.all():
            refused |= active & ~ok
            active &= ok
            lengths[~ok] = 1.0
        unit = lengths[:, None]
        updated = (
            stepped / unit,
            similarities / unit,
            threshold - step.sum(axis=1),
            np.maximum(steepness + np.einsum("fi,fi->f", push, distance), 1e-3),
        )
        if not active.all():
            frozen = ~active
            for new, old in zip(updated, (weights, scores, threshold, steepness)):
                new[frozen] = old[frozen]
        weights, scores, threshold, steepness = updated
    return weights, steepness, threshold, scores, refused


def span_conditions_two_product_direct(coords, train, labels, learning_rate, max_epochs, initial_steepness):
    """Condition training in span coordinates, one product for the weight step and one for the scores.

    ``coords[f]`` holds run f's rows in an orthonormal basis of their span,
    and the weights are trained as coordinates in that basis. They start
    from the difference of the class sums (the positive sum when that
    difference is under 1e-12 long). Weights, scores and threshold are kept
    apart: the margins are the scores less the threshold, the weight step
    is a combination of the rows, the threshold takes its own step, and the
    scores are rebuilt from the weights after every step. The same descent
    as ``span_conditions_direct`` in another representation and summation
    order, so the two agree to rounding.
    """
    train = np.asarray(train, dtype=bool)
    runs = len(train)
    pos, neg = train & labels, train & ~labels
    transposed = np.ascontiguousarray(coords.transpose(0, 2, 1))

    def combine(coef):  # sum of coef[i] * row i, in coordinates
        return np.matmul(transposed, coef[..., None])[..., 0]

    def norm(vectors):
        return np.sqrt(np.einsum("fi,fi->f", vectors, vectors))

    def normable(norms):
        return (norms > 0.0) & np.isfinite(norms)

    diff = combine(pos - neg.astype(np.float64))
    cancelled = norm(diff) < 1e-12
    diff = np.where(cancelled[:, None], combine(pos.astype(np.float64)), diff)
    lengths = norm(diff)
    refused = ~normable(lengths)
    lengths[refused] = 1.0
    weights = diff / lengths[:, None]
    scores = np.matmul(coords, weights[..., None])[..., 0]
    threshold = ((scores * pos).sum(axis=1) / pos.sum(axis=1) + (scores * neg).sum(axis=1) / neg.sum(axis=1)) / 2.0
    steepness = np.full(runs, initial_steepness)

    flip = np.where(labels, -1.0, 1.0)
    share = train / train.sum(axis=1, keepdims=True)
    flip_share = flip * share
    active = ~refused
    for _ in range(max_epochs):
        if not active.any():
            break
        margins = scores - threshold[:, None]
        flipped = steepness[:, None] * margins * flip  # a row's loss is softplus(flipped)
        resid = (1.0 / (1.0 + np.exp(-flipped))) * flip_share
        step = weights - learning_rate * (steepness[:, None] * combine(resid))
        lengths = norm(step)
        ok = normable(lengths)
        if not ok.all():
            refused |= active & ~ok
            active &= ok
            lengths[~ok] = 1.0
        updated = (
            step / lengths[:, None],
            np.maximum(steepness - learning_rate * np.einsum("fi,fi->f", resid, margins), 1e-3),
            threshold + learning_rate * (steepness * resid.sum(axis=1)),
        )
        if not active.all():
            frozen = ~active
            for new, old in zip(updated, (weights, steepness, threshold)):
                new[frozen] = old[frozen]
        weights, steepness, threshold = updated
        scores = np.matmul(coords, weights[..., None])[..., 0]
    return weights, steepness, threshold, scores, refused


def linear_loss_direct(weights, xs, ys) -> float:
    """Mean squared residual norm of a linear map, naive formulation."""
    total = 0.0
    for x, y in zip(xs, ys):
        r = weights @ x - y
        total += float(np.dot(r, r))
    return total / len(ys)


def hitting_sets_brute_force(partial_sets, cost_fn):
    """Exhaustive minimum-cost hitting set over the union universe.

    Returns the set of optimal-cost solutions (as frozensets) so a solver
    can be checked for both cost optimality and membership.
    """
    universe = sorted({a for s in partial_sets for a in s})
    n = len(universe)
    best_cost = None
    best: list[frozenset] = []
    for bits in range(1 << n):
        chosen = frozenset(universe[i] for i in range(n) if bits >> i & 1)
        if all(chosen & set(s) for s in partial_sets):
            c = cost_fn(chosen)
            if best_cost is None or c < best_cost:
                best_cost, best = c, [chosen]
            elif c == best_cost:
                best.append(chosen)
    return best_cost, best


def _solution_key_direct(actions) -> tuple:
    return tuple(sorted(a.sort_key() for a in actions))


def minimum_hitting_set_direct(partial_sets, op_cost, param_cost, node_budget):
    """Exact minimum-cost hitting set by branch and bound.

    Cost charges ``op_cost`` per distinct operation kind plus ``param_cost``
    per distinct action, so one shared parameterization beats many one-off
    ones. Equal-cost solutions resolve to the lexicographically smallest
    action encoding. Returns (actions, cost, optimal); ``optimal`` goes
    False only if the search used up ``node_budget`` nodes, in which case
    the best hitting set found so far is returned.

    This is the search written directly on action objects and their
    ``sort_key`` strings: it recomputes every bound from the sets and
    formats keys at every leaf. The library's numbered search must return
    exactly what it returns, including ties and budget cuts.
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
    best_key = _solution_key_direct(best_actions)

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
            key = _solution_key_direct(chosen)
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


PROPERTY_VECTORS = ("colour_vec", "centre_vec", "shape_vec")


def similarity_matrices_direct(outs, ins) -> np.ndarray:
    """(3, outs, ins) colour/centre/shape similarities, one np.dot per pair."""
    sims = np.zeros((len(PROPERTY_VECTORS), len(outs), len(ins)))
    for k, pick in enumerate(PROPERTY_VECTORS):
        for o, a in enumerate(outs):
            for i, b in enumerate(ins):
                sims[k, o, i] = np.dot(getattr(a, pick), getattr(b, pick))
    return sims


def padded_max_softmax_direct(sims) -> float:
    """Softmax confidence of one row's best match, padded with anchors 0 and 1."""
    padded = np.concatenate([np.asarray(sims, dtype=np.float64).ravel(), [0.0, 1.0]])
    e = np.exp(padded - padded.max())
    return float(np.max(e) / e.sum())


def rank_hypotheses_direct(demos, hypotheses, objects_of, similarity_matrices, padded_max_softmax):
    """Segmentation hypotheses ranked by mean best-match confidence, one
    hypothesis at a time over every demo (the original loop order).

    ``objects_of(grid, hyp)`` gives a grid's encoded objects; the similarity
    and softmax steps are passed in so that scores can be compared with ``==``.
    """
    scored = []
    for hyp in hypotheses:
        terms = []
        for in_grid, out_grid in demos:
            ins = objects_of(in_grid, hyp)
            outs = objects_of(out_grid, hyp)
            if not outs:
                continue
            if ins:
                matrix = similarity_matrices(outs, ins).sum(axis=0) / 3.0
                terms.extend(padded_max_softmax(row) for row in matrix)
            else:
                terms.extend(padded_max_softmax([]) for _ in outs)
        scored.append((hyp, float(np.mean(terms)) if terms else float("-inf")))
    order = {hyp: i for i, hyp in enumerate(hypotheses)}
    return sorted(scored, key=lambda pair: (-pair[1], order[pair[0]]))


def property_scores_direct(objects, labels) -> np.ndarray:
    """Per property: squared mean similarity of same-label pairs minus that of
    different-label pairs, one np.dot per pair; a missing pair class counts 0."""
    scores = []
    for pick in PROPERTY_VECTORS:
        same, diff = [], []
        for i in range(len(objects)):
            for j in range(i + 1, len(objects)):
                sim = float(np.dot(getattr(objects[i], pick), getattr(objects[j], pick)))
                (same if labels[i] == labels[j] else diff).append(sim)
        s_same = sum(same) / len(same) if same else 0.0
        s_diff = sum(diff) / len(diff) if diff else 0.0
        scores.append(s_same**2 - s_diff**2)
    return np.array(scores)


# Segmentation and hole finding as separate hand-written walks, one per
# question, each indexing the numpy grid cell by cell.

FOUR_NEIGHBOURS = ((-1, 0), (1, 0), (0, -1), (0, 1))
EIGHT_NEIGHBOURS = FOUR_NEIGHBOURS + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def flood_components_direct(grid, neighbours) -> list[set]:
    """Same-colour connected components over nonzero cells, row-major discovery order."""
    seen = set()
    comps = []
    rows, cols = grid.shape
    for r in range(rows):
        for c in range(cols):
            if grid[r, c] == 0 or (r, c) in seen:
                continue
            colour = grid[r, c]
            stack = [(r, c)]
            comp = {(r, c)}
            seen.add((r, c))
            while stack:
                cr, cc = stack.pop()
                for dr, dc in neighbours:
                    nr, nc = cr + dr, cc + dc
                    if 0 <= nr < rows and 0 <= nc < cols and (nr, nc) not in seen and grid[nr, nc] == colour:
                        seen.add((nr, nc))
                        comp.add((nr, nc))
                        stack.append((nr, nc))
            comps.append(comp)
    return comps


def runs_direct(grid, vertical: bool) -> list[set]:
    """Maximal same-colour runs along columns (vertical) or rows, by a scan."""
    rows, cols = grid.shape
    out = []
    outer, inner = (cols, rows) if vertical else (rows, cols)
    for o in range(outer):
        run: set = set()
        prev = 0
        for i in range(inner):
            r, c = (i, o) if vertical else (o, i)
            v = grid[r, c]
            if v != prev and run:
                out.append(run)
                run = set()
            if v != 0:
                run.add((r, c))
            prev = v
        if run:
            out.append(run)
    return out


def segment_direct(grid, hypothesis: str) -> list[tuple[int, frozenset]]:
    """(colour, cells) per object under a hypothesis named by its value
    ("8-connected", ..., "pixel"), sorted by (min row, min col, colour)."""
    if hypothesis == "8-connected":
        groups = flood_components_direct(grid, EIGHT_NEIGHBOURS)
    elif hypothesis == "4-connected":
        groups = flood_components_direct(grid, FOUR_NEIGHBOURS)
    elif hypothesis == "vertical":
        groups = runs_direct(grid, vertical=True)
    elif hypothesis == "horizontal":
        groups = runs_direct(grid, vertical=False)
    elif hypothesis == "colour":
        groups = [
            {(int(r), int(c)) for r, c in zip(*np.nonzero(grid == colour))}
            for colour in sorted(set(grid[grid > 0].tolist()))
        ]
    elif hypothesis == "pixel":
        groups = [{(int(r), int(c))} for r, c in zip(*np.nonzero(grid))]
    else:
        raise ValueError(hypothesis)
    masks = [(int(grid[next(iter(g))]), frozenset(g)) for g in groups if g]

    def key(mask):
        colour, cells = mask
        return (min(r for r, _ in cells), min(c for _, c in cells), colour)

    return sorted(masks, key=key)


def gravity_direct(cells, step, dims, occupied) -> frozenset:
    """Shift the cell set one step at a time until the next step would leave
    the canvas or overlap an occupied cell."""
    dr, dc = step
    rows, cols = dims
    cells = set(cells)
    while True:
        shifted = {(r + dr, c + dc) for r, c in cells}
        if not all(0 <= r < rows and 0 <= c < cols for r, c in shifted) or shifted & occupied:
            return frozenset(cells)
        cells = shifted


def interior_holes_direct(cells, dims) -> set:
    """Bbox cells outside ``cells`` that no 4-connected walk over non-mask
    cells reaches from a non-mask cell outside the bbox."""
    rows, cols = dims
    r0, r1 = min(r for r, _ in cells), max(r for r, _ in cells)
    c0, c1 = min(c for _, c in cells), max(c for _, c in cells)
    outside = [
        (r, c)
        for r in range(rows)
        for c in range(cols)
        if (r, c) not in cells and not (r0 <= r <= r1 and c0 <= c <= c1)
    ]
    seen = set(outside)
    stack = list(outside)
    while stack:
        r, c = stack.pop()
        for dr, dc in FOUR_NEIGHBOURS:
            nr, nc = r + dr, c + dc
            if 0 <= nr < rows and 0 <= nc < cols and (nr, nc) not in seen and (nr, nc) not in cells:
                seen.add((nr, nc))
                stack.append((nr, nc))
    return {
        (r, c)
        for r in range(r0, r1 + 1)
        for c in range(c0, c1 + 1)
        if (r, c) not in cells and (r, c) not in seen
    }


def name_decode_direct(slot, vector, names, matrix, floor, colour_of, direction_of, shape_values):
    """Discrete-slot decode through symbol names, the way names used to be parsed.

    Row i of ``matrix`` is the table entry named ``names[i]``: ``colour:<c>``
    for colours, the direction's own value (``up``, ...) for directions and
    ``shape:<i>`` for the i-th of ``shape_values``. The nearest entry (first
    on ties) is kept when its similarity reaches ``floor``, and its name is
    parsed back into a value with ``colour_of`` or ``direction_of``.
    """
    norm = float(np.linalg.norm(vector))
    if norm == 0.0 or not np.isfinite(norm):
        return None
    if slot == "shape" and not shape_values:
        return None
    sims = np.asarray(matrix) @ (vector / norm)
    best = int(np.argmax(sims))
    if sims[best] < floor:
        return None
    name = names[best]
    if slot == "colour":
        return colour_of(int(name.split(":")[1]))
    if slot == "direction":
        return direction_of(name)
    return shape_values[int(name.split(":")[1])]


def lattice_similarities_direct(half_phases, v, region, step):
    """Similarity map by the per-region formula: a fresh phasor table per axis.

    ``half_phases`` is the encoder's 2 x (N/2 + 1) half-spectrum phase
    matrix. Each axis lists lo, lo + step, ..., hi and tabulates
    exp(i * theta_d * t) for exactly those values; the dot product runs
    through the half spectrum with DC and Nyquist counted once.
    """
    axes = []
    for d, (lo, hi) in enumerate(region):
        values = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
        axes.append((values, np.exp(1j * np.outer(values, half_phases[d]))))
    n = 2 * (half_phases.shape[1] - 1)
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    u = weights * np.conj(np.fft.rfft(v)) / n
    (xs, ex), (ys, ey) = axes
    return xs, ys, np.real((ex * u) @ ey.T)
