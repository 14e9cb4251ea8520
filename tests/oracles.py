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


def ssp_encode_direct(phase_matrix: np.ndarray, point, length_scale: float) -> np.ndarray:
    """Spatial encoding from the phase matrix by the full-ifft definition."""
    x = np.asarray(point, dtype=np.float64)
    phases = phase_matrix.T @ x / length_scale  # (N,)
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


def condition_training_direct(pos, neg, learning_rate, max_epochs, loss_floor, initial_steepness):
    """Logistic condition predictor trained on the weight vector itself, in R^N.

    The weights start at the normalized difference of the class sums (the
    positive sum when that difference vanishes) and take full-batch
    gradient steps on sigmoid(k * (w.x - b)), renormalized after each one.
    Returns (weights, steepness, threshold); raises ValueError when a
    weight vector cannot be normalized.
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
        loss = float(np.mean(np.maximum(z, 0.0) - z * ys + np.log1p(np.exp(-np.abs(z)))))
        if loss < loss_floor:
            break
        grad_w = k * (xs.T @ r)
        grad_k = float(r @ margins)
        grad_b = float(-k * r.sum())
        w = _unit(w - learning_rate * grad_w)
        k = max(k - learning_rate * grad_k, 1e-3)
        b = b - learning_rate * grad_b
    return w, k, b


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
