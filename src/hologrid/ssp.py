"""Continuous coordinates as holographic vectors.

A point x in R^D is encoded by stamping a fixed random phase pattern onto
the spectrum: encode(x) = IDFT{ exp(i * Theta^T x / l) } where Theta is a
D x N phase matrix whose rows are conjugate-symmetric (zero phase at the DC
and Nyquist bins), so encodings are real, unitary and unit-norm.

Binding encodings adds their coordinates, inverting negates them, and
fractional powers scale them, which is what lets grid geometry ride on the
same algebra as discrete symbols.
"""
from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from . import vsa
from .vsa import HyperVector, VsaConfig


class NonUnitaryError(ValueError):
    """Fractional powers are only defined for unitary vectors."""


_UNITARY_TOL = 1e-6


class SspEncoder:
    """Spatial encoder for a fixed config, feature dimension and length scale.

    The phase matrix is a pure function of (seed, feature_dim), so two
    encoders built from the same config agree exactly. The length scale
    only rescales coordinates at encode time.
    """

    def __init__(self, config: VsaConfig, feature_dim: int = 2, length_scale: float = 1.0):
        if feature_dim < 1:
            raise ValueError("feature_dim must be at least 1")
        if not (length_scale > 0):
            raise ValueError("length_scale must be positive")
        self.config = config
        self.feature_dim = feature_dim
        self.length_scale = float(length_scale)
        n = config.dimension
        half = np.empty((feature_dim, n // 2 + 1))
        for d in range(feature_dim):
            rng_vec = vsa.random_symbol(config, f"spatial-axis-{d}")
            # Reuse the symbol sampler's phases: they are exactly the free
            # (-pi, pi] phases with DC and Nyquist pinned to zero.
            half[d] = np.angle(np.fft.rfft(rng_vec))
        half[:, 0] = 0.0
        half[:, -1] = 0.0
        self._half_phases = half
        self._half_phases.setflags(write=False)
        self._full_phases: np.ndarray | None = None
        self._phasor_cache: dict = {}

    @property
    def phase_matrix(self) -> NDArray[np.float64]:
        """Full D x N phase matrix (the half spectrum mirrored with sign flip)."""
        if self._full_phases is None:
            n = self.config.dimension
            full = np.zeros((self.feature_dim, n))
            full[:, : n // 2 + 1] = self._half_phases
            full[:, n // 2 + 1 :] = -self._half_phases[:, 1 : n // 2][:, ::-1]
            full.setflags(write=False)
            self._full_phases = full
        return self._full_phases

    def encode(self, point) -> HyperVector:
        """Encode one point; returns a real unitary unit-norm vector."""
        return self.encode_many(np.asarray(point, dtype=np.float64).reshape(1, -1))[0]

    def encode_many(self, points) -> NDArray[np.float64]:
        """Encode points given as an (M, D) array; returns (M, N)."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.feature_dim:
            raise ValueError(f"expected points of shape (M, {self.feature_dim})")
        n = self.config.dimension
        phases = pts @ self._half_phases / self.length_scale
        return np.fft.irfft(np.exp(1j * phases), n, axis=1)

    def _axis_phasors(self, dim: int, lo: float, hi: float, step: float):
        """exp(i * theta_d * t / l) for every lattice value t, cached."""
        key = (dim, float(lo), float(hi), float(step))
        hit = self._phasor_cache.get(key)
        if hit is not None:
            return hit
        values = _lattice_axis(lo, hi, step)
        phasors = np.exp(1j * np.outer(values / self.length_scale, self._half_phases[dim]))
        self._phasor_cache[key] = (values, phasors)
        return values, phasors


def _lattice_axis(lo: float, hi: float, step: float) -> NDArray[np.float64]:
    if not (step > 0) or hi < lo:
        raise ValueError("lattice needs hi >= lo and a positive step")
    count = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(count)


def fractional_power(v: HyperVector, exponent: float) -> HyperVector:
    """Element-wise spectral power using principal phases.

    Raising to integer powers agrees exactly with repeated binding; for
    fractional exponents the principal branch fixes the (otherwise
    ambiguous) result. The base must be unitary.
    """
    n = v.shape[-1]
    f = np.fft.rfft(v)
    if np.max(np.abs(np.abs(f) - 1.0)) > _UNITARY_TOL:
        raise NonUnitaryError("fractional power of a non-unitary vector")
    return np.fft.irfft(np.exp(1j * np.angle(f) * exponent), n)


class SimilarityMap:
    """Similarity of one vector against a 2-D lattice of encoded points."""

    def __init__(self, xs: NDArray[np.float64], ys: NDArray[np.float64], values: NDArray[np.float64]):
        self.xs = xs
        self.ys = ys
        self.values = values

    def to_csv(self) -> str:
        """CSV text: header x,y,value then one row per lattice point.

        Points appear in row-major order (x varies slowest) and numbers
        carry nine significant digits, so exports are byte-reproducible.
        """
        lines = ["x,y,value"]
        for i, x in enumerate(self.xs):
            for j, y in enumerate(self.ys):
                lines.append(f"{x:.9g},{y:.9g},{self.values[i, j]:.9g}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def _lattice_similarities(encoder: SspEncoder, v: HyperVector, region, step: float):
    if encoder.feature_dim != 2:
        raise ValueError("lattice queries are defined for 2-D encoders")
    (x_lo, x_hi), (y_lo, y_hi) = region
    xs, ex = encoder._axis_phasors(0, x_lo, x_hi, step)
    ys, ey = encoder._axis_phasors(1, y_lo, y_hi, step)
    n = encoder.config.dimension
    spec = np.fft.rfft(v)
    # Dot product through the half spectrum: double every bin except DC
    # and Nyquist, then the lattice similarity factorizes per axis.
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    u = weights * np.conj(spec) / n
    values = np.real((ex * u) @ ey.T)
    return xs, ys, values


def similarity_map(encoder: SspEncoder, v: HyperVector, region, step: float) -> SimilarityMap:
    """Similarities of ``v`` against every lattice point of ``region``.

    ``region`` is ((x_lo, x_hi), (y_lo, y_hi)) with inclusive endpoints.
    """
    xs, ys, values = _lattice_similarities(encoder, v, region, step)
    return SimilarityMap(xs, ys, values)


def decode(encoder: SspEncoder, v: HyperVector, region, step: float) -> tuple[tuple[float, float], float]:
    """Best-matching lattice point and its similarity.

    Ties resolve to the first point in row-major order (x slowest).
    """
    xs, ys, values = _lattice_similarities(encoder, v, region, step)
    flat = int(np.argmax(values))
    i, j = np.unravel_index(flat, values.shape)
    return (float(xs[i]), float(ys[j])), float(values[i, j])
