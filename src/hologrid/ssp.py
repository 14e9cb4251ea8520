"""Continuous coordinates as holographic vectors.

A point x in R^2 is encoded by stamping a fixed random phase pattern onto
the spectrum: encode(x) = IDFT{ exp(i * Theta^T x) } where Theta is a
2 x N phase matrix whose rows are conjugate-symmetric (zero phase at the DC
and Nyquist bins), so encodings are real, unitary and unit-norm.

Binding encodings adds their coordinates, inverting negates them, and
fractional powers scale them, which is what lets grid geometry ride on the
same algebra as discrete symbols.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from . import vsa
from .vsa import HyperVector, VsaConfig


class NonUnitaryError(ValueError):
    """Fractional powers are only defined for unitary vectors."""


_UNITARY_TOL = 1e-6

# The half-cell lattice every readout scans: -29.5 ... 29.5 in steps of 0.5
# holds every centre (within 14.5) and every amount (within 29) of a 30x30 grid.
_LATTICE = np.arange(-59, 60) * 0.5


class SspEncoder:
    """Spatial encoder of 2-D grid coordinates for a fixed config.

    The phase matrix is a pure function of the seed, so two encoders built
    from the same config agree exactly.
    """

    def __init__(self, config: VsaConfig):
        self.config = config
        n = config.dimension
        half = np.empty((2, n // 2 + 1))
        for d in range(2):
            rng_vec = vsa.random_symbol(config, f"spatial-axis-{d}")
            # Reuse the symbol sampler's phases: they are exactly the free
            # (-pi, pi] phases with DC and Nyquist pinned to zero.
            half[d] = np.angle(np.fft.rfft(rng_vec))
        half[:, 0] = 0.0
        half[:, -1] = 0.0
        self._half_phases = half
        self._half_phases.setflags(write=False)

    def encode(self, point) -> HyperVector:
        """Encode one point; returns a real unitary unit-norm vector."""
        return self.encode_many(np.asarray(point, dtype=np.float64).reshape(1, -1))[0]

    def encode_many(self, points) -> NDArray[np.float64]:
        """Encode points given as an (M, 2) array; returns (M, N)."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("expected points of shape (M, 2)")
        n = self.config.dimension
        phases = pts @ self._half_phases
        return np.fft.irfft(np.exp(1j * phases), n, axis=1)

    @cached_property
    def _lattice(self):
        """Phasors exp(i * theta_d * t) of both axes on ``_LATTICE``, and the half-spectrum weights.

        Built on the first readout, shape (2, 119, N/2 + 1). Dot products
        through the half spectrum double every bin except DC and Nyquist.
        """
        phasors = np.exp(1j * np.stack([np.outer(_LATTICE, theta) for theta in self._half_phases]))
        weights = np.full(self.config.dimension // 2 + 1, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        return phasors, weights


def _lattice_slice(lo: float, hi: float, step: float) -> slice:
    """The entries lo, lo + step, ..., hi of ``_LATTICE``; raises off the lattice."""
    first, stride, last = (lo - _LATTICE[0]) / 0.5, step / 0.5, (hi - _LATTICE[0]) / 0.5
    on_lattice = all(float(k).is_integer() for k in (first, stride, last))
    if not (on_lattice and 0 <= first <= last < len(_LATTICE) and stride > 0 and (last - first) % stride == 0):
        raise ValueError(f"readout axis {lo}..{hi} step {step} is off the half-cell lattice within 29.5")
    return slice(int(first), int(last) + 1, int(stride))


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


def similarity_map(encoder: SspEncoder, v: HyperVector, region, step: float):
    """Similarities of ``v`` against every lattice point of ``region``.

    ``region`` is ((x_lo, x_hi), (y_lo, y_hi)) with inclusive endpoints on
    the half-cell lattice within 29.5, and ``step`` a multiple of 0.5.
    Returns (xs, ys, values) with values[i, j] the similarity at (xs[i], ys[j]).
    """
    (x_lo, x_hi), (y_lo, y_hi) = region
    sx, sy = _lattice_slice(x_lo, x_hi, step), _lattice_slice(y_lo, y_hi, step)
    phasors, weights = encoder._lattice
    u = weights * np.conj(np.fft.rfft(v)) / encoder.config.dimension
    # The lattice similarity factorizes per axis.
    return _LATTICE[sx], _LATTICE[sy], np.real((phasors[0, sx] * u) @ phasors[1, sy].T)


def decode(encoder: SspEncoder, v: HyperVector, region, step: float) -> tuple[tuple[float, float], float]:
    """Best-matching lattice point and its similarity.

    Ties resolve to the first point in row-major order (x slowest).
    """
    xs, ys, values = similarity_map(encoder, v, region, step)
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    return (float(xs[i]), float(ys[j])), float(values[i, j])
