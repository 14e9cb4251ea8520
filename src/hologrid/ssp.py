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
# The row of each lattice coordinate, looked up exactly: a coordinate off the lattice has none.
_LATTICE_ROW = {t: k for k, t in enumerate(_LATTICE.tolist())}


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
        return np.fft.irfft(self._phasors(points), self.config.dimension, axis=1)

    def encode_bundle(self, points, weights) -> HyperVector:
        """The normalized ``weights``-weighted sum of the points' encodings, summed in the spectrum."""
        spectrum = (weights[:, None] * self._phasors(points)).sum(axis=0)  # no matmul: BLAS may thread it
        return vsa.normalize(np.fft.irfft(spectrum, self.config.dimension))

    def lattice_bundle(self, points) -> HyperVector:
        """The normalized sum of the encodings of points on the half-cell lattice within 29.5.

        A point's half spectrum is the product of its two axes' rows of
        ``_lattice``, so no complex exp is taken; the products are summed
        in point order, as ``encode_bundle`` sums unit weights. Raises
        ValueError for a point off that lattice.
        """
        phasors, _ = self._lattice
        x, y = _lattice_rows(points)
        spectrum = (phasors[0, x] * phasors[1, y]).sum(axis=0)
        return vsa.normalize(np.fft.irfft(spectrum, self.config.dimension))

    def _phasors(self, points) -> NDArray[np.complex128]:
        """Half spectra exp(i * Theta^T x) of points given as an (M, 2) array."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("expected points of shape (M, 2)")
        return np.exp(1j * (pts @ self._half_phases))

    @cached_property
    def _lattice(self):
        """Phasors exp(i * theta_d * t) of both axes on ``_LATTICE``, and the half-spectrum weights.

        Built on the first shape encoding or readout, shape (2, 119, N/2 + 1). Dot products
        through the half spectrum double every bin except DC and Nyquist.
        """
        phasors = np.exp(1j * np.stack([np.outer(_LATTICE, theta) for theta in self._half_phases]))
        weights = np.full(self.config.dimension // 2 + 1, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        return phasors, weights


def _lattice_rows(points) -> NDArray[np.intp]:
    """The ``_LATTICE`` rows of the x and of the y coordinates of (M, 2) points, (2, M); raises off the lattice."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts):
        raise ValueError("expected points of shape (M, 2) with M > 0")
    try:
        rows = [(_LATTICE_ROW[x], _LATTICE_ROW[y]) for x, y in pts.tolist()]
    except KeyError:
        raise ValueError("points must lie on the half-cell lattice within 29.5") from None
    return np.array(rows).T


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
