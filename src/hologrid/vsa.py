"""Core algebra for real-valued holographic vectors.

A holographic vector is a point on the unit sphere in R^N whose algebra is
carried by the discrete Fourier spectrum:

* ``similarity`` is the plain dot product,
* ``bind`` is circular convolution (element-wise spectral product),
* ``bundle`` is element-wise addition, scaled to unit length,
* ``invert`` reverses coefficient order, which conjugates the spectrum.

Random symbols are sampled *unitary*: every DFT coefficient has magnitude
one.  For unitary vectors ``invert`` is an exact inverse under ``bind``, so
``unbind(bind(a, b), a)`` returns ``b`` up to floating-point error rather
than a merely similar vector.

Symbols are a pure function of ``(seed, name)``: the per-name RNG stream is
keyed by SHA-256 so the mapping is stable across processes and platforms.
"""
from __future__ import annotations

import hashlib
from collections.abc import Hashable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

HyperVector = NDArray[np.float64]

DEFAULT_DIMENSION = 4096
DEFAULT_SEED = 0


class DimensionMismatchError(ValueError):
    """Two vectors from algebras of different dimension were combined."""


class EmptyVocabularyError(ValueError):
    """Cleanup was asked to resolve against a vocabulary with no entries."""


@dataclass(frozen=True)
class VsaConfig:
    """Dimension and seed that pin down one algebra instance."""

    dimension: int = DEFAULT_DIMENSION
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.dimension < 2 or self.dimension % 2 != 0:
            raise ValueError(f"dimension must be a positive even integer, got {self.dimension}")


def _named_rng(seed: int, name: str) -> np.random.Generator:
    # SHA-256 of the name, folded into the seed sequence, so renaming a symbol
    # or changing the global seed both change the stream, and nothing depends
    # on Python's per-process hash randomization.
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = np.frombuffer(digest, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, *words.tolist()]))


def random_symbol(config: VsaConfig, name: str) -> HyperVector:
    """Sample the deterministic unitary symbol for ``name``.

    The positive-frequency phases (bins 1 .. N/2-1) are uniform on
    (-pi, pi]; the DC and Nyquist bins are +1 so the vector is real.
    """
    n = config.dimension
    rng = _named_rng(config.seed, name)
    phases = rng.uniform(-np.pi, np.pi, n // 2 - 1)
    half = np.empty(n // 2 + 1, dtype=np.complex128)
    half[0] = 1.0
    half[-1] = 1.0
    half[1:-1] = np.exp(1j * phases)
    vec = np.fft.irfft(half, n)
    # Unitary implies unit norm by Parseval; renormalize to pin it exactly.
    return vec / np.linalg.norm(vec)


def _check_same_dimension(a: HyperVector, b: HyperVector) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"vector shapes differ: {a.shape} vs {b.shape}")


def similarity(a: HyperVector, b: HyperVector) -> float:
    """Dot product. Unit-norm inputs make this a cosine similarity."""
    _check_same_dimension(a, b)
    return float(np.dot(a, b))


def bind(a: HyperVector, b: HyperVector) -> HyperVector:
    """Circular convolution via the real FFT."""
    _check_same_dimension(a, b)
    n = a.shape[-1]
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n)


def invert(a: HyperVector) -> HyperVector:
    """Coefficient reversal a[(-i) mod N]; conjugates the spectrum."""
    return np.concatenate((a[:1], a[:0:-1]))


def unbind(c: HyperVector, a: HyperVector) -> HyperVector:
    """Remove factor ``a`` from ``c``; exact when ``a`` is unitary."""
    return bind(c, invert(a))


def normalize(v: HyperVector) -> HyperVector:
    """Scale to unit length; the zero vector has no direction and is refused."""
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / norm


def normalize_rows(rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """Scale each row of an (M, N) array to unit length, bitwise as ``normalize`` scales it alone.

    One batched product takes every row's dot with itself, the dot
    ``np.linalg.norm`` takes; a zero or non-finite row is refused.
    """
    lengths = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])
    if not np.all((lengths != 0.0) & np.isfinite(lengths)):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return rows / lengths[:, None]


def bundle(vectors) -> HyperVector:
    """Element-wise sum of one or more vectors, scaled to unit length.

    ``vectors`` is a sequence of equal-shape vectors or an array of them as
    rows. The scaling keeps the result comparable to symbols under
    dot-product similarity.
    """
    try:
        stack = np.asarray(vectors, dtype=np.float64)
    except ValueError:
        raise DimensionMismatchError("bundled vectors differ in shape") from None
    if len(stack) == 0:
        raise ValueError("bundle of zero vectors")
    return normalize(stack.sum(axis=0))


class Vocabulary:
    """Ordered value -> vector table, built whole; cleanup (nearest-symbol recall) returns the value."""

    def __init__(self, config: VsaConfig, entries):
        """``entries`` are (value, vector) pairs; the first vector given for a value stays."""
        self.config = config
        self._vectors: dict[Hashable, HyperVector] = {}
        for value, vector in entries:
            if vector.shape != (config.dimension,):
                raise DimensionMismatchError(f"vocabulary entries must have shape ({config.dimension},)")
            self._vectors.setdefault(value, np.asarray(vector, dtype=np.float64))
        self._matrix = np.array(list(self._vectors.values())).reshape(len(self._vectors), config.dimension)
        self._matrix.setflags(write=False)

    def __getitem__(self, value: Hashable) -> HyperVector:
        return self._vectors[value]

    @cached_property
    def gram(self) -> NDArray[np.float64]:
        """Similarities between every two entries, rows and columns in ``keys()`` order; built on first use."""
        gram = self._matrix @ self._matrix.T
        gram.flags.writeable = False
        return gram

    def keys(self) -> list:
        """The values the entries stand for, in insertion order."""
        return list(self._vectors)

    def cleanup(self, v: HyperVector) -> tuple[Hashable, float]:
        """Value of the most similar entry and its similarity; insertion order wins ties."""
        if not self._vectors:
            raise EmptyVocabularyError("cleanup against an empty vocabulary")
        sims = self._matrix @ v
        idx = int(np.argmax(sims))
        return self.keys()[idx], float(sims[idx])
