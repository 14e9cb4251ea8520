"""Core algebra for real-valued holographic vectors.

A holographic vector is a point on the unit sphere in R^N whose algebra is
carried by the discrete Fourier spectrum:

* ``similarity`` is the plain dot product,
* ``bind`` is circular convolution (element-wise spectral product),
* ``bundle`` is element-wise addition,
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
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

HyperVector = NDArray[np.float64]

DEFAULT_DIMENSION = 4096


class DimensionMismatchError(ValueError):
    """Two vectors from algebras of different dimension were combined."""


class EmptyVocabularyError(ValueError):
    """Cleanup was asked to resolve against a vocabulary with no entries."""


@dataclass(frozen=True)
class VsaConfig:
    """Dimension and seed that pin down one algebra instance."""

    dimension: int = DEFAULT_DIMENSION
    seed: int = 0

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


_normalize = normalize


def bundle(vectors, normalize: bool = False) -> HyperVector:
    """Element-wise sum of one or more vectors.

    With ``normalize`` the sum is scaled to unit length, which keeps the
    result comparable to symbols under dot-product similarity.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValueError("bundle of zero vectors")
    out = np.zeros_like(vectors[0])
    for v in vectors:
        _check_same_dimension(out, v)
        out = out + v
    return _normalize(out) if normalize else out


class Vocabulary:
    """Ordered name -> vector table used for cleanup (nearest-symbol recall)."""

    def __init__(self, config: VsaConfig):
        self.config = config
        self._vectors: dict[str, HyperVector] = {}
        self._matrix: HyperVector | None = None  # stacked entries, until the next one is added

    def add(self, name: str) -> HyperVector:
        """Add (or fetch) the deterministic random symbol for ``name``."""
        if name not in self._vectors:
            self._vectors[name] = random_symbol(self.config, name)
            self._matrix = None
        return self._vectors[name]

    def add_vector(self, name: str, vector: HyperVector) -> HyperVector:
        """Register an externally constructed vector under ``name``."""
        if vector.shape != (self.config.dimension,):
            raise DimensionMismatchError(
                f"vocabulary entries must have shape ({self.config.dimension},)"
            )
        if name not in self._vectors:
            self._vectors[name] = np.asarray(vector, dtype=np.float64)
            self._matrix = None
        return self._vectors[name]

    def __getitem__(self, name: str) -> HyperVector:
        return self._vectors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def names(self) -> list[str]:
        return list(self._vectors)

    def matrix(self) -> HyperVector:
        """Entries stacked in insertion order, shape (len, N); read-only."""
        if self._matrix is None:
            self._matrix = np.stack(list(self._vectors.values()))
            self._matrix.setflags(write=False)
        return self._matrix

    def cleanup(self, v: HyperVector) -> tuple[str, float]:
        """Most similar entry and its similarity; insertion order wins ties."""
        if not self._vectors:
            raise EmptyVocabularyError("cleanup against an empty vocabulary")
        sims = self.matrix() @ v
        idx = int(np.argmax(sims))
        return self.names()[idx], float(sims[idx])
