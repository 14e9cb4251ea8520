"""Algebra tests for hologrid.vsa, checked against the naive oracles."""
from __future__ import annotations

import numpy as np
import pytest

from hologrid import vsa

from oracles import conv_direct, identity_direct, invert_direct, is_unitary_direct, spectrum


CFG = vsa.VsaConfig(dimension=512, seed=7)


def sym(name, cfg=CFG):
    return vsa.random_symbol(cfg, name)


def test_config_rejects_bad_dimension():
    with pytest.raises(ValueError):
        vsa.VsaConfig(dimension=0, seed=1)
    with pytest.raises(ValueError):
        vsa.VsaConfig(dimension=31, seed=1)


def test_random_symbol_is_deterministic_per_seed_and_name():
    a1 = sym("alpha")
    a2 = sym("alpha")
    b = sym("beta")
    other_seed = vsa.random_symbol(vsa.VsaConfig(dimension=512, seed=8), "alpha")
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, other_seed)


def test_random_symbol_is_real_unitary_unit_norm():
    v = sym("gamma")
    assert v.dtype == np.float64
    assert is_unitary_direct(v)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    f = spectrum(v)
    # DC and Nyquist bins are pinned to +1 by construction.
    assert abs(f[0] - 1.0) < 1e-9
    assert abs(f[256] - 1.0) < 1e-9


def test_similarity_of_symbol_with_itself_is_one():
    v = sym("delta")
    assert vsa.similarity(v, v) == pytest.approx(1.0, abs=1e-12)


def test_distinct_symbols_are_nearly_orthogonal():
    cfg = vsa.VsaConfig(dimension=4096, seed=3)
    sims = [
        abs(vsa.similarity(vsa.random_symbol(cfg, f"s{i}"), vsa.random_symbol(cfg, f"t{i}")))
        for i in range(20)
    ]
    assert max(sims) < 0.1


def test_similarity_rejects_mismatched_dimensions():
    with pytest.raises(vsa.DimensionMismatchError):
        vsa.similarity(np.zeros(8), np.zeros(16))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_bind_matches_direct_circular_convolution(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        assert np.max(np.abs(vsa.bind(a, b) - conv_direct(a, b))) < 1e-9


def test_bind_preserves_unitarity():
    a, b = sym("ua"), sym("ub")
    assert is_unitary_direct(vsa.bind(a, b))


def test_invert_matches_index_reversal_and_is_involutive():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(32)
    assert np.array_equal(vsa.invert(v), invert_direct(v))
    assert np.array_equal(vsa.invert(vsa.invert(v)), v)


def test_invert_is_exact_inverse_for_unitary_vectors():
    a = sym("unit")
    ident = vsa.bind(a, vsa.invert(a))
    expected = identity_direct(512)
    assert np.max(np.abs(ident - expected)) < 1e-10


def test_unbind_recovers_bound_factor():
    for i in range(5):
        a, b = sym(f"l{i}"), sym(f"r{i}")
        c = vsa.bind(a, b)
        assert vsa.similarity(vsa.unbind(c, a), b) > 0.99


def test_unbind_is_bind_with_inverted_factor():
    a, b = sym("x"), sym("y")
    c = vsa.bind(a, b)
    assert np.allclose(vsa.unbind(c, a), conv_direct(c, invert_direct(a)), atol=1e-10)


def test_bundle_sums_and_optionally_normalizes():
    a, b = sym("p"), sym("q")
    raw = vsa.bundle([a, b])
    assert np.allclose(raw, a + b)
    unit = vsa.bundle([a, b], normalize=True)
    assert abs(np.linalg.norm(unit) - 1.0) < 1e-12


def test_bundle_keeps_components_recognizable():
    # For nearly orthogonal unit vectors the normalized sum has similarity
    # about 1/sqrt(2) with each component.
    cfg = vsa.VsaConfig(dimension=4096, seed=5)
    a = vsa.random_symbol(cfg, "comp-a")
    b = vsa.random_symbol(cfg, "comp-b")
    s = vsa.bundle([a, b], normalize=True)
    assert vsa.similarity(s, a) > 0.5
    assert abs(vsa.similarity(s, a) - 1 / np.sqrt(2)) < 0.1


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError):
        vsa.normalize(np.zeros(16))


def test_vocabulary_cleanup_picks_most_similar():
    vocab = vsa.Vocabulary(CFG)
    for name in ("apple", "pear", "plum"):
        vocab.add(name)
    noisy = vsa.normalize(vocab["pear"] + 0.2 * vocab["plum"])
    name, score = vocab.cleanup(noisy)
    assert name == "pear"
    assert score > 0.9


def test_vocabulary_cleanup_breaks_ties_by_insertion_order():
    vocab = vsa.Vocabulary(CFG)
    v = sym("shared")
    vocab.add_vector("first", v)
    vocab.add_vector("second", v.copy())
    name, score = vocab.cleanup(v)
    assert name == "first"
    assert score == pytest.approx(1.0, abs=1e-12)


def test_vocabulary_cleanup_sees_entries_added_after_a_cleanup():
    vocab = vsa.Vocabulary(CFG)
    vocab.add("old")
    assert vocab.cleanup(sym("new"))[0] == "old"
    vocab.add("new")
    name, score = vocab.cleanup(sym("new"))
    assert name == "new" and score == pytest.approx(1.0, abs=1e-12)
    vocab.add_vector("copy", sym("old") * 2.0)
    assert vocab.cleanup(sym("old"))[0] == "copy"
    assert vocab.matrix().shape == (3, CFG.dimension)


def test_vocabulary_cleanup_empty_is_an_error():
    with pytest.raises(vsa.EmptyVocabularyError):
        vsa.Vocabulary(CFG).cleanup(sym("anything"))


def test_vocabulary_names_keep_insertion_order():
    vocab = vsa.Vocabulary(CFG)
    for name in ("z", "a", "m"):
        vocab.add(name)
    assert vocab.names() == ["z", "a", "m"]
    assert "a" in vocab
    assert len(vocab) == 3
