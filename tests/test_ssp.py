"""Tests for hologrid.ssp against full-ifft oracles."""
from __future__ import annotations

import numpy as np
import pytest

from hologrid import ssp, vsa

from oracles import fractional_power_direct, identity_direct, is_unitary_direct, ssp_encode_direct

CFG = vsa.VsaConfig(dimension=512, seed=13)
ENC = ssp.SspEncoder(CFG)


def test_encodings_pin_dc_and_nyquist_to_one():
    # Zero phase at both real bins keeps every encoding real and unitary.
    for p in ((0.0, 0.0), (3.25, -1.5), (-7.0, 0.5)):
        spec = np.fft.rfft(ENC.encode(p))
        assert spec[0] == pytest.approx(1.0, abs=1e-12)
        assert spec[-1] == pytest.approx(1.0, abs=1e-12)


def test_encoding_is_a_function_of_the_config():
    points = np.array([(0.5, -2.0), (3.0, 4.5), (-6.25, 1.0)])
    again = ssp.SspEncoder(vsa.VsaConfig(dimension=512, seed=13))
    assert np.array_equal(ENC.encode_many(points), again.encode_many(points))
    other = ssp.SspEncoder(vsa.VsaConfig(dimension=512, seed=14))
    assert not np.array_equal(ENC.encode_many(points), other.encode_many(points))


def test_encode_matches_full_ifft_oracle():
    axes = [vsa.random_symbol(CFG, f"spatial-axis-{d}") for d in range(2)]
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.uniform(-8, 8, 2)
        direct = ssp_encode_direct(axes, p)
        assert np.max(np.abs(ENC.encode(p) - direct)) < 1e-10


def test_encode_origin_gives_bind_identity():
    assert np.max(np.abs(ENC.encode((0.0, 0.0)) - identity_direct(512))) < 1e-12


def test_encodings_are_unitary_unit_norm():
    v = ENC.encode((3.25, -1.5))
    assert is_unitary_direct(v)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_bind_homomorphism_addition_of_points():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-10, 10, 2)
        y = rng.uniform(-10, 10, 2)
        lhs = vsa.bind(ENC.encode(x), ENC.encode(y))
        rhs = ENC.encode(x + y)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_invert_encodes_negated_point():
    p = np.array([2.5, -4.0])
    assert np.max(np.abs(vsa.invert(ENC.encode(p)) - ENC.encode(-p))) < 1e-10


def test_fractional_power_matches_spectral_oracle():
    rng = np.random.default_rng(2)
    v = ENC.encode((1.25, 0.75))
    for exponent in (-1.5, -1.0, 0.0, 0.5, 2.0, 3.0):
        direct = fractional_power_direct(v, exponent)
        assert np.max(np.abs(ssp.fractional_power(v, exponent) - direct)) < 1e-10


def test_integer_power_equals_repeated_binding():
    v = vsa.random_symbol(CFG, "base")
    twice = vsa.bind(v, v)
    thrice = vsa.bind(twice, v)
    assert np.max(np.abs(ssp.fractional_power(v, 2) - twice)) < 1e-10
    assert np.max(np.abs(ssp.fractional_power(v, 3) - thrice)) < 1e-10


def test_encode_factorizes_into_axis_powers():
    # encode((x, y)) == axis_x^x (*) axis_y^y, exactly, because the sampled
    # phases are already principal. The axis vectors are the unit steps.
    p = (3.5, -2.25)
    via_axes = vsa.bind(
        ssp.fractional_power(ENC.encode((1.0, 0.0)), p[0]),
        ssp.fractional_power(ENC.encode((0.0, 1.0)), p[1]),
    )
    assert np.max(np.abs(via_axes - ENC.encode(p))) < 1e-8


def test_fractional_power_rejects_non_unitary():
    with pytest.raises(ssp.NonUnitaryError):
        ssp.fractional_power(np.ones(512) * 0.3, 0.5)


def test_encode_many_matches_single_encodes():
    pts = np.array([[0.0, 0.0], [1.5, 2.0], [-3.0, 0.5]])
    batch = ENC.encode_many(pts)
    for row, p in zip(batch, pts):
        assert np.max(np.abs(row - ENC.encode(p))) < 1e-12


def test_similarity_map_values_match_pointwise_encoding():
    v = ENC.encode((1.0, -0.5))
    smap = ssp.similarity_map(ENC, v, ((-2.0, 2.0), (-2.0, 2.0)), step=0.5)
    assert smap.xs.shape == (9,) and smap.ys.shape == (9,)
    for i in (0, 3, 8):
        for j in (1, 4, 7):
            expected = vsa.similarity(v, ENC.encode((smap.xs[i], smap.ys[j])))
            assert smap.values[i, j] == pytest.approx(expected, abs=1e-9)
    # The encoded point itself is on the lattice and must be the peak.
    peak = np.unravel_index(np.argmax(smap.values), smap.values.shape)
    assert (smap.xs[peak[0]], smap.ys[peak[1]]) == (1.0, -0.5)


def test_similarity_map_csv_format():
    v = ENC.encode((0.5, 0.5))
    smap = ssp.similarity_map(ENC, v, ((0.0, 1.0), (0.0, 1.0)), step=0.5)
    text = smap.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 9
    # Row-major: x varies slowest, y fastest.
    assert lines[1].startswith("0,0,")
    assert lines[2].startswith("0,0.5,")
    assert lines[4].startswith("0.5,0,")
    # Values carry nine significant digits and the export is reproducible.
    assert text == smap.to_csv()
    first_value = lines[1].split(",")[2]
    assert len(first_value.replace("-", "").replace(".", "").lstrip("0")) <= 9


def test_decode_recovers_lattice_points():
    for p in [(0.0, 0.0), (1.5, -2.0), (-3.5, 3.0)]:
        v = ENC.encode(p)
        point, score = ssp.decode(ENC, v, ((-4.0, 4.0), (-4.0, 4.0)), step=0.5)
        assert point == p
        assert score == pytest.approx(1.0, abs=1e-9)


def test_decode_breaks_ties_row_major():
    # The zero vector is equally (un)similar everywhere; the first lattice
    # point in row-major order must win.
    point, score = ssp.decode(ENC, np.zeros(512), ((-1.0, 1.0), (-1.0, 1.0)), step=1.0)
    assert point == (-1.0, -1.0)
    assert score == 0.0


def test_decode_of_noisy_bundle_still_peaks_at_member():
    a = ENC.encode((2.0, 2.0))
    b = ENC.encode((-2.0, -2.0))
    v = vsa.bundle([a, a, b])
    point, _ = ssp.decode(ENC, v, ((-3.0, 3.0), (-3.0, 3.0)), step=1.0)
    assert point == (2.0, 2.0)
