"""Tests for hologrid.ssp against full-ifft oracles."""
from __future__ import annotations

import numpy as np
import pytest

from hologrid import ssp, vsa

from oracles import (
    fractional_power_direct,
    identity_direct,
    is_unitary_direct,
    lattice_similarities_direct,
    ssp_encode_direct,
)

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
    xs, ys, values = ssp.similarity_map(ENC, v, ((-2.0, 2.0), (-2.0, 2.0)), step=0.5)
    assert xs.shape == (9,) and ys.shape == (9,)
    for i in (0, 3, 8):
        for j in (1, 4, 7):
            expected = vsa.similarity(v, ENC.encode((xs[i], ys[j])))
            assert values[i, j] == pytest.approx(expected, abs=1e-9)
    # The encoded point itself is on the lattice and must be the peak.
    peak = np.unravel_index(np.argmax(values), values.shape)
    assert (xs[peak[0]], ys[peak[1]]) == (1.0, -0.5)


def grid_readout_regions(rows, cols):
    """The centre (steps 0.5 and 1.0) and amount regions of a rows x cols grid."""
    cx, cy = (cols - 1) / 2, (rows - 1) / 2
    centre = ((-cx, cx), (-cy, cy))
    amount = ((-(cols - 1), cols - 1), (-(rows - 1), rows - 1))
    return [(centre, 0.5), (centre, 1.0), (amount, 0.5)]


@pytest.mark.parametrize("dimension", [256, 1024])
def test_readouts_match_the_per_region_formula_bitwise(dimension):
    enc = ssp.SspEncoder(vsa.VsaConfig(dimension=dimension, seed=5))
    v = np.random.default_rng(dimension).standard_normal(dimension)
    for rows in range(1, 31):
        for cols in range(1, 31):
            for region, step in grid_readout_regions(rows, cols):
                want = lattice_similarities_direct(enc._half_phases, v, region, step)
                got = ssp.similarity_map(enc, v, region, step)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (rows, cols, region, step)
                i, j = np.unravel_index(np.argmax(want[2]), want[2].shape)
                assert ssp.decode(enc, v, region, step) == ((want[0][i], want[1][j]), want[2][i, j])
    # Every readout of every grid size reads one table, built once.
    phasors, weights = enc._lattice
    assert phasors.shape == (2, 119, dimension // 2 + 1)
    assert weights.shape == (dimension // 2 + 1,)
    assert sorted(vars(enc)) == ["_half_phases", "_lattice", "config"]


@pytest.mark.parametrize(
    "region,step",
    [
        (((-0.25, 0.25), (0.0, 0.0)), 0.5),  # off the half-cell lattice
        (((0.0, 1.0), (0.0, 1.0)), 0.75),  # step not a multiple of 0.5
        (((0.0, 1.5), (0.0, 1.0)), 1.0),  # hi not reached from lo by whole steps
        (((1.0, 0.0), (0.0, 1.0)), 0.5),  # hi below lo
        (((0.0, 0.0), (0.0, 1.0)), 0.0),  # no step
        (((-30.0, 0.0), (0.0, 0.0)), 0.5),  # beyond -29.5
        (((0.0, 0.0), (0.0, 30.0)), 0.5),  # beyond 29.5
    ],
)
def test_readout_refuses_regions_off_the_table(region, step):
    with pytest.raises(ValueError):
        ssp.similarity_map(ENC, ENC.encode((0.0, 0.0)), region, step)
    with pytest.raises(ValueError):
        ssp.decode(ENC, ENC.encode((0.0, 0.0)), region, step)


@pytest.mark.parametrize("point", [(0.25, 0.0), (0.0, -0.25), (-30.0, 0.0), (0.0, -30.0), (30.0, 0.0), (0.0, 30.0)])
def test_table_bundle_refuses_points_off_the_table(point):
    # -30 would index row -1, which numpy would read as the row of 29.5.
    with pytest.raises(ValueError):
        ENC.lattice_bundle(np.array([(0.0, 0.0), point]))


def test_readout_table_is_built_on_first_readout():
    enc = ssp.SspEncoder(CFG)
    enc.encode_many(np.array([[0.5, 1.0]]))
    assert "_lattice" not in vars(enc)
    ssp.decode(enc, enc.encode((0.5, 1.0)), ((-29.5, 29.5), (-29.5, 29.5)), step=0.5)
    assert "_lattice" in vars(enc)
    # A table bundle, as every shape vector is, builds it too.
    enc = ssp.SspEncoder(CFG)
    enc.lattice_bundle(np.array([[0.5, 1.0]]))
    assert "_lattice" in vars(enc)


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
