"""Modified Bessel functions K0, K1 on the right half-plane."""

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from rkcq import bessel
from rkcq.bessel import bessel_k0, bessel_k1, k0k1

mpmath.mp.dps = 30


def _mp_k0k1(z):
    return complex(mpmath.besselk(0, z)), complex(mpmath.besselk(1, z))


def _in_table_regime(z):
    az = np.abs(z)
    return (z.real > 0) & (az + z.real > 8.5) & (az < 16.5)


def _assert_matches_mpmath(z, bound):
    k0, k1 = k0k1(z)
    for zi, a0, a1 in zip(z, k0, k1):
        w0, w1 = _mp_k0k1(zi)
        assert abs(a0 - w0) / abs(w0) < bound, zi
        assert abs(a1 - w1) / abs(w1) < bound, zi


def _sample_points():
    # cover every internal switching radius from both sides, plus points
    # hugging the imaginary axis where cancellation is worst
    radii = [0.05, 0.5, 1.9, 2.1, 4.9, 5.1, 8.0, 12.0, 16.0, 17.0,
             31.0, 33.0, 63.0, 65.0, 127.0, 129.0, 300.0, 511.0, 513.0, 650.0]
    args = [0.0, 0.3, 1.0, 1.45, 1.5699, -0.7, -1.5699]
    pts = []
    for r in radii:
        for a in args:
            z = r * np.exp(1j * a)
            if z.real > 0:
                pts.append(z)
    return np.array(pts)


def test_against_high_precision_reference():
    z = _sample_points()
    k0, k1 = k0k1(z)
    for zi, a0, a1 in zip(z, k0, k1):
        w0, w1 = _mp_k0k1(zi)
        scale0 = max(abs(w0), 1e-300)
        scale1 = max(abs(w1), 1e-300)
        assert abs(a0 - w0) / scale0 < 5e-12, zi
        assert abs(a1 - w1) / scale1 < 5e-12, zi


def test_known_values_at_one():
    k0, k1 = k0k1(np.array([1.0]))
    assert k0[0] == pytest.approx(0.42102443824070834, rel=1e-13)
    assert k1[0] == pytest.approx(0.6019072301972346, rel=1e-13)


def test_matches_scipy_on_moderate_arguments():
    rng = np.random.default_rng(11)
    z = rng.uniform(0.2, 40.0, 60) + 1j * rng.uniform(-40.0, 40.0, 60)
    k0, k1 = k0k1(z)
    assert np.abs(k0 - sps.kv(0, z)).max() < 1e-13 + np.abs(sps.kv(0, z)).max() * 1e-11
    assert np.abs(k1 - sps.kv(1, z)).max() < 1e-13 + np.abs(sps.kv(1, z)).max() * 1e-11


def test_recurrence_consistency():
    # K2(z) = K0(z) + 2 K1(z)/z, with K2 from scipy
    rng = np.random.default_rng(5)
    z = rng.uniform(0.5, 30.0, 40) + 1j * rng.uniform(-30.0, 30.0, 40)
    k0, k1 = k0k1(z)
    k2 = k0 + 2.0 * k1 / z
    ref = sps.kv(2, z)
    assert np.abs(k2 - ref).max() / np.abs(ref).max() < 1e-10


def test_conjugate_symmetry():
    z = np.array([0.3 + 7.0j, 2.0 - 150.0j, 40.0 + 4000.0j])
    k0p, k1p = k0k1(z)
    k0m, k1m = k0k1(np.conj(z))
    assert k0m == pytest.approx(np.conj(k0p), rel=1e-14)
    assert k1m == pytest.approx(np.conj(k1p), rel=1e-14)


def test_deep_decay_flushes_to_zero():
    z = np.array([701.0, 800.0 + 300.0j])
    k0, k1 = k0k1(z)
    assert np.array_equal(k0, np.zeros(2, dtype=complex))
    assert np.array_equal(k1, np.zeros(2, dtype=complex))


def test_rejects_left_half_plane():
    with pytest.raises(ValueError):
        k0k1(np.array([1.0, -0.2 + 3.0j]))
    with pytest.raises(ValueError):
        k0k1(np.array([0.0 + 1.0j]))


def test_wrappers_and_shapes():
    z = np.array([[1.0 + 1.0j, 2.0], [3.0, 0.5 - 0.5j]])
    k0 = bessel_k0(z)
    k1 = bessel_k1(z)
    assert k0.shape == z.shape and k1.shape == z.shape
    f0, f1 = k0k1(z.ravel())
    assert np.array_equal(k0.ravel(), f0)
    assert np.array_equal(k1.ravel(), f1)
    e0, e1 = k0k1(np.array([], dtype=complex))
    assert e0.size == 0 and e1.size == 0


def test_large_imaginary_argument_against_reference():
    # the quadrature hits K0 at |z| in the thousands with small real part
    for z in (4.0 + 2000.0j, 20.0 + 12000.0j, 120.0 - 46000.0j):
        k0, k1 = k0k1(np.array([z]))
        w0, w1 = _mp_k0k1(z)
        assert abs(k0[0] - w0) / abs(w0) < 5e-12
        assert abs(k1[0] - w1) / abs(w1) < 5e-12


def test_asymptotic_depths_stop_before_the_smallest_term():
    # the terms of the large-argument expansion shrink while
    # |4 nu^2 - (2k-1)^2| / (8 k |z|) < 1; at each band's lower edge that
    # holds up to the band's depth, so the fixed depth sums exactly the
    # terms a per-entry smallest-term truncation would
    lo = 16.5
    for hi, terms in bessel._ASYM_BANDS:
        k = np.arange(1, terms + 1)
        for nu in (0, 1):
            ratio = np.abs(4 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k * lo)
            assert ratio.max() < 1.0, (lo, terms, nu)
        lo = hi


def test_series_depths_cover_each_band():
    # series terms q^k / k!^2 (q = z^2/4) shrink once k^2 > |q|; at each
    # band's upper edge, the worst case, the terms are already shrinking
    # at the band's depth and the first dropped term is negligible
    for hi, kmax in bessel._SERIES_BANDS:
        r = min(hi, 8.5)  # the series regime ends at |z| + Re z = 8.5
        k = np.arange(kmax + 2)
        terms = np.exp(2 * k * np.log(r / 2.0) - 2 * sps.gammaln(k + 1.0))
        assert (r / 2.0) ** 2 / (kmax + 1) ** 2 < 1.0, (hi, kmax)
        assert terms[-1] < 1e-17 * terms.max(), (hi, kmax)


def test_regime_switches_near_the_imaginary_axis():
    # both sides of the series / table switch (|z| + Re z = 8.5) and of the
    # table / asymptotic switch (|z| = 16.5) where cancellation is worst
    pts = []
    for a in (1.55, -1.55):
        r8 = 8.5 / (1.0 + np.cos(a))
        for r in (0.99 * r8, 1.01 * r8, 16.4, 16.6):
            pts.append(r * np.exp(1j * a))
    z = np.array(pts)
    az = np.abs(z)
    assert np.count_nonzero(az + z.real <= 8.5) == 2
    assert np.count_nonzero(az >= 16.5) == 2
    _assert_matches_mpmath(z, 5e-12)


def test_table_against_high_precision_at_centres_edges_and_corners():
    # every fifth cell in each direction; the corners are the points
    # farthest from the centre the expansion is taken about
    h = bessel._CELL
    offsets = np.array([0.0, 0.5, -0.5, 0.5j, -0.5j, 0.5 + 0.5j, 0.5 - 0.5j,
                        -0.5 + 0.5j, -0.5 - 0.5j]) * h
    i = np.arange(1, bessel._CELLS, 5)
    centres = ((i[:, None] + 0.5) * h + 1j * h * i[None, :]).ravel()
    z = (centres[:, None] + offsets[None, :]).ravel()
    z = z[_in_table_regime(z)]
    z = np.concatenate([z, np.conj(z[::7])])
    assert z.size > 250
    _assert_matches_mpmath(z, 5e-15)


def test_table_is_exactly_conjugate_symmetric():
    rng = np.random.default_rng(8)
    z = rng.uniform(0.0, 16.5, 6000) + 1j * rng.uniform(0.0, 16.5, 6000)
    z = np.concatenate([z[_in_table_regime(z)], [5.0, 12.0 + 0.0j, 16.4, 9.0 + 3.0j]])
    k0p, k1p = k0k1(z)
    k0m, k1m = k0k1(np.conj(z))
    assert np.array_equal(k0m, np.conj(k0p)) and np.array_equal(k1m, np.conj(k1p))
    # real arguments sit on the centre line of a cell row: real values
    real = z.imag == 0
    assert real.sum() == 3 and not k0p[real].imag.any() and not k1p[real].imag.any()


def test_table_at_both_sides_of_its_switches():
    # the table side of |z| + Re z = 8.5 and both sides of |z| = 16.5, at
    # angles across the right half-plane and below the real axis; the series
    # side of 8.5 cancels to about 5e-13 and is checked in
    # test_regime_switches_near_the_imaginary_axis
    a = np.linspace(-1.5707, 1.5707, 23)
    outer = 8.5 / (1.0 + np.cos(a)) * 1.0001
    z = np.concatenate([outer * np.exp(1j * a), 16.4999 * np.exp(1j * a),
                        16.5001 * np.exp(1j * a)])
    assert np.count_nonzero(_in_table_regime(z)) == 46
    _assert_matches_mpmath(z, 5e-15)


def test_bessel_k0_equals_k0k1_in_the_table_regime():
    # more than one evaluation block, arguments on both sides of the real axis
    rng = np.random.default_rng(12)
    z = rng.uniform(0.0, 16.5, 12000) + 1j * rng.uniform(-16.5, 16.5, 12000)
    z = z[_in_table_regime(z)]
    assert z.size > 2 * bessel._TABLE_BLOCK
    assert np.array_equal(bessel_k0(z), k0k1(z)[0])
