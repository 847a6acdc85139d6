"""Modified Bessel functions K0, K1 on the right half-plane."""

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from rkcq import bessel
from rkcq.bessel import bessel_k0, bessel_k1, k0k1

mpmath.mp.dps = 30


def _mp_k0k1(z):
    return complex(mpmath.besselk(0, z)), complex(mpmath.besselk(1, z))


def _in_table_regime(z):
    az = np.abs(z)
    return (z.real > 0) & (az > 3.0) & (az < 16.5)


def _assert_matches_mpmath(z, bound):
    k0, k1 = k0k1(z)
    for zi, a0, a1 in zip(z, k0, k1):
        w0, w1 = _mp_k0k1(zi)
        assert abs(a0 - w0) / abs(w0) < bound, zi
        assert abs(a1 - w1) / abs(w1) < bound, zi


# the asymptotic bands' |z| edges: each band lo < |z| <= hi, the first
# from 16.5 on
_ASYM_EDGES = [np.nextafter(16.5, np.inf)] + [
    r for hi in (32.0, 64.0, 128.0, 512.0) for r in (hi, np.nextafter(hi, np.inf))]
# the documented accuracy of the asymptotic bands (6.5e-16 on random
# points, 6.7e-16 at their edges next to the imaginary axis) with a factor
# of 3: a top band cut from 6 to 4 terms reads 6.2e-15 at |z| = 513
_ASYM_BOUND = 2e-15


def _sample_points():
    # cover every internal switching radius from both sides, plus points
    # hugging the imaginary axis where cancellation is worst, and each
    # asymptotic band's edges there
    radii = [0.05, 0.5, 1.9, 2.1, 2.9, 3.1, 8.0, 12.0, 16.0, 17.0,
             31.0, 33.0, 63.0, 65.0, 127.0, 129.0, 300.0, 511.0, 513.0, 650.0]
    args = [0.0, 0.3, 1.0, 1.45, 1.5699, -0.7, -1.5699]
    pts = []
    for r in radii:
        for a in args:
            z = r * np.exp(1j * a)
            if z.real > 0:
                pts.append(z)
    edge = np.pi / 2 - 1e-5
    pts += [r * np.exp(1j * a) for r in _ASYM_EDGES for a in (edge, -edge)]
    return np.array(pts)


def _bound(z):
    return _ASYM_BOUND if abs(z) >= 16.5 else 5e-12


def test_against_high_precision_reference():
    z = _sample_points()
    # the edges land on both sides of every asymptotic band's switch
    edges = z[-2 * len(_ASYM_EDGES):]
    assert np.array_equal(bessel.band(edges) - bessel.band(17.0),
                          np.repeat([0, 0, 1, 1, 2, 2, 3, 3, 4], 2))
    k0, k1 = k0k1(z)
    for zi, a0, a1 in zip(z, k0, k1):
        w0, w1 = _mp_k0k1(zi)
        scale0 = max(abs(w0), 1e-300)
        scale1 = max(abs(w1), 1e-300)
        assert abs(a0 - w0) / scale0 < _bound(zi), zi
        assert abs(a1 - w1) / scale1 < _bound(zi), zi


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


def test_rejects_nan():
    # a NaN used to send its whole block to the |z| > 512 band, so the
    # other values of the block came out wrong (K0(0.5) read 33.98)
    for bad in (np.nan, complex(np.nan, 1.0), complex(1.0, np.nan)):
        for f in (bessel_k0, bessel_k1, k0k1):
            with pytest.raises(ValueError, match="NaN"):
                f(np.array([0.5, 2.0, 5.0, bad]))
            with pytest.raises(ValueError, match="NaN"):
                f(bad)


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
        assert abs(k0[0] - w0) / abs(w0) < _ASYM_BOUND
        assert abs(k1[0] - w1) / abs(w1) < _ASYM_BOUND


# the |z| edges of every band, from the series' first to the asymptotic
# top band's last argument below Re z = 700
_RADII = [0.01] + bessel._EDGES.tolist() + [700.0]
# the phases of s the factored kernels are checked at: across the right
# half-plane and next to the imaginary axis on both sides
_S_PHASES = (0.0, 0.3, 1.0, -0.7, 1.5699, np.pi / 2 - 1e-5, -(np.pi / 2 - 1e-5))


@pytest.mark.parametrize("b", [b for b, k in enumerate(bessel._SR_KERNELS) if k is not None])
def test_factored_kernels_against_high_precision_reference(b):
    # each series and asymptotic band's kernel of s R with s factored out,
    # at both of the band's edges and inside it, for s of every phase: the
    # asymptotic bands within _ASYM_BOUND, the series within 2e-14 on
    # |z| <= 2 (7.0e-15 measured) and 1e-13 on |z| <= 3 (the per-argument
    # series' bound at its |z| = 3 switch); k0k1(s R) is held to the same
    # bound, so the two lie within twice the bound of each other
    bound = _ASYM_BOUND if b > len(bessel._SERIES_BANDS) else (2e-14, 1e-13)[b]
    rng = np.random.default_rng(40 + b)
    lo, hi = _RADII[b], _RADII[b + 1]
    r = np.concatenate([[np.nextafter(lo, np.inf), hi], rng.uniform(lo, hi, 4)])
    for phase in _S_PHASES:
        m = rng.uniform(0.5, 50.0)
        s = m * np.exp(1j * phase)
        R = r / m
        k0, k1 = bessel._k_sr(bessel._SR_KERNELS[b], s, R, 2)
        # the argument the factored kernel evaluates: s R rounded as numpy
        # rounds the complex product, Re s R and Im s R
        z = s * R
        q0, q1 = k0k1(z)
        for zi, a0, a1, c0, c1 in zip(z, k0, k1, q0, q1):
            w0, w1 = _mp_k0k1(zi)
            for got, ref, want in ((a0, c0, w0), (a1, c1, w1)):
                assert abs(got - want) / abs(want) < bound, (b, zi)
                assert abs(got - ref) / abs(ref) < 2.0 * bound, (b, zi)


def test_sr_kernels_pick_the_regime_of_each_pair():
    # a pair whose |s| R lies within [0, 3] takes the series at the depth
    # of |s| rmax, within [16.5, 700] the asymptotic expansion at the depth
    # of |s| rmin; a pair that reaches the Taylor table, spans regimes or
    # passes Re z = 700 takes the per-argument kernel: every pair gets a
    # kernel of R
    s = 3.0 + 4.0j
    # |s| = 5, Re s = 3: the bounds of |s| R and Re s R are 5 and 3 times these
    rmin = np.array([0.1, 0.1, 0.5, 17.0, 40.0, 600.0, 0.5, 3.0, 0.1, 1200.0]) / 5.0
    rmax = np.array([1.9, 2.9, 2.0, 60.0, 130.0, 1000.0, 4.0, 20.0, 100.0, 1300.0]) / 5.0
    groups = bessel.sr_kernels(s, rmin, rmax, bessel._bessel_k)
    got = {}
    for pairs, kernel in groups:
        for p in pairs.tolist():
            got[p] = "mixed" if kernel.func is bessel._k_mixed else kernel.args[0].keywords
    assert got == {0: {"kmax": 12}, 1: {"kmax": 18}, 2: {"kmax": 12}, 3: {"terms": 30},
                   4: {"terms": 19}, 5: {"terms": 6}, 6: "mixed", 7: "mixed", 8: "mixed",
                   9: "mixed"}
    assert sorted(p for pairs, _ in groups for p in pairs.tolist()) == list(range(10))


# the |z| at which the kernels of _BAND_KERNELS switch
_BAND_EDGES = [2.0, 3.0, 16.5, 32.0, 64.0, 128.0, 512.0]


def test_per_argument_kernel_of_R_against_high_precision_reference():
    # the kernel of R that sr_kernels gives a pair not wholly in one regime
    # takes each argument's band from |s| R.  On both sides of every band
    # edge and inside the bands, for s of every phase: a series-band
    # argument takes the factored series at its band's depth, held to its
    # bounds (2e-14 up to |s| R = 2, 1e-13 up to 3); a table- or
    # asymptotic-band argument equals k0k1(s R) bit for bit (1e-9 away from
    # the edges, where |s| R and |s R| lie in one band) and is held to the
    # table's 5e-15 or _ASYM_BOUND.  Each value is that of its argument
    # alone, in an array that mixes every band, in one band's array and
    # alone; K0 does not depend on orders; past Re s R = 700 both are zeros
    rng = np.random.default_rng(44)
    near = np.array([1.0 - 1e-9, 1.0 + 1e-9])
    for phase in _S_PHASES:
        s = rng.uniform(0.5, 50.0) * np.exp(1j * phase)
        r = np.concatenate([np.outer(_BAND_EDGES, near).ravel(), rng.uniform(0.01, 700.0, 8)])
        dead = np.array([700.5, 900.0, 3000.0]) / s.real
        R = np.concatenate([r / abs(s), dead])
        (pairs, kernel), = bessel.sr_kernels(s, np.array([R.min()]), np.array([R.max()]),
                                             bessel._bessel_k)
        assert kernel.func is bessel._k_mixed
        k0, k1 = kernel(R, 2)
        assert np.array_equal(kernel(R, 1)[0], k0)
        assert not k0[r.size :].any() and not k1[r.size :].any()
        bands = bessel.band(s * R)
        assert np.array_equal(bands, np.where(s.real * R > 700.0, -1,
                                              np.searchsorted(bessel._EDGES, abs(s) * R)))
        assert set(bands[: r.size].tolist()) == set(range(len(bessel._BAND_KERNELS)))
        z = s * R
        q0, q1 = k0k1(z)
        for zi, b, a0, a1, c0, c1 in zip(z, bands, k0, k1, q0, q1):
            if b < 0:
                continue
            w0, w1 = _mp_k0k1(zi)
            bound = (2e-14, 1e-13, 5e-15)[b] if b <= 2 else _ASYM_BOUND
            for got, ref, want in ((a0, c0, w0), (a1, c1, w1)):
                assert abs(got - want) / abs(want) < bound, (b, zi)
                assert b < len(bessel._SERIES_BANDS) or got == ref, (b, zi)
        for b in range(-1, len(bessel._BAND_KERNELS)):
            one = bands == b
            got0, got1 = kernel(R[one], 2)
            assert np.array_equal(got0, k0[one]) and np.array_equal(got1, k1[one]), b
        for i in range(R.size):
            got0, got1 = kernel(R[i : i + 1], 2)
            assert np.array_equal(got0, k0[i : i + 1]) and np.array_equal(got1, k1[i : i + 1])


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
    for r, kmax in bessel._SERIES_BANDS:
        k = np.arange(kmax + 2)
        terms = np.exp(2 * k * np.log(r / 2.0) - 2 * sps.gammaln(k + 1.0))
        assert (r / 2.0) ** 2 / (kmax + 1) ** 2 < 1.0, (r, kmax)
        assert terms[-1] < 1e-17 * terms.max(), (r, kmax)


def test_series_table_switch_at_every_angle():
    # both sides of the series / table switch |z| = 3 at 401 angles across
    # the right half-plane, the real axis included: the series cancels
    # most there (K0 = B - L A, I0(3) = 4.9 against K0(3) = 0.035)
    a = 0.5 * np.pi * np.arange(-200, 201) / 201.0
    inner, outer = (r * np.exp(1j * a) for r in (3.0 - 1e-9, 3.0 + 1e-9))
    assert np.all(np.abs(inner) <= 3.0) and np.all(_in_table_regime(outer))
    assert 0.0 in a
    _assert_matches_mpmath(inner, 1e-13)
    _assert_matches_mpmath(outer, 5e-15)


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


def test_stored_seeds_match_amos_at_the_centres():
    # the table's a_0 = K0(zc), a_1 = -K1(zc) are read from a data file that
    # scipy's AMOS code wrote; another scipy build may round the last bits
    # differently, so the bound is 2 ulps of |K|, not bit-identity
    zc = bessel._taylor_centres()
    seeds = np.load(bessel._SEEDS)
    amos = np.stack([sps.kv(0, zc), sps.kv(1, zc)])
    assert seeds.shape == (2, bessel._CELLS**2) and seeds.dtype == np.complex128
    ulps = np.abs(seeds - amos) / np.spacing(np.abs(amos))
    assert ulps.max() <= 2.0, (
        "src/rkcq/_taylor_seeds.npy is %.1f ulps off scipy.special.kv; rewrite it with "
        "`python tests/write_taylor_seeds.py`" % ulps.max())
    table = bessel._taylor_table()
    assert np.array_equal(table[0], seeds[0]) and np.array_equal(table[1], -seeds[1])


def test_table_at_both_sides_of_its_switches():
    # both sides of the table / asymptotic switch |z| = 16.5, at angles
    # across the right half-plane and below the real axis; the switch at
    # |z| = 3 is checked in test_series_table_switch_at_every_angle
    a = np.linspace(-1.5707, 1.5707, 23)
    z = np.concatenate([16.4999 * np.exp(1j * a), 16.5001 * np.exp(1j * a)])
    assert np.count_nonzero(_in_table_regime(z)) == 23
    _assert_matches_mpmath(z, 5e-15)


def test_bessel_k0_equals_k0k1_in_the_table_regime():
    # more than one evaluation block, arguments on both sides of the real axis
    rng = np.random.default_rng(12)
    z = rng.uniform(0.0, 16.5, 50000) + 1j * rng.uniform(-16.5, 16.5, 50000)
    z = z[_in_table_regime(z)]
    assert z.size > 2 * bessel._BLOCK
    assert np.array_equal(bessel_k0(z), k0k1(z)[0])


def test_one_band_arrays_skip_the_masks_and_keep_their_values(monkeypatch):
    # a block whose arguments all lie in one series, table or asymptotic
    # band goes to that band's kernel whole, one call per block of at most
    # _BLOCK arguments; its values equal, bit for bit, those of the same
    # arguments inside an array that mixes every band
    rng = np.random.default_rng(21)
    z = np.exp(rng.uniform(np.log(0.01), np.log(3000.0), 120000)) * np.exp(
        1j * rng.uniform(-1.55, 1.55, 120000))
    ids = bessel.band(z)
    k0, k1 = k0k1(z)
    k0_only = bessel_k0(z)
    calls = []
    kernels = list(bessel._BAND_KERNELS)

    def spy(b):
        def kernel(zb, orders):
            assert zb.size <= bessel._BLOCK and np.all(bessel.band(zb) == b)
            calls.append((b, zb.size))
            return kernels[b](zb, orders)
        return kernel

    monkeypatch.setattr(bessel, "_BAND_KERNELS", [spy(b) for b in range(len(kernels))])
    blocks = 0
    for b in range(len(kernels)):
        one = ids == b
        assert one.sum() > 100, b
        calls.clear()
        got0, got1 = k0k1(z[one])
        starts = range(0, one.sum(), bessel._BLOCK)
        assert calls == [(b, min(bessel._BLOCK, one.sum() - a)) for a in starts]
        blocks += len(starts)
        assert np.array_equal(got0, k0[one]) and np.array_equal(got1, k1[one]), b
        assert np.array_equal(bessel_k0(z[one]), k0_only[one]), b
    assert blocks > len(kernels)
    # past Re z = 700 the values still flush to exact zeros, alone or mixed
    dead = ids == -1
    assert dead.sum() > 100
    for zd in (z[dead], np.concatenate([z[dead], [1.0, 20.0 + 5.0j]])):
        calls.clear()
        got0, got1 = k0k1(zd)
        assert not got0[: dead.sum()].any() and not got1[: dead.sum()].any()
        assert not bessel_k0(zd)[: dead.sum()].any()
        assert all(size < zd.size for _, size in calls)
    assert np.array_equal(k0[dead], np.zeros(dead.sum()))


# arguments of every band (from _RADII, the top one kept below Re z = 700),
# and band -1 for arrays that mix every band and the Re z > 700 flush
_SIZES = (1, 2, bessel._BLOCK - 1, bessel._BLOCK, bessel._BLOCK + 1, 33000)


@pytest.mark.parametrize("b", range(-1, len(bessel._BAND_KERNELS)))
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), start=st.integers(0, 7000))
def test_values_do_not_depend_on_the_array_size(b, seed, start):
    # a value depends on its argument alone: the arguments of a slice of
    # any size, a lone one included, get the bits they get inside a longer
    # array, from k0k1 and from bessel_k0 alike
    rng = np.random.default_rng(seed)
    n = _SIZES[-1] + 7000
    if b < 0:
        r = np.exp(rng.uniform(np.log(0.01), np.log(3000.0), n))
    else:
        r = rng.uniform(_RADII[b], _RADII[b + 1], n)
    z = r * np.exp(1j * rng.uniform(-1.5699, 1.5699, n))
    bands = {b} if b >= 0 else set(range(-1, len(bessel._BAND_KERNELS)))
    assert set(bessel.band(z).tolist()) == bands
    k0, k1 = k0k1(z)
    assert np.array_equal(bessel_k0(z), k0)
    for size in _SIZES:
        part = slice(start, start + size)
        got0, got1 = k0k1(z[part])
        assert np.array_equal(got0, k0[part]) and np.array_equal(got1, k1[part]), size
        assert np.array_equal(bessel_k0(z[part]), k0[part]), size
    assert k0k1(z[start]) == (k0[start], k1[start])
    assert bessel_k0(z[start]) == k0[start]
    # the kernel of R that sr_kernels gives a pair of the same |z| range,
    # for one s of any phase, the same way: the band's factored kernel, or
    # the per-argument kernel for the table's band and for the mix of
    # every band; a value depends on its own R alone, whatever the length
    # of the slice and its place, and K0 not on orders
    m = rng.uniform(0.5, 50.0)
    s = m * np.exp(1j * rng.uniform(-1.5699, 1.5699))
    R = r / m
    (pairs, kernel), = bessel.sr_kernels(s, np.array([R.min()]), np.array([R.max()]),
                                         bessel._bessel_k)
    f0, f1 = kernel(R, 2)
    assert np.array_equal(kernel(R, 1)[0], f0)
    for size in _SIZES:
        for offset in (0, 1, 7, 8, start):
            part = slice(offset, offset + size)
            got0, got1 = kernel(R[part], 2)
            assert np.array_equal(got0, f0[part]) and np.array_equal(got1, f1[part]), size
            assert np.array_equal(kernel(R[part], 1)[0], f0[part]), size
