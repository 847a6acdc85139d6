"""Modified Bessel functions K0 and K1 for complex argument, Re z > 0.

Three regimes, each a set of bands of |z|, selected per entry so array
evaluation stays vectorized (arrays are evaluated in fixed-size blocks, and
a block whose arguments all lie in one band goes to that band's kernel
whole, without masks):

* the ascending power series for |z| <= 3, four Horner polynomials in
  q = z^2/4,
* for 3 < |z| < 16.5, a table of 18-term Taylor expansions of K0 about the
  centres zc = (0.25, 0.75, ...) + i (0, 0.5, ...) of 0.5-wide square
  cells covering 0 <= Re z < 17, 0 <= Im z < 16.75; one Horner pass in
  t = z - zc gives K0 and K1 = -K0', and arguments below the real axis
  are folded onto it by K(conj z) = conj K(z),
* the large-argument asymptotic expansion for |z| >= 16.5, two Horner
  polynomials in w = 1/z.

Series and asymptotic sums run to a fixed depth per band.  In every
asymptotic band the term ratio (2k-1)^2/(8k|z|) stays below 1 up to the
band's depth, so the fixed depth sums exactly the terms a smallest-term
truncation would.  Their coefficients are built at import, the Taylor
table on first use: K0 and K1 at each centre are read from the package
data file _taylor_seeds.npy, the Bessel equation z^2 f'' + z f' - z^2 f = 0
gives the higher terms by recurrence.  The file holds the values of D. E.
Amos's code ("A portable package for Bessel functions of a complex
argument", ACM TOMS 12, 1986) as scipy.special.kv returns them, written
once by tests/write_taylor_seeds.py, so that importing this module loads
no scipy.  Real arguments sit on the centre line of a cell row and give
real values.

Measured against mpmath at 30 digits (relative): the series is within
8.4e-14, its worst case at |z| = 3 near the real axis, where K0 = B - L A
cancels (I0(3) = 4.9, K0(3) = 0.035); the table within 3.5e-15 just
outside |z| = 3 (a cell's points lie within |t| <= 0.36 of its centre,
and the nearest centre in use is 1.75 + 2i, |zc| = 2.66) and within
8.9e-16 on random points of its annulus; the asymptotic bands within
6.5e-16 on random points of 16.5 <= |z| <= 700 and within 6.7e-16 on
both sides of each band's edges at arg z = +-(pi/2 - 1e-5), the worst
just above 16.5 (tests/test_bessel.py holds them to 2e-15).  For Re z > 700 both
functions underflow to exactly 0, which is harmless for exponentially
decaying kernels.

Boundary-element assembly evaluates z = s R for one complex s and many
real distances R, and sr_kernels(s, rmin, rmax) gives each pair of
panels whose arguments all lie in one regime a kernel of s R with s
factored out:

* the series where |s| rmax <= 3, at the depth of the band of |s| rmax
  (12 terms up to 2, else 18): each sum is a real polynomial in R^2 with
  coefficients c_k (s^2/4)^k, and log z = log s + log R,
* the asymptotic expansion where |s| rmin >= 16.5 (and Re s rmax <= 700),
  at the depth of the band of |s| rmin, never fewer terms than any of its
  arguments takes alone: each sum is a real polynomial in 1/R with
  coefficients a_k s^(-k-1/2), and e^-z = e^(-Re s R) (cos(Im s R) -
  i sin(Im s R)).

One real matmul of the coefficients with the powers of R^2 or 1/R
evaluates every polynomial, and no argument pays for a complex log,
sqrt, exp or division or for the band masks.  Other pairs take k0k1 (or
bessel_k0) of s R.  Measured against mpmath at 30 digits, at s R as numpy
rounds it, for s of seven phases up to arg s = +-(pi/2 - 1e-5): the
factored series within 7.0e-15 on |z| <= 2 and 8.0e-14 on |z| <= 3, the
factored asymptotic bands within 9.8e-16 at both edges of every band and
inside it, the worst just above 16.5 (tests/test_bessel.py holds them to
2e-14, 1e-13 and 2e-15).
"""

import os
from functools import lru_cache, partial

import numpy as np

__all__ = ["band", "bessel_k0", "bessel_k1", "k0k1", "sr_kernels"]

_EULER_GAMMA = 0.5772156649015328606

# truncation depths by |z| band: terms decay geometrically with ratio about
# (2k-1)^2/(8k|z|), so larger arguments settle below 1e-16 in far fewer terms
_SERIES_BANDS = ((2.0, 12), (3.0, 18))
_ASYM_BANDS = ((32.0, 30), (64.0, 19), (128.0, 12), (512.0, 9), (np.inf, 6))


def _series_coefficients(kmax):
    """Coefficients of q^0 .. q^kmax of the sums A, B, C, D in

        K0 = B - L A,   K1 = 1/z + z (L C - D),   L = log(z/2) + gamma,

    where A = I0(z), C = I1(z) / z and, with H_k = 1 + 1/2 + ... + 1/k,

        A = sum q^k / k!^2,            B = sum H_k q^k / k!^2,
        C = sum q^k / (2 k! (k+1)!),   D = sum (H_k + H_{k+1}) q^k / (4 k! (k+1)!).
    """
    k = np.arange(kmax + 1)
    fact = np.cumprod(np.concatenate([[1.0], k[1:].astype(float)]))
    harm = np.concatenate([[0.0], np.cumsum(1.0 / k[1:])])
    c0 = 1.0 / fact**2
    c1 = c0 / (k + 1.0)
    return np.stack([c0, c0 * harm, c1 / 2.0, c1 * (2.0 * harm + 1.0 / (k + 1.0)) / 4.0])


def _asym_coefficients(terms):
    """Coefficients of w^0 .. w^terms in K0 and K1 times sqrt(z) e^z, w = 1/z."""
    k = np.arange(1, terms + 1)
    rows = [np.concatenate([[1.0], np.cumprod((4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))])
            for nu in (0, 1)]
    return np.sqrt(np.pi / 2.0) * np.stack(rows)


_SERIES_COEF = {kmax: _series_coefficients(kmax) for _, kmax in _SERIES_BANDS}
_ASYM_COEF = {terms: _asym_coefficients(terms) for _, terms in _ASYM_BANDS}


def _horner(coef, x):
    """Evaluate every row of coef as a polynomial in x (ascending powers)."""
    p = np.empty((len(coef), x.size), dtype=complex)
    p[:] = coef[:, -1:]
    for c in coef[:, -2::-1].T:
        p *= x
        p += c[:, None]
    return p


def _series_k(z, orders, kmax):
    """Ascending series for K0 (orders 1) or K0, K1 (orders 2) to depth
    kmax, for |z| <= 3."""
    sums = _horner(_SERIES_COEF[kmax][: 2 * orders], z * z / 4.0)
    lg = np.log(z) + (_EULER_GAMMA - np.log(2.0))
    k0 = sums[1] - lg * sums[0]
    if orders == 1:
        return (k0,)
    return k0, 1.0 / z + z * (lg * sums[2] - sums[3])


def _asym_k(z, orders, terms):
    """Large-argument expansion of K0 (orders 1) or K0, K1 (orders 2) to a
    fixed depth."""
    w = 1.0 / z
    sums = _horner(_ASYM_COEF[terms][:orders], w)
    pref = np.sqrt(w) * np.exp(-z)
    return tuple(pref * sk for sk in sums)


# Taylor table of the mid annulus: cells of width _CELL, _CELLS per axis,
# _TERMS coefficients each
_CELL = 0.5
_CELLS = 34
_TERMS = 18
# K0(zc) and K1(zc) at the centres, shape (2, _CELLS^2), complex128
_SEEDS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_taylor_seeds.npy")


def _taylor_centres():
    """The cells' centres zc, in the table's column order."""
    i = np.arange(_CELLS)
    return ((i[:, None] + 0.5) * _CELL + 1j * _CELL * i[None, :]).ravel()


@lru_cache(maxsize=None)
def _taylor_table():
    """Coefficients a_k, shape (_TERMS, _CELLS^2), of K0(zc + t) = sum a_k t^k.

    Column i _CELLS + j belongs to the centre zc = (i + 1/2) _CELL +
    j _CELL sqrt(-1).  a_0 = K0(zc) and a_1 = -K1(zc) are the AMOS values
    stored in _taylor_seeds.npy (see the module docstring); from them the
    Bessel equation z^2 f'' + z f' - z^2 f = 0 in z = zc + t gives, term by
    term in t^k,

        zc^2 (k+1)(k+2) a_{k+2} = (zc^2 - k^2) a_k - zc (k+1)(2k+1) a_{k+1}
                                  + 2 zc a_{k-1} + a_{k-2}.

    The coefficients of both solutions, K0 and the growing I0, shrink like
    1/k! relative to the function at zc, so rounding errors fed into the
    recurrence stay at the size of the coefficients they perturb.  The
    table is read-only: every caller shares it.
    """
    zc = _taylor_centres()
    k0, k1 = np.load(_SEEDS)
    a = np.empty((_TERMS, zc.size), dtype=complex)
    a[0] = k0
    a[1] = -k1
    z2 = zc * zc
    for k in range(_TERMS - 2):
        acc = (z2 - k * k) * a[k] - zc * ((k + 1) * (2 * k + 1)) * a[k + 1]
        if k >= 1:
            acc += 2.0 * zc * a[k - 1]
        if k >= 2:
            acc += a[k - 2]
        a[k + 2] = acc / (z2 * ((k + 1) * (k + 2)))
    a.flags.writeable = False
    return a


def _table_k(z, orders):
    """K0 (orders 1) or K0 and K1 (orders 2) from the Taylor table, for
    0 < Re z < 17 and |Im z| < 16.75.

    Arguments below the real axis are evaluated at their conjugate and the
    values conjugated back.  One Horner pass gives K0 and, with orders 2,
    its derivative, taking each coefficient row of the argument's cell as
    it goes (an 18 KB row stays in cache, and the block holds no
    (_TERMS, block) gather); K0's operations do not depend on orders.
    """
    coef = _taylor_table()
    x, y = z.real, np.abs(z.imag)
    ix = (x * (1.0 / _CELL)).astype(np.intp)
    iy = (y * (1.0 / _CELL) + 0.5).astype(np.intp)
    t = (x - (ix + 0.5) * _CELL) + 1j * (y - iy * _CELL)
    cell = ix * _CELLS + iy
    p = coef[-1].take(cell)
    d = np.zeros_like(p) if orders == 2 else None
    for row in coef[-2::-1]:
        if d is not None:
            d *= t
            d += p
        p *= t
        p += row.take(cell)
    below = z.imag < 0
    vals = (p,) if d is None else (p, np.negative(d, out=d))
    for val in vals:
        np.conjugate(val, out=val, where=below)
    return vals


# every band of the three regimes, in the order of band's index: the
# series bands, the Taylor table, the asymptotic bands
_BAND_KERNELS = (
    [partial(_series_k, kmax=kmax) for _, kmax in _SERIES_BANDS]
    + [_table_k]
    + [partial(_asym_k, terms=terms) for _, terms in _ASYM_BANDS]
)
# upper |z| edges of the bands of _BAND_KERNELS but the last (the table
# ends just below 16.5): np.searchsorted(_EDGES, |z|) is the index of the
# band lo < |z| <= hi
_EDGES = np.array([hi for hi, _ in _SERIES_BANDS] + [np.nextafter(16.5, 0.0)]
                  + [hi for hi, _ in _ASYM_BANDS[:-1]])


def band(z):
    """Band of every argument (an index into the module's band list), -1
    where Re z > 700 and the values flush to 0.

    Bands are intervals of |z|.  _bessel_k splits each block of arguments
    by band, and a block that holds one band's arguments only goes to that
    band's kernel without masks.
    """
    z = np.asarray(z, dtype=complex)
    return np.where(z.real > 700.0, -1, np.searchsorted(_EDGES, np.abs(z)))


# arguments per block of _bessel_k: every complex temporary of a block stays
# below 256 KiB (16384 values), where numpy starts to elide temporaries into
# in-place operations with the operands swapped
_BLOCK = 16000


def _bessel_k(z, orders):
    """K0 (orders 1) or K0 and K1 (orders 2) for Re z > 0, elementwise.

    The arguments go to the band kernels in blocks of _BLOCK: a block
    whose arguments all lie in one band (and all at Re z <= 700) goes to
    that band's kernel whole, any other block is split by band, with zeros
    where Re z > 700.  A lone argument of a band is evaluated as a pair
    (numpy rounds an in-place complex product of one element apart from
    that of a longer array).  So every value depends on its argument
    alone, not on the array it comes in, and each K0 value is computed by
    the same operations whether or not K1 is asked for.
    """
    z = np.asarray(z, dtype=complex)
    zf = np.atleast_1d(z).ravel()
    if not (zf.real > 0).all():
        raise ValueError("K0/K1 evaluation requires Re z > 0 and no NaN")
    out = [np.zeros_like(zf) for _ in range(orders)]
    for a in range(0, zf.size, _BLOCK):
        zb = zf[a : a + _BLOCK]
        az = np.abs(zb)
        amin = az.min()
        if np.isnan(amin):  # a NaN imaginary part
            raise ValueError("K0/K1 evaluation requires Re z > 0 and no NaN")
        lo, hi = np.searchsorted(_EDGES, [amin, az.max()])
        masks = {lo: slice(None)}
        if lo != hi or zb.real.max() > 700.0:
            ids = np.where(zb.real <= 700.0, np.searchsorted(_EDGES, az), -1)
            masks = {b: ids == b for b in range(lo, hi + 1)}
        for b, m in masks.items():
            zm = zb[m]
            if zm.size:
                vals = _BAND_KERNELS[b](zm if zm.size > 1 else np.repeat(zm, 2), orders)
                for k, val in zip(out, vals):
                    k[a : a + _BLOCK][m] = val[: zm.size]
    if z.ndim == 0:
        return tuple(complex(k[0]) for k in out)
    return tuple(k.reshape(z.shape) for k in out)


def k0k1(z):
    """K0(z) and K1(z) for Re z > 0, elementwise on arrays."""
    return _bessel_k(z, 2)


def bessel_k0(z):
    """Modified Bessel function K0(z), Re z > 0 (K1 is not computed)."""
    return _bessel_k(z, 1)[0]


def bessel_k1(z):
    """Modified Bessel function K1(z), Re z > 0."""
    return k0k1(z)[1]


def _planar(coef):
    """Complex coefficient rows (r, K) as real rows (2 r, K): the real and
    the imaginary part of each row in turn."""
    return np.stack([coef.real, coef.imag], axis=1).reshape(-1, coef.shape[1])


def _real_poly(coef, x):
    """Every row of the real coef (r, K) as a polynomial in the real x
    (ascending powers), shape (r, x.size).

    One matmul of the coefficients with the powers x^k, its columns padded
    to a multiple of 8: at that width OpenBLAS gives every column the same
    bits whatever the number of columns and the column's place, so a value
    depends on its own x alone (tests/test_bessel.py checks this).
    """
    n = x.size
    X = np.empty((coef.shape[1], -(-n // 8) * 8))
    X[0] = 1.0
    X[1, :n], X[1, n:] = x, 1.0
    for k in range(2, len(X)):
        np.multiply(X[k - 1], X[1], out=X[k])
    return (coef @ X)[:, :n]


def _series_sr(s, orders, kmax):
    """_series_k at z = s R for real R > 0, as a function of a block of R
    giving (re, im) of K0 (orders 1) or of K0 and K1 (orders 2).

    Each sum is a real polynomial in R^2 whose coefficients c_k (s^2/4)^k
    carry s, and log z = log s + log R.
    """
    q = np.concatenate([[1.0], np.cumprod(np.full(kmax, s * s / 4.0))])
    coef = _planar(_SERIES_COEF[kmax][: 2 * orders] * q)
    lg = np.log(s) + (_EULER_GAMMA - np.log(2.0))
    inv = 1.0 / s

    def block(R):
        ar, ai, br, bi, *cd = _real_poly(coef, R * R)
        lr, li = np.log(R) + lg.real, lg.imag
        k0 = (br - (lr * ar - li * ai), bi - (lr * ai + li * ar))
        if orders == 1:
            return (k0,)
        cr, ci, dr, di = cd
        tr, ti = lr * cr - li * ci - dr, lr * ci + li * cr - di
        return k0, (inv.real / R + R * (s.real * tr - s.imag * ti),
                    inv.imag / R + R * (s.real * ti + s.imag * tr))
    return block


def _asym_sr(s, orders, terms):
    """_asym_k at z = s R for real R > 0, as a function of a block of R
    giving (re, im) of K0 (orders 1) or of K0 and K1 (orders 2).

    Each sum is a real polynomial in x = 1/R whose coefficients
    a_k s^(-k-1/2) carry s, and sqrt(1/z) e^-z = s^(-1/2) sqrt(x)
    e^(-Re s R) (cos(Im s R) - i sin(Im s R)).
    """
    w = 1.0 / s
    wk = np.sqrt(w) * np.concatenate([[1.0], np.cumprod(np.full(terms, w))])
    coef = _planar(_ASYM_COEF[terms][:orders] * wk)

    def block(R):
        x = 1.0 / R
        sums = _real_poly(coef, x)
        pref = np.sqrt(x) * np.exp(-s.real * R)
        phase = s.imag * R
        c, sn = pref * np.cos(phase), pref * np.sin(phase)
        return tuple((sr * c + si * sn, si * c - sr * sn) for sr, si in sums.reshape(orders, 2, -1))
    return block


# the kernel of s R for real R of every band of _BAND_KERNELS, None for the
# Taylor table, whose cells are laid out in z, so s does not factor out
_SR_KERNELS = (
    [partial(_series_sr, kmax=kmax) for _, kmax in _SERIES_BANDS]
    + [None]
    + [partial(_asym_sr, terms=terms) for _, terms in _ASYM_BANDS]
)
# distances per block of _k_sr: the powers x^k, a block's largest temporary,
# take 496 KiB in the deepest asymptotic band and 208 or 304 KiB in the
# series; blocks of 4096 ran no faster and raised a dtn_lshape round's peak
# RSS by 2-6 MB
_SR_BLOCK = 2048


def _k_sr(kernel, s, R, orders):
    """K0 (orders 1) or K0 and K1 (orders 2) of s R, elementwise over the
    real array R, from one band's factored kernel in blocks of _SR_BLOCK."""
    block = kernel(s, orders)
    rf = R.ravel()
    out = [np.empty(rf.size, dtype=complex) for _ in range(orders)]
    for a in range(0, rf.size, _SR_BLOCK):
        for k, (re, im) in zip(out, block(rf[a : a + _SR_BLOCK])):
            kb = k[a : a + _SR_BLOCK]
            kb.real, kb.imag = re, im
    return tuple(k.reshape(R.shape) for k in out)


def sr_kernels(s, rmin, rmax):
    """Split pairs by the K0/K1 kernel of z = s R that serves each pair's
    distances R, all within [rmin, rmax] (arrays over the pairs), for one
    frequency s, Re s > 0.

    Returns a list of (pairs, kernel), pairs an index array into rmin.
    kernel(R, orders) gives K0 (orders 1) or K0 and K1 (orders 2) of s R
    for real R of those pairs; it is None for pairs whose arguments span
    the Taylor table's annulus or more than one regime (and for those that
    reach Re z > 700): those take k0k1 or bessel_k0 of s R.  A pair with
    |s| rmax <= 3 takes the series with s factored out (depth 12 if
    |s| rmax <= 2, else 18), a pair with |s| rmin >= 16.5 the asymptotic
    expansion with s factored out, at the depth of the band of |s| rmin,
    the deepest its arguments need.  Each value depends on s, the pair's
    kernel and its own R alone, and a K0 value does not depend on orders.
    """
    s = complex(s)
    lo, hi = np.searchsorted(_EDGES, [abs(s) * rmin, abs(s) * rmax])
    series = len(_SERIES_BANDS)
    asym = (lo > series) & (s.real * rmax <= 700.0)
    key = np.where(hi < series, hi, np.where(asym, lo, -1))
    return [(np.flatnonzero(key == b), partial(_k_sr, _SR_KERNELS[b], s) if b >= 0 else None)
            for b in np.unique(key).tolist()]
