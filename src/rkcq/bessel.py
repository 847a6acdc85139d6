"""Modified Bessel functions K0 and K1 for complex argument, Re z > 0.

Three regimes, series / Taylor table / asymptotic, selected per entry so
array evaluation stays vectorized:

* ascending power series where |z| + Re z <= 8.5, evaluated as four
  Horner polynomials in q = z^2/4,
* a table of Taylor expansions of K0 on the mid annulus, the remaining
  arguments with |z| < 16.5: 0.5-wide square cells, centred at
  Re zc = 0.25, 0.75, ... and Im zc = 0, 0.5, ..., cover 0 <= Re z < 17
  and 0 <= Im z < 16.75; arguments below the real axis are folded onto
  it by K(conj z) = conj K(z).  Each cell holds 18 Taylor coefficients
  of K0 about its centre, one Horner pass in t = z - zc gives K0 and
  K0', and K1 = -K0',
* the large-argument asymptotic expansion for |z| >= 16.5, evaluated as
  two Horner polynomials in w = 1/z.

Series and asymptotic sums run to a fixed depth per |z| band.  In every
asymptotic band the term ratio (2k-1)^2/(8k|z|) stays below 1 up to the
band's depth, so the fixed depth sums exactly the terms a smallest-term
truncation would.  Their coefficient tables are built once, at import.

The Taylor table is built on first use.  scipy.special.kv (D. E. Amos, "A
portable package for Bessel functions of a complex argument", ACM TOMS 12,
1986) gives K0 and K1 at each centre, and the Bessel equation
z^2 f'' + z f' - z^2 f = 0 gives the higher coefficients by recurrence.
Every point of a cell lies within |t| <= 0.36 of its centre and every
centre the annulus uses lies at |zc| >= 4, so the dropped terms sit below
1e-18 of the sum.  Measured on the 3.0e6 mid-annulus arguments of a
reduced table5 Gauss-3 cell (64-panel L-shape, N_ref 21, N_t 3 and 7),
the table stays within 1.6e-15 (relative) of AMOS, and within 8e-16 of
mpmath at the points where the two differ most.  Real arguments sit on
the centre line of a cell row and give real values.

Measured relative error against high-precision references is below 5e-13
everywhere on Re z > 0, |z| <= 700; the worst case is the outer edge of
the series regime, where K0 = B - L A cancels (5e-14 near the imaginary
axis, up to 5e-13 near the real axis).  For
Re z > 700 both functions underflow to exactly 0, which is harmless for
exponentially decaying kernels.
"""

from functools import lru_cache

import numpy as np
import scipy.special

__all__ = ["bessel_k0", "bessel_k1", "k0k1"]

_EULER_GAMMA = 0.5772156649015328606

# truncation depths by |z| band: terms decay geometrically with ratio about
# (2k-1)^2/(8k|z|), so larger arguments settle below 1e-16 in far fewer terms
_SERIES_BANDS = ((2.0, 12), (5.0, 18), (np.inf, 26))
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


# arguments per Horner block: the (rows, block) accumulator stays in cache
_BLOCK = 16384


def _horner(coef, x):
    """Evaluate every row of coef as a polynomial in x (ascending powers)."""
    out = np.empty((len(coef), x.size), dtype=complex)
    for a in range(0, x.size, _BLOCK):
        xb = x[a : a + _BLOCK]
        p = out[:, a : a + _BLOCK]
        p[:] = coef[:, -1:]
        for c in coef[:, -2::-1].T:
            p *= xb
            p += c[:, None]
    return out


def _series_k(z, kmax, rows):
    """Ascending series for K0 (rows 2) or K0, K1 (rows 4); accurate while
    |z| + Re z is moderate."""
    sums = _horner(_SERIES_COEF[kmax][:rows], z * z / 4.0)
    lg = np.log(z) + (_EULER_GAMMA - np.log(2.0))
    k0 = sums[1] - lg * sums[0]
    if rows == 2:
        return (k0,)
    return k0, 1.0 / z + z * (lg * sums[2] - sums[3])


def _asym_k(z, terms, rows):
    """Large-argument expansion of K0 (rows 1) or K0, K1 (rows 2) to a
    fixed depth."""
    w = 1.0 / z
    sums = _horner(_ASYM_COEF[terms][:rows], w)
    pref = np.sqrt(w) * np.exp(-z)
    return tuple(pref * sk for sk in sums)


# Taylor table of the mid annulus: cells of width _CELL, _CELLS per axis,
# _TERMS coefficients each, evaluated in blocks of _TABLE_BLOCK arguments
_CELL = 0.5
_CELLS = 34
_TERMS = 18
_TABLE_BLOCK = 2048


@lru_cache(maxsize=None)
def _taylor_table():
    """Coefficients a_k, shape (_TERMS, _CELLS^2), of K0(zc + t) = sum a_k t^k.

    Column i _CELLS + j belongs to the centre zc = (i + 1/2) _CELL +
    j _CELL sqrt(-1).  With a_0 = K0(zc) and a_1 = -K1(zc), the Bessel
    equation z^2 f'' + z f' - z^2 f = 0 in z = zc + t gives, term by term
    in t^k,

        zc^2 (k+1)(k+2) a_{k+2} = (zc^2 - k^2) a_k - zc (k+1)(2k+1) a_{k+1}
                                  + 2 zc a_{k-1} + a_{k-2}.

    The coefficients of both solutions, K0 and the growing I0, shrink like
    1/k! relative to the function at zc, so rounding errors fed into the
    recurrence stay at the size of the coefficients they perturb.  The
    table is read-only: every caller shares it.
    """
    i = np.arange(_CELLS)
    zc = ((i[:, None] + 0.5) * _CELL + 1j * _CELL * i[None, :]).ravel()
    a = np.empty((_TERMS, zc.size), dtype=complex)
    a[0] = scipy.special.kv(0, zc)
    a[1] = -scipy.special.kv(1, zc)
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
    out = [np.empty_like(z) for _ in range(orders)]
    for a in range(0, z.size, _TABLE_BLOCK):
        zb = z[a : a + _TABLE_BLOCK]
        x, y = zb.real, np.abs(zb.imag)
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
        below = zb.imag < 0
        for k, val in zip(out, (p, d)):
            np.conjugate(val, out=val, where=below)
            k[a : a + _TABLE_BLOCK] = val
    if orders == 2:
        np.negative(out[1], out=out[1])
    return out


def _bessel_k(z, orders):
    """K0 (orders 1) or K0 and K1 (orders 2) for Re z > 0, elementwise.

    Each K0 value is computed by the same operations whether or not K1 is
    asked for, so both give it bit for bit.
    """
    z = np.asarray(z, dtype=complex)
    zf = np.atleast_1d(z).ravel()
    if np.any(zf.real <= 0):
        raise ValueError("K0/K1 evaluation requires Re z > 0")
    out = [np.zeros_like(zf) for _ in range(orders)]

    live = zf.real <= 700.0
    az = np.abs(zf)
    m_ser = live & (az + zf.real <= 8.5)
    m_asy = live & ~m_ser & (az >= 16.5)
    m_mid = live & ~m_ser & ~m_asy

    for mask, bands, evaluate, rows in ((m_ser, _SERIES_BANDS, _series_k, 2 * orders),
                                        (m_asy, _ASYM_BANDS, _asym_k, orders)):
        lo = 0.0
        for hi, depth in bands:
            m = mask & (az > lo) & (az <= hi)
            if m.any():
                for k, val in zip(out, evaluate(zf[m], depth, rows)):
                    k[m] = val
            lo = hi
    if m_mid.any():
        for k, val in zip(out, _table_k(zf[m_mid], orders)):
            k[m_mid] = val

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
