"""Root loci of the Gauss stability function on the unit circle.

The stability function of an m-stage Gauss method is the diagonal rational
approximant R_m(z) = P_m(z)/P_m(-z) of the exponential, with

    P_m(z) = sum_j p_j z^j,   p_j = (2m-j)! / (j! (m-j)!).

This module locates the solutions of R_m(z) = e^{i theta} (all purely
imaginary), attaches to each the local expansion slope beta = dz/dt of the
root path of R_m(z) = e^{t+i theta}, and extracts the blow-up constants of
the root that escapes to infinity at the degenerate angles (theta = 0 for
even m, theta = pi for odd m).  It also provides the spectrum identity
linking these root sets to the eigenvalues of the CQ matrix Delta(zeta),
and the stage-order defect vector together with its cancellation property
against the imaginary roots.

All roots come from one routine: the eigenvalues of a stack of companion
matrices plus one Newton step.  The theta sweep is one such batched solve.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import delta_matrix
from .tableaux import gauss_tableau

__all__ = [
    "PadePolynomial",
    "ThetaRootSet",
    "Theta0Characterization",
    "ThetaPiCharacterization",
    "StageOrderDefect",
    "pade_coeffs",
    "solve_R_equals",
    "m_theta_roots",
    "theta_grid_summary",
    "beta_coefficient",
    "beta_from_residue",
    "theta0_roots",
    "characterize_theta0",
    "characterize_theta_pi",
    "delta_spectrum_matches",
    "stage_order_defect",
    "cancellation_check",
]


@dataclass(frozen=True, eq=False)
class PadePolynomial:
    """Numerator polynomial P_m of the diagonal approximant, ascending coeffs."""

    m: int
    coeffs: np.ndarray
    exact: tuple

    def eval(self, z):
        out = _horner(self.coeffs, np.asarray(z, dtype=complex))[0]
        return out if out.ndim else complex(out)

    def eval_deriv(self, z):
        out = _horner(self.coeffs, np.asarray(z, dtype=complex))[1]
        return out if out.ndim else complex(out)

    def ratio(self, z):
        """Stability function R_m(z) = P_m(z)/P_m(-z)."""
        z = np.asarray(z, dtype=complex)
        return self.eval(z) / self.eval(-z)


@dataclass(frozen=True, eq=False)
class ThetaRootSet:
    """Imaginary parts y_j of the solutions of R_m(iy) = e^{i theta}."""

    m: int
    theta: float
    y: np.ndarray
    betas: np.ndarray
    degenerate: bool

    @property
    def roots(self):
        return 1j * self.y


@dataclass(frozen=True, eq=False)
class Theta0Characterization:
    """Nonzero imaginary roots at theta=0 and the even-m escape constant."""

    m: int
    r: np.ndarray
    delta: np.ndarray
    D: float
    D_product: float
    D_discrepancy: float


@dataclass(frozen=True, eq=False)
class ThetaPiCharacterization:
    """Imaginary roots at theta=pi and the odd-m escape constant."""

    m: int
    rho: np.ndarray
    gamma: np.ndarray
    E: float
    E_product: float
    E_discrepancy: float


@dataclass(frozen=True, eq=False)
class StageOrderDefect:
    """Leading coefficient C of (I-zA)^{-1} 1 - e^{cz} = C z^{q+1} + O(z^{q+2})."""

    m: int
    q: int
    C: np.ndarray


@lru_cache(maxsize=None)
def pade_coeffs(m):
    """Coefficients p_j = (2m-j)!/(j!(m-j)!) of P_m, exact integers.

    Computed by the downward ratio p_j = p_{j+1} (2m-j)(j+1)/(m-j) from the
    monic top; every intermediate quotient is an exact integer.  The result
    is cached per m, so its coeffs array is read-only.
    """
    if not 1 <= m <= 24:
        raise ValueError("pade_coeffs supports 1 <= m <= 24, got %r" % m)
    ints = [0] * (m + 1)
    ints[m] = 1
    for j in range(m - 1, -1, -1):
        num = ints[j + 1] * (2 * m - j) * (j + 1)
        div, rem = divmod(num, m - j)
        if rem:
            raise AssertionError("ratio update lost integrality at j=%d" % j)
        ints[j] = div
    coeffs = np.array([float(v) for v in ints])
    coeffs.flags.writeable = False
    return PadePolynomial(m=m, coeffs=coeffs, exact=tuple(ints))


def _horner(c, z):
    """Value and derivative at z of sum_k c[k] z^k; each c[k] broadcasts
    against z.  Horner's rule from zero, in np.polyval's operation order."""
    val = np.zeros_like(z)
    der = np.zeros_like(z)
    for k in range(len(c) - 1, 0, -1):
        val = val * z + c[k]
        der = der * z + k * c[k]
    return val * z + c[0], der


def _polished_roots(q):
    """Roots, shape q.shape[:-1] + (k,), of the degree-k polynomials with
    ascending coefficients q[..., :], plus one Newton step.  Each row gets
    np.roots' companion matrix (first row -p[1:]/p[0] of the descending
    coefficients p) and, like np.roots, t exact zero roots for t vanishing
    low coefficients."""
    q = np.asarray(q)
    k = q.shape[-1] - 1
    roots = np.zeros(q.shape[:-1] + (k,), dtype=complex)
    low = np.argmax(q != 0, axis=-1)
    for t in np.unique(low):
        rows = low == t
        p = q[rows][:, t:][:, ::-1]
        n = k - t
        if n:
            A = np.zeros((len(p), n, n), dtype=p.dtype)
            A[:, 0, :] = -p[:, 1:] / p[:, :1]
            A[:, np.arange(1, n), np.arange(n - 1)] = 1
            roots[rows, :n] = np.linalg.eigvals(A)
    val, der = _horner(np.moveaxis(q, -1, 0)[..., None], roots)
    return roots - np.divide(val, der, out=np.zeros_like(val), where=np.abs(der) > 0)


def _shifted_coeffs(m, w):
    """Coefficients q_k = p_k (1 - w(-1)^k) of P_m(z) - w P_m(-z)."""
    signs = (-1.0) ** np.arange(m + 1)
    return pade_coeffs(m).coeffs * (1.0 - np.multiply.outer(w, signs))


def solve_R_equals(m, w):
    """All finite solutions of R_m(z) = w, i.e. roots of P_m(z) - w P_m(-z).

    Returns (roots, degenerate).  The polynomial has coefficients
    q_k = p_k (1 - w(-1)^k); the leading one vanishes when w = 1 with m even
    or w = -1 with m odd, in which case the degree drops by one, m-1 roots
    are returned and degenerate is True.  An array of w, none of them
    degenerate, gives roots of shape w.shape + (m,) and degenerate False.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ValueError("w must be nonzero")
    q = _shifted_coeffs(m, w)
    # q_m = 1 - w(-1)^m as p_m = 1; tested alone: p_0 = (2m)!/m! is huge, so
    # q_m measured against max|q| would flag many angles for m >= 11
    degenerate = np.abs(q[..., m]) < 1e-14
    if not degenerate.any():
        return _polished_roots(q), False
    if w.ndim:
        raise ValueError("degenerate w = %r in an array of values" % w[degenerate][0])
    return _polished_roots(q[:m]), True


def beta_coefficient(m, y):
    """Slope beta = 1/(1 - y^{2m}/|P_m(iy)|^2) of the root path at iy.

    Equals 1 at y = 0 and exceeds 1 at every other point where |R_m(iy)| = 1.
    y may be an array; the result then has its shape.
    """
    pol = pade_coeffs(m)
    y = np.asarray(y, dtype=float)
    a2 = np.abs(pol.eval(1j * y)) ** 2
    # float_power rounds like the scalar pow (the array power loop may not),
    # and a2 - y^{2m} cancels wherever beta is large
    den = a2 - np.float_power(y, 2 * m)
    bad = ~(den > 0)
    if bad.any():
        raise ValueError(
            "|P_m(iy)|^2 - y^{2m} = %g <= 0 at y=%g; iy is not a unit-modulus root"
            % (den[bad].flat[0], y[bad].flat[0])
        )
    beta = a2 / den
    return beta if beta.ndim else float(beta)


def beta_from_residue(m, y):
    """Same slope via implicit differentiation of P(z) = e^t w P(-z) at t=0.

    dz/dt = P(z)P(-z) / (P'(z)P(-z) + P(z)P'(-z)) evaluated at z = iy; the
    value is real whenever iy is a unit-modulus root.  Cross-validates
    beta_coefficient.
    """
    pol = pade_coeffs(m)
    z = 1j * float(y)
    num = pol.eval(z) * pol.eval(-z)
    den = pol.eval_deriv(z) * pol.eval(-z) + pol.eval(z) * pol.eval_deriv(-z)
    val = num / den
    if abs(val.imag) > 1e-8 * abs(val) + 1e-12:
        raise ValueError("slope not real at y=%g; iy is not a unit-modulus root" % y)
    return val.real


def m_theta_roots(m, theta):
    """Roots of P_m(z) - e^{i theta} P_m(-z) with their path slopes.

    All roots are purely imaginary; a residual real part above 1e-9 raises.
    At the degenerate angle (0 for even m, +-pi for odd m) the count drops
    to m-1 and the set is flagged.
    """
    theta = float(theta)
    if abs(theta) > np.pi + 1e-12:
        raise ValueError("theta must lie in [-pi, pi]")
    roots, degenerate = solve_R_equals(m, np.exp(1j * theta))
    if roots.size and np.max(np.abs(roots.real)) > 1e-9:
        raise RuntimeError(
            "root with |Re| = %g > 1e-9 for m=%d, theta=%g" % (np.max(np.abs(roots.real)), m, theta)
        )
    y = np.sort(roots.imag)
    betas = beta_coefficient(m, y)
    return ThetaRootSet(m=m, theta=theta, y=y, betas=betas, degenerate=degenerate)


def _escape_root(m, w):
    """Largest real solution z of R_m(z) = w for real w with |w| slightly
    above 1, where one root escapes like const / (|w| - 1).

    The generic companion-matrix solve is unreliable here: the leading
    coefficient of P(z) - w P(-z) is O(|w| - 1) while interior coefficients
    are O(1), so the far root is resolved instead by the dominant balance of
    the top two coefficients followed by Newton iterations.
    """
    q = _shifted_coeffs(m, w)
    if q[m] == 0.0:
        raise ValueError("no escaping root: leading coefficient vanished")
    z = -q[m - 1] / q[m]
    for _ in range(8):
        val, der = _horner(q, z)
        step = val / der
        z = z - step
        if abs(step) <= 1e-15 * abs(z):
            break
    return z


def _escape_constant(m, wsign, t1=1e-3, t2=1e-4):
    """Limit of t * z_max(t) as t -> 0+ for the root escaping to infinity.

    z_max(t) is the largest solution of R_m(z) = wsign * e^t; the product
    t * z_max is fitted linearly in t at two small t values and extrapolated
    to t = 0.
    """
    v1, v2 = (t * _escape_root(m, wsign * np.exp(t)) for t in (t1, t2))
    return (t1 * v2 - t2 * v1) / (t1 - t2)


def _positive_roots(m, w):
    """Positive imaginary parts of the roots of R_m(z) = w, sorted; the root
    0 at w = 1 is exact (deflated), so it is left out."""
    y = solve_R_equals(m, w)[0].imag
    return np.sort(y[y > 0])


def theta0_roots(m):
    """The positive imaginary parts r_l of the theta = 0 roots, sorted:
    the roots that characterize_theta0 and cancellation_check use, solved
    once when both are passed them."""
    return _positive_roots(m, 1.0)


def _characterize(m, w, y=None):
    """(y, beta(y), C, C_product, discrepancy) for R_m(z) = w, w = +-1: the
    positive imaginary roots (solved unless y gives them), their slopes
    and, where w = (-1)^m drops the degree, the escape limit C, its product
    form p_0 / prod y^2 (w = 1) or 2 p_0 / prod y^2 (w = -1) and their
    relative discrepancy; else NaN."""
    if y is None:
        y = _positive_roots(m, w)
    slopes = beta_coefficient(m, y)
    if w != (-1.0) ** m:
        return y, slopes, float("nan"), float("nan"), float("nan")
    C = _escape_constant(m, w)
    scale = 1.0 if w > 0 else 2.0
    C_product = scale * pade_coeffs(m).exact[0] / float(np.prod(y ** 2))
    return y, slopes, C, C_product, abs(C - C_product) / abs(C_product)


def characterize_theta0(m, roots=None):
    """Positive imaginary roots r_l at theta=0, their slopes delta_l, and
    for even m the escape constant D with t*z_max(t,0) -> D.

    D is primarily the numerical limit; the closed product p_0 / prod r_l^2
    is carried alongside with their relative discrepancy.  roots, when
    given, are theta0_roots(m) and are not solved again.
    """
    if m < 2:
        raise ValueError("characterize_theta0 needs m >= 2")
    return Theta0Characterization(m, *_characterize(m, 1.0, roots))


def characterize_theta_pi(m):
    """Positive imaginary roots rho_l at theta=pi, their slopes gamma_l, and
    for odd m the escape constant E with t*z_max(t,pi) -> E.

    E is primarily the numerical limit; the closed product 2 p_0 / prod rho_l^2
    is carried alongside with their relative discrepancy.
    """
    if m < 1:
        raise ValueError("characterize_theta_pi needs m >= 1")
    return ThetaPiCharacterization(m, *_characterize(m, -1.0))


def theta_grid_summary(m, npts=721, window=0.05):
    """Sweep theta over [-pi, pi] away from the degenerate angle; track the
    largest residual real part and the beta range.

    Roots with y near a zero crossing carry beta - 1 = y^{2m}/|P(iy)|^2
    below the resolution of a double (the correctly rounded beta is exactly
    1.0), so the strict beta range is taken over lanes where that ratio is
    representable, y^{2m} > 4 eps |P(iy)|^2; every lane, representable or
    not, still must come out >= 1.  Lanes with |y| > 1e5 are likewise left
    out of the range: the slope grows without bound near the degenerate
    angle.
    """
    thetas = np.linspace(-np.pi, np.pi, npts)
    gap = np.abs(thetas) if m % 2 == 0 else np.pi - np.abs(thetas)
    thetas = thetas[gap >= window]
    roots, _ = solve_R_equals(m, np.exp(1j * thetas))
    y = roots.imag[np.abs(roots.imag) > 1e-8]
    b = beta_coefficient(m, y)
    y2m = np.float_power(np.abs(y), 2 * m)
    eps = np.finfo(float).eps
    kept = b[(np.abs(y) <= 1e5) & (y2m > 4 * eps * np.abs(pade_coeffs(m).eval(1j * y)) ** 2)]
    return {
        "theta_count": len(thetas),
        "max_abs_re_root": float(np.max(np.abs(roots.real), initial=0.0)),
        "min_beta": float(kept.min()) if kept.size else None,
        "max_beta": float(kept.max(initial=0.0)),
        "all_slopes_at_least_one": bool(np.all(b >= 1.0)),
    }


def stability_function_roots(tableau, value):
    """Solutions z of R(z) = value for the tableau's stability function
    R(z) = det(I - zA + z 1 b^T) / det(I - zA).

    Both determinants are expanded into polynomial coefficients through the
    eigenvalues of A and A - 1 b^T (det(I - zM) has ascending coefficient
    (-1)^k e_k(M), exactly the output layout of np.poly), so the routine
    covers any invertible-A tableau, not just the Pade/Gauss case.
    """
    m = tableau.m
    pd = np.poly(np.linalg.eigvals(tableau.A)).astype(complex)
    pn = np.poly(np.linalg.eigvals(tableau.A - np.outer(np.ones(m), tableau.b))).astype(complex)
    q = pn - value * pd
    if abs(q[m]) < 1e-14 * np.max(np.abs(q)):
        raise ValueError("degenerate value: a root escapes to infinity")
    return _polished_roots(q)


def delta_spectrum_matches(tableau, zeta):
    """Hausdorff distance between the spectrum of Delta(zeta) and the
    solution set of R(z) = 1/zeta for the tableau's stability function.

    The two sets coincide for any tableau with invertible A and bounded
    R(infinity), so the distance measures only numerical error.
    """
    zeta = complex(zeta)
    if not 0 < abs(zeta) < 1:
        raise ValueError("need 0 < |zeta| < 1")
    eigs = np.linalg.eigvals(delta_matrix(tableau, zeta))
    roots = stability_function_roots(tableau, 1.0 / zeta)
    d = np.abs(eigs[:, None] - roots[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def stage_order_defect(tableau):
    """First nonvanishing Taylor defect C = A^{q+1} 1 - c^{q+1}/(q+1)!."""
    q = tableau.q
    v = np.ones(tableau.m)
    for _ in range(q + 1):
        v = tableau.A @ v
    C = v - tableau.c ** (q + 1) / math.factorial(q + 1)
    return StageOrderDefect(m=tableau.m, q=q, C=C)


def _legendre_p(n, x):
    """Legendre P_n(x), n >= 1, on an array x, by the recurrence in the
    differences d_k = P_k - P_{k-1} that scipy.special.eval_legendre runs
    for integer n away from x = 0 (and gives its values bit for bit there).
    At x = 0 it returns the exact P_n(0): 0 for odd n, (-1)^a C(2a, a) / 4^a
    for n = 2a."""
    d = x - 1.0
    p = x
    for k in range(1, n):
        d = ((2 * k + 1) / (k + 1)) * (x - 1.0) * p + (k / (k + 1)) * d
        p = p + d
    a, odd = divmod(n, 2)
    return np.where(x == 0.0, 0.0 if odd else (-1) ** a * math.comb(2 * a, a) / 4**a, p)


def cancellation_check(m, roots=None):
    """Max normalized residual of b^T[(I - i r A)^{-1} + (-1)^m (I + i r A)^{-1}] C
    over the theta=0 roots r of the m-stage Gauss method.

    The combination vanishes identically in exact arithmetic; the residual is
    normalized by |b^T (I - i r A)^{-1} C|.  Returns 0 when there are no
    nonzero roots (m = 2).  roots, when given, are theta0_roots(m) and are
    not solved again.
    """
    if m < 2:
        raise ValueError("cancellation_check needs m >= 2")
    tab = gauss_tableau(m)
    rpos = theta0_roots(m) if roots is None else roots
    if rpos.size == 0:
        return 0.0
    # The defect direction is the collocation interpolation-error integral
    # int_0^{c_i} prod_j (t - c_j) dt; with Gauss nodes the monic node
    # polynomial is a scaled shifted Legendre P_m(2t-1), whose antiderivative
    # is (P_{m+1} - P_{m-1})/(2(2m+1)).  The residual ratio is invariant
    # under scaling of C, and this form avoids the catastrophic cancellation
    # of the power-series formula A^{m+1} 1 - c^{m+1}/(m+1)! at large m.
    u = 2.0 * tab.c - 1.0
    C = (_legendre_p(m + 1, u) - _legendre_p(m - 1, u)).astype(complex)
    I = np.eye(m)
    sign = (-1.0) ** m
    worst = 0.0
    for r in rpos:
        x1 = np.linalg.solve(I - 1j * r * tab.A, C)
        x2 = np.linalg.solve(I + 1j * r * tab.A, C)
        num = abs(tab.b @ x1 + sign * (tab.b @ x2))
        den = abs(tab.b @ x1)
        worst = max(worst, num / den)
    return worst
