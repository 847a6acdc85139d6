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
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_legendre

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
    "beta_coefficient",
    "beta_from_residue",
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
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for p in self.coeffs[::-1]:
            out = out * z + p
        return out if out.ndim else complex(out)

    def eval_deriv(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        k = len(self.coeffs) - 1
        for p in self.coeffs[:0:-1]:
            out = out * z + k * p
            k -= 1
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


def _polished_roots(q):
    """Roots of the polynomial with ascending coefficients q: the companion
    matrix eigenvalues (np.roots) plus one Newton step."""
    roots = np.roots(q[::-1]).astype(complex)
    dq = q[1:] * np.arange(1, len(q))
    num = np.polyval(q[::-1], roots)
    den = np.polyval(dq[::-1], roots)
    ok = np.abs(den) > 0
    roots[ok] = roots[ok] - num[ok] / den[ok]
    return roots


def solve_R_equals(m, w):
    """All finite solutions of R_m(z) = w, i.e. roots of P_m(z) - w P_m(-z).

    Returns (roots, degenerate).  The polynomial has coefficients
    q_k = p_k (1 - w(-1)^k); the leading one vanishes when w = 1 with m even
    or w = -1 with m odd, in which case the degree drops by one, m-1 roots
    are returned and degenerate is True.  Roots come from the companion
    matrix of the normalized polynomial plus one Newton step.
    """
    w = complex(w)
    if w == 0:
        raise ValueError("w must be nonzero")
    pol = pade_coeffs(m)
    signs = np.where(np.arange(m + 1) % 2 == 0, 1.0, -1.0)
    q = pol.coeffs * (1.0 - w * signs)
    # test the factor 1 - w(-1)^m itself: p_m = 1 while p_0 = (2m)!/m! is
    # huge, so q_m measured against max|q| would flag many angles for m >= 11
    degenerate = bool(abs(1.0 - w * signs[m]) < 1e-14)
    qq = q[:m] if degenerate else q
    if len(qq) < 2:
        return np.zeros(0, dtype=complex), degenerate
    return _polished_roots(qq), degenerate


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
    pol = pade_coeffs(m)
    signs = (-1.0) ** np.arange(m + 1)
    q = pol.coeffs * (1.0 - w * signs)
    if q[m] == 0.0:
        raise ValueError("no escaping root: leading coefficient vanished")
    dq = q[1:] * np.arange(1, m + 1)
    z = -q[m - 1] / q[m]
    for _ in range(8):
        num = np.polyval(q[::-1], z)
        den = np.polyval(dq[::-1], z)
        step = num / den
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
    vals = [t * _escape_root(m, wsign * np.exp(t)) for t in (t1, t2)]
    v1, v2 = vals
    return (t1 * v2 - t2 * v1) / (t1 - t2)


def _theta0_positive_roots(m):
    """Positive imaginary parts r of the nonzero roots of R_m(z) = 1, sorted."""
    roots, _ = solve_R_equals(m, 1.0)
    y = roots.imag[np.abs(roots) > 1e-7]
    return np.sort(y[y > 0])


def characterize_theta0(m):
    """Positive imaginary roots r_l at theta=0, their slopes delta_l, and
    for even m the escape constant D with t*z_max(t,0) -> D.

    D is primarily the numerical limit; the closed product p_0 / prod r_l^2
    is carried alongside with their relative discrepancy.
    """
    if m < 2:
        raise ValueError("characterize_theta0 needs m >= 2")
    r = _theta0_positive_roots(m)
    delta = beta_coefficient(m, r)
    if m % 2 == 0:
        D = _escape_constant(m, 1.0)
        D_product = pade_coeffs(m).exact[0] / float(np.prod(r ** 2)) if r.size else float(
            pade_coeffs(m).exact[0]
        )
        disc = abs(D - D_product) / abs(D_product)
    else:
        D = D_product = disc = float("nan")
    return Theta0Characterization(m=m, r=r, delta=delta, D=D, D_product=D_product, D_discrepancy=disc)


def characterize_theta_pi(m):
    """Positive imaginary roots rho_l at theta=pi, their slopes gamma_l, and
    for odd m the escape constant E with t*z_max(t,pi) -> E.

    E is primarily the numerical limit; the closed product 2 p_0 / prod rho_l^2
    is carried alongside with their relative discrepancy.
    """
    if m < 1:
        raise ValueError("characterize_theta_pi needs m >= 1")
    roots, _ = solve_R_equals(m, -1.0)
    rho = np.sort(roots.imag[roots.imag > 0])
    gamma = beta_coefficient(m, rho)
    if m % 2 == 1:
        E = _escape_constant(m, -1.0)
        p0 = pade_coeffs(m).exact[0]
        E_product = 2.0 * p0 / float(np.prod(rho ** 2)) if rho.size else 2.0 * p0
        disc = abs(E - E_product) / abs(E_product)
    else:
        E = E_product = disc = float("nan")
    return ThetaPiCharacterization(
        m=m, rho=rho, gamma=gamma, E=E, E_product=E_product, E_discrepancy=disc
    )


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


def cancellation_check(m):
    """Max normalized residual of b^T[(I - i r A)^{-1} + (-1)^m (I + i r A)^{-1}] C
    over the theta=0 roots r of the m-stage Gauss method.

    The combination vanishes identically in exact arithmetic; the residual is
    normalized by |b^T (I - i r A)^{-1} C|.  Returns 0 when there are no
    nonzero roots (m = 2).
    """
    if m < 2:
        raise ValueError("cancellation_check needs m >= 2")
    tab = gauss_tableau(m)
    rpos = _theta0_positive_roots(m)
    if rpos.size == 0:
        return 0.0
    # The defect direction is the collocation interpolation-error integral
    # int_0^{c_i} prod_j (t - c_j) dt; with Gauss nodes the monic node
    # polynomial is a scaled shifted Legendre P_m(2t-1), whose antiderivative
    # is (P_{m+1} - P_{m-1})/(2(2m+1)).  The residual ratio is invariant
    # under scaling of C, and this form avoids the catastrophic cancellation
    # of the power-series formula A^{m+1} 1 - c^{m+1}/(m+1)! at large m.
    u = 2.0 * tab.c - 1.0
    C = (eval_legendre(m + 1, u) - eval_legendre(m - 1, u)).astype(complex)
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
