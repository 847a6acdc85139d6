"""Butcher tableaux for Gauss and Radau IIA collocation methods.

Tableaux are constructed numerically from the collocation order conditions:
nodes c from the relevant orthogonal polynomial, weights b from interpolatory
quadrature, and A row-wise from the simplifying condition C(m),

    sum_j a_ij c_j^{k-1} = c_i^k / k,  k = 1..m.

Known closed forms (m <= 3) serve as regression fixtures in the test suite.
"""

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ButcherTableau",
    "gauss_tableau",
    "radau_iia_tableau",
    "stability_eval",
    "verify_invertibility_and_simplicity",
    "verify_eigenvector_nondegeneracy",
    "tableau_to_json",
    "tableau_from_json",
]


@dataclass(frozen=True)
class ButcherTableau:
    """Implicit Runge-Kutta tableau with classical order p and stage order q."""

    family: str
    m: int
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: int
    q: int

    @property
    def r_infinity(self):
        """Limit of the stability function, 1 - b^T A^{-1} 1.

        Exactly (-1)^m for Gauss and 0 for Radau IIA; the exact value is
        returned so that downstream geometric recursions stay bit-stable.
        """
        if self.family == "gauss":
            return float((-1) ** self.m)
        if self.family == "radau_iia":
            return 0.0
        return float(1.0 - self.b @ np.linalg.solve(self.A, np.ones(self.m)))


def _legendre(n, x):
    """Legendre P_n(x) and P_n'(x) on [-1, 1] by the three-term recurrence.

    The derivative formula n(x P_n - P_{n-1})/(x^2 - 1) requires |x| != 1;
    callers only evaluate at interior points.
    """
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x), np.zeros_like(x)
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (x * p1 - p0) / (x * x - 1)
    return p1, dp


def _gauss_nodes(m):
    # Newton from the Chebyshev initial guesses; roots are interior so the
    # derivative formula is safe
    x = np.cos(np.pi * (4 * np.arange(1, m + 1) - 1) / (4 * m + 2))
    for _ in range(100):
        p, dp = _legendre(m, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError("Legendre node iteration did not converge for m=%d" % m)
    return np.sort(x)


def _radau_nodes(m):
    # roots of P_m - P_{m-1} on [-1, 1]; x = 1 is always a root
    if m == 1:
        return np.array([1.0])
    coeffs = np.zeros(m + 1)
    coeffs[m - 1] = -1.0
    coeffs[m] = 1.0
    x = np.polynomial.legendre.legroots(coeffs)
    x = np.sort(np.real(x))
    xi = x[:-1]  # polish interior roots only, keep the endpoint exact
    for _ in range(100):
        pm1, dpm1 = _legendre(m - 1, xi)
        pm, dpm = _legendre(m, xi)
        dx = (pm - pm1) / (dpm - dpm1)
        xi = xi - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError("Radau node iteration did not converge for m=%d" % m)
    return np.concatenate([xi, [1.0]])


def _lagrange_values(c, x):
    # ell_j(x) for the Lagrange basis at nodes c, shape (len(x), len(c));
    # direct product form, stable where a Vandermonde solve is not
    c = np.asarray(c)
    x = np.asarray(x)
    m = len(c)
    diff = x[:, None] - c[None, :]
    L = np.empty((len(x), m))
    idx = np.arange(m)
    for j in range(m):
        mask = idx != j
        L[:, j] = np.prod(diff[:, mask], axis=1) / np.prod(c[j] - c[mask])
    return L


def _collocation_A(c):
    # C(m) condition written as A_ij = int_0^{c_i} ell_j(t) dt; an m-point
    # Gauss rule on each [0, c_i] is exact for the degree m-1 integrand
    m = len(c)
    xg, wg = np.polynomial.legendre.leggauss(m)
    A = np.empty((m, m))
    for i in range(m):
        x = 0.5 * c[i] * (xg + 1.0)
        w = 0.5 * c[i] * wg
        A[i] = w @ _lagrange_values(c, x)
    return A


def gauss_tableau(m):
    """m-stage Gauss collocation tableau: classical order 2m, stage order m."""
    if not 1 <= m <= _MAX_STAGES[gauss_tableau]:
        raise ValueError("stage count m must be in 1..%d" % _MAX_STAGES[gauss_tableau])
    x = _gauss_nodes(m)
    c = (x + 1.0) / 2.0
    _, dp = _legendre(m, x)
    b = 1.0 / ((1.0 - x * x) * dp * dp)
    return ButcherTableau("gauss", m, _collocation_A(c), b, c, 2 * m, m)


def radau_iia_tableau(m):
    """m-stage Radau IIA tableau: classical order 2m-1, stage order m, c_m = 1."""
    if not 1 <= m <= _MAX_STAGES[radau_iia_tableau]:
        raise ValueError("stage count m must be in 1..%d" % _MAX_STAGES[radau_iia_tableau])
    x = _radau_nodes(m)
    c = (x + 1.0) / 2.0
    c[-1] = 1.0
    xg, wg = np.polynomial.legendre.leggauss(m)
    b = (0.5 * wg) @ _lagrange_values(c, 0.5 * (xg + 1.0))
    return ButcherTableau("radau_iia", m, _collocation_A(c), b, c, 2 * m - 1, m)


# the largest stage count of each family's tableau
_MAX_STAGES = {gauss_tableau: 12, radau_iia_tableau: 8}


def stability_eval(tab, z):
    """Stability function R(z) = 1 + z b^T (I - zA)^{-1} 1.

    Raises numpy.linalg.LinAlgError when 1/z is an eigenvalue of A.
    """
    m = tab.m
    x = np.linalg.solve(np.eye(m) - z * tab.A, np.ones(m))
    return 1.0 + z * (tab.b @ x)


def verify_invertibility_and_simplicity(tab):
    """Report invertibility of A and simplicity of its spectrum.

    Both checks are scale-aware: invertibility through the condition
    number (det A underflows like m^{-m} at large m while A stays
    perfectly conditioned) and the minimal pairwise eigenvalue distance
    relative to the spectral radius.
    """
    w = np.linalg.eigvals(tab.A)
    if tab.m == 1:
        gap = np.inf
    else:
        diff = np.abs(w[:, None] - w[None, :])
        gap = float(np.min(diff[~np.eye(tab.m, dtype=bool)]) / np.max(np.abs(w)))
    cond = float(np.linalg.cond(tab.A))
    return {
        "invertible": cond < 1e10,
        "condition_number": cond,
        "min_relative_eigen_gap": gap,
        "passed": cond < 1e10 and gap > 1e-8,
    }


def verify_eigenvector_nondegeneracy(tab):
    """Report min |b^T x| over unit eigenvectors x of A and min |1^T y| over
    unit eigenvectors y of A^T (scaled by sqrt(m)); passes when both > 1e-8."""
    _, X = np.linalg.eig(tab.A)
    bx = np.abs(tab.b @ X) / (np.linalg.norm(tab.b) * np.linalg.norm(X, axis=0))
    _, Y = np.linalg.eig(tab.A.T)
    oy = np.abs(np.ones(tab.m) @ Y) / (np.sqrt(tab.m) * np.linalg.norm(Y, axis=0))
    r = {"min_b_eigvec": float(bx.min()), "min_one_eigvec": float(oy.min())}
    r["passed"] = r["min_b_eigvec"] > 1e-8 and r["min_one_eigvec"] > 1e-8
    return r


def tableau_to_json(tab):
    """Serialize to JSON with full double precision."""
    return json.dumps(
        {
            "family": tab.family,
            "m": tab.m,
            "A": tab.A.flatten().tolist(),
            "b": tab.b.tolist(),
            "c": tab.c.tolist(),
            "p": tab.p,
            "q": tab.q,
        }
    )


def tableau_from_json(s):
    d = json.loads(s)
    m = d["m"]
    return ButcherTableau(
        d["family"],
        m,
        np.array(d["A"]).reshape(m, m),
        np.array(d["b"]),
        np.array(d["c"]),
        d["p"],
        d["q"],
    )
