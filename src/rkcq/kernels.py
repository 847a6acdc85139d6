"""Built-in scalar transfer functions and time-domain data."""

import numpy as np

from .engine import TransferFunction

__all__ = [
    "eval_kmu",
    "kmu_transfer",
    "power_transfer",
    "eval_datum",
    "snake_name",
    "sin_pow_exp",
    "monomial_bump",
    "traveling_gaussian",
    "DATA",
]

SQRT2 = np.sqrt(2.0)


def eval_kmu(s, mu):
    """K_mu(s) = s^mu / (1 - e^{-s}), principal branch, Re s > 0.

    Raises ValueError for Re s <= 0 and for NaN in either part of s.
    """
    s = np.asarray(s, dtype=complex)
    if not (s.real > 0).all() or np.isnan(s.imag).any():
        raise ValueError("K_mu requires Re s > 0 and no NaN")
    return s ** mu / (1.0 - np.exp(-s))


def kmu_transfer(mu, sigma0=0.1):
    """TransferFunction wrapper for K_mu."""
    return TransferFunction(fn=lambda s: eval_kmu(s, mu), dim=1, sigma0=sigma0, key="kmu_%r" % mu)


def power_transfer(mu, sigma0=0.1):
    """Pure power s^mu (principal branch); the composition-rule test kernel."""
    return TransferFunction(
        fn=lambda s: np.asarray(s, dtype=complex) ** mu, dim=1, sigma0=sigma0, key="power_%r" % mu
    )


def sin_pow_exp(t):
    """g(t) = e^{-0.4 t} sin^6(t); vanishes to fifth order at t = 0."""
    t = np.asarray(t)
    return np.exp(-0.4 * t) * np.sin(t) ** 6


def monomial_bump(x, t):
    """g(x, t) = (1 + sin^2(x_2)) t^15 on boundary points x, shape (n, 2)."""
    x = np.atleast_2d(x)
    return (1.0 + np.sin(x[:, 1]) ** 2) * np.asarray(t) ** 15


def traveling_gaussian(x, t, rho=0.375, alpha=(-1.0 / SQRT2, -1.0 / SQRT2), shift=-4.0):
    """Plane traveling Gaussian pulse e^{-((t - x.alpha + shift)/rho)^2}.

    With the default parameters the pulse is 1.6e-28 or smaller on the
    unit circle at t = 0 and 8.6e-33 or smaller on the L-shape, a
    numerically causal start.
    """
    x = np.atleast_2d(x)
    a = np.asarray(alpha)
    arg = (np.asarray(t) - x @ a + shift) / rho
    return np.exp(-(arg ** 2))


DATA = {
    "sin_pow_exp": lambda x, t: sin_pow_exp(t),
    "monomial_bump": monomial_bump,
    "traveling_gaussian": traveling_gaussian,
}

_SPATIAL = {"monomial_bump", "traveling_gaussian"}


def snake_name(name):
    """snake_case form of a CamelCase or snake_case name (data, tableau
    families, geometries, operators)."""
    return "".join("_" + ch.lower() if ch.isupper() else ch for ch in str(name)).lstrip("_")


def eval_datum(kind, x, t):
    """Evaluate a named datum; kind accepts snake_case or CamelCase names.

    x is None for purely temporal data and an (n, 2) array of boundary
    points otherwise.
    """
    name = snake_name(kind)
    if name not in DATA:
        raise KeyError("unknown datum %r; choose from %s" % (kind, sorted(DATA)))
    if name in _SPATIAL and x is None:
        raise ValueError("datum %r needs boundary points" % kind)
    return DATA[name](x, t)
