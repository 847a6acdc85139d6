"""Convolution quadrature weights and the discrete convolution.

Weights of an operator-valued transfer function K are the Taylor coefficients
of K(Delta(zeta)/h) at zeta = 0, recovered by a scaled FFT on the circle
|zeta| = lambda,

    W_j = lambda^{-j}/L * sum_l K(Delta(lambda e^{2 pi i l/L})/h) e^{-2 pi i l j/L},

with L a power of two >= 2(N+1). The radius lambda = eps**(1/(2L)) trades the
aliasing floor sqrt(eps) against roundoff amplified by lambda^{-N} <=
eps**(-N/(2L)); the default eps = 1e-24 keeps the aliasing floor at 1e-12
while the amplification stays <= 1e3, which measurement shows is required for
weight-level accuracy near 1e-9 (kernels with non-decaying weight tails sit
exactly on the aliasing floor).

Kernel shapes.  Every kernel is a set of scalar lanes with an operator
shape op: (1,) for a scalar kernel, (k,) for a diagonal kernel with
lanes = k (its eigenvalues in a fixed basis that diagonalizes it at every
s, such as the discrete Fourier modes of a rotation-invariant mesh), and
(n, n) for a dense kernel of dim n > 1; fn maps an ndarray of shape S to
S + op (to S for a scalar kernel).  Entry by entry, the weights of an
operator-valued kernel are the scalar weights of that entry, so one
routine serves all three on either contour (the upper half circle with
hfft for conjugate-symmetric kernels, the full circle with fft
otherwise).  The weights are (N+1, m, m), (N+1, m, m, k) (apply_cq then
works in the lane basis) or (N+1, m n, m n), with W[j, a n + c, b n + d]
stage block (a, b) of entry (c, d).
"""

import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tableaux import ButcherTableau, tableau_from_json, tableau_to_json

__all__ = [
    "TransferFunction",
    "CQWeightSet",
    "delta_matrix",
    "weights_shape",
    "compute_weights",
    "apply_cq",
    "sample_stage_signal",
    "scalar_reference_solution",
    "save_weights",
    "load_weights",
]


@dataclass
class TransferFunction:
    """Transfer function K(s), analytic and polynomially bounded for
    Re s >= sigma0.

    fn maps a complex ndarray of shape S elementwise to shape S (dim == 1),
    to S + (k,) with lanes = k set, one scalar kernel per lane of a diagonal
    operator, or to S + (n, n) for dim == n > 1 (see the module docstring).
    Kernels with K(conj s) = conj(K(s)) (every kernel with a real
    time-domain response) should keep conj_symmetric True: only the upper
    half of the FFT circle is evaluated and the weights come out real.
    Other kernels are evaluated on the full circle and get complex weights.
    """

    fn: callable
    dim: int = 1
    sigma0: float = 0.1
    key: str = None
    conj_symmetric: bool = True
    lanes: int = None

    def __call__(self, s):
        return self.fn(s)


@dataclass
class CQWeightSet:
    """Stage-block weights W_j and the recursion data needed to apply the
    discrete convolution.

    W is (N+1, m dim, m dim), or (N+1, m, m, lanes) for a diagonal kernel;
    key is the kernel's key.
    """

    h: float
    N: int
    tableau: ButcherTableau
    dim: int
    W: np.ndarray
    r_infinity: float
    eps: float
    key: str = None


def delta_matrix(tab, zeta):
    """Delta(zeta) = (zeta/(1-zeta) 1 b^T + A)^{-1} for |zeta| < 1.

    zeta may be an array; the result has shape np.shape(zeta) + (m, m).
    """
    z = np.asarray(zeta)[..., None, None]
    M = z / (1.0 - z) * np.outer(np.ones(tab.m), tab.b) + tab.A
    if not np.linalg.cond(M).max() <= 1e14:
        raise np.linalg.LinAlgError(
            "Delta(zeta) is numerically singular, |zeta| up to %g" % np.abs(zeta).max()
        )
    return np.linalg.inv(M)


def _fft_grid(N, eps):
    L = 1
    while L < 2 * (N + 1):
        L *= 2
    return L, eps ** (1.0 / (2 * L))


def _pool_map(fn, rows, threads):
    # evaluate fn on chunks of the contour nodes in worker processes; the
    # results come back in node order
    chunks = np.array_split(np.arange(len(rows)), threads * 4)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futs = [pool.submit(fn, rows[ix]) for ix in chunks]
        return [f.result() for f in futs]


def _contour_dft(F, L, lam, N):
    """Scaled DFT lambda^{-j}/L sum_l F_l e^{-2 pi i l j/L}, j = 0..N, along
    the first axis of F.

    F holds one slice per contour node: all L nodes (complex output), or the
    L/2+1 upper ones of a Hermitian-symmetric spectrum (real output).
    """
    # hfft(a) is the forward transform sum_l a_l e^{-2pi i l j / L} of the
    # Hermitian extension of a; conjugating the input would flip the sign
    # of the exponent and return coefficient L-j in place of j
    W = (np.fft.hfft(F, n=L, axis=0) if F.shape[0] < L else np.fft.fft(F, axis=0))[: N + 1]
    scale = lam ** -np.arange(N + 1) / L
    return W * scale.reshape((N + 1,) + (1,) * (F.ndim - 1))


# complex elements of one lane block: the einsum and DFT temporaries of a
# block stay small next to the kernel values and the weights
_BLOCK = 1 << 18


def weights_shape(K, tab, N):
    """Shape of the weight tensor compute_weights returns for K, tab, N."""
    m = tab.m
    if K.lanes is not None:
        return (N + 1, m, m, K.lanes)
    return (N + 1, m * K.dim, m * K.dim)


def compute_weights(K, tab, h, N, eps=1e-24, threads=1):
    """Convolution quadrature weights of K for tableau tab, step h, N steps.

    Returns a CQWeightSet with W of shape weights_shape(K, tab, N), real
    when the kernel is conjugate-symmetric (only the upper half of the FFT
    circle is evaluated) and complex otherwise (the full circle).  With
    threads > 1, matrix and diagonal kernels are evaluated on the contour
    nodes in that many worker processes (fn must be picklable).  Raises
    ValueError for eps outside (0, 1) and FloatingPointError when a weight
    comes out non-finite.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1), got %r" % eps)
    if h * K.sigma0 > 1.0:
        warnings.warn("h*sigma0 = %.3g > 1; step too coarse for this kernel" % (h * K.sigma0))
    m = tab.m
    n = K.dim
    L, lam = _fft_grid(N, eps)
    nodes = L // 2 + 1 if K.conj_symmetric else L

    w, E = np.linalg.eig(delta_matrix(tab, lam * np.exp(2j * np.pi * np.arange(nodes) / L)))
    if not np.linalg.cond(E).max() <= 1e10:
        raise np.linalg.LinAlgError(
            "eigenvector condition number exceeds 1e10 on the FFT circle; change eps"
        )
    Einv = np.linalg.inv(E)
    _identity_sanity(m, E, Einv, L, lam, N)
    s = w / h
    if s.real.min() < K.sigma0:
        warnings.warn(
            "FFT circle reaches Re s = %.3g below sigma0 = %.3g" % (s.real.min(), K.sigma0)
        )

    if K.lanes is not None:
        op = (K.lanes,)
    else:
        op = (1,) if n == 1 else (n, n)
    if threads > 1 and op != (1,):
        Kv = np.concatenate(_pool_map(K.fn, s, threads))
    else:
        # scalar kernels stay inline: their fns are often unpicklable lambdas
        Kv = K.fn(s)
    Kv = np.asarray(Kv, dtype=complex).reshape((nodes, m) + op)

    W = np.empty(weights_shape(K, tab, N), dtype=float if nodes < L else complex)
    if n > 1:
        # W[j, a n + c, b n + d] is stage block (a, b) of operator entry (c, d)
        Wv = W.reshape(N + 1, m, n, m, n).transpose(0, 1, 3, 2, 4)
    else:
        Wv = W.reshape((N + 1, m, m) + op)
    # K(Z/h) = E diag(K(w/h)) E^{-1} lane by lane, a block of the first
    # operator axis at a time
    step = max(1, _BLOCK // (nodes * m * m * int(np.prod(op[1:]))))
    for c in range(0, op[0], step):
        F = np.einsum("lai,li...,lib->lab...", E, Kv[:, :, c : c + step], Einv)
        blk = _contour_dft(F, L, lam, N)
        if not np.isfinite(blk).all():
            raise FloatingPointError("non-finite CQ weights: check the kernel values and eps")
        Wv[:, :, :, c : c + step] = blk
    return CQWeightSet(h, N, tab, n, W, tab.r_infinity, eps, K.key)


def _identity_sanity(m, E, Einv, L, lam, N):
    # the same DFT applied to K(s) = 1 must reproduce identity weights
    W1 = _contour_dft(np.einsum("lai,lib->lab", E, Einv), L, lam, N)
    if not (np.abs(W1[0] - np.eye(m)).max() <= 1e-9 and np.abs(W1[1:]).sum() <= 1e-9):
        raise RuntimeError("identity-kernel sanity check failed; FFT weight path is broken")


def apply_cq(wset, stage_samples):
    """Apply the discrete convolution to stage samples g(t_j + c h).

    stage_samples has shape (N+1, m) for scalar kernels, (N+1, m, n) for
    matrix kernels and (N+1, m, lanes) for diagonal kernels, in their lane
    basis. Returns grid values u_0..u_N, shape (N+1,), (N+1, n) or
    (N+1, lanes). u_n depends only on samples at steps <= n.
    """
    N, m = wset.N, wset.tableau.m
    g = np.asarray(stage_samples)
    scalar = g.ndim == 2
    if wset.W.ndim == 4:
        W, gh = wset.W, g
    else:
        # a scalar or matrix kernel is one lane of m dim stage unknowns
        W, gh = wset.W[..., None], g.reshape(N + 1, -1, 1)
    U = np.zeros(gh.shape, dtype=np.result_type(W, gh))
    for k in range(N + 1):
        U[k] = np.einsum("jabk,jbk->ak", W[: k + 1][::-1], gh[: k + 1])
    v = np.linalg.solve(wset.tableau.A.T, wset.tableau.b)
    vU = np.einsum("i,jio->jo", v, U.reshape(N + 1, m, -1))
    u = np.zeros(vU.shape, dtype=U.dtype)
    for k in range(1, N + 1):
        u[k] = wset.r_infinity * u[k - 1] + vU[k - 1]
    if np.isrealobj(wset.W) and np.isrealobj(g):
        u = u.real
    return u[:, 0] if scalar else u


def sample_stage_signal(g, h, N, c):
    """Stage samples g(t_n + c_i h) of a vectorized scalar signal, (N+1, m).

    Warns when g(0) is not numerically zero (the convolution assumes a
    causal signal vanishing at t = 0).
    """
    t = np.arange(N + 1) * h
    if np.max(np.abs(np.asarray(g(0.0)))) > 1e-12:
        warnings.warn("signal does not vanish at t=0; CQ error bounds degrade")
    return g(t[:, None] + c[None, :] * h)


def scalar_reference_solution(K, g, T, N_ref, tab, eps=1e-24):
    """Grid trace of K(d/dt)g computed at N_ref steps with tableau tab."""
    h = T / N_ref
    wset = compute_weights(K, tab, h, N_ref, eps=eps)
    return apply_cq(wset, sample_stage_signal(g, h, N_ref, tab.c))


def save_weights(wset, path):
    """Store a weight set as an .npz artifact at path.

    The file is written under a temporary name and moved into place, so a
    run killed mid-write leaves no truncated artifact at path.
    """
    meta = {
        "h": wset.h,
        "N": wset.N,
        "dim": wset.dim,
        "r_infinity": wset.r_infinity,
        "eps": wset.eps,
        "key": wset.key,
        "tableau": tableau_to_json(wset.tableau),
    }
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        np.savez(f, W=wset.W, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    os.replace(tmp, path)


def load_weights(path):
    """Read a weight set stored by save_weights; other arrays in the file
    are ignored."""
    with np.load(path) as d:
        meta = json.loads(d["meta"].tobytes().decode())
        W = d["W"]
    return CQWeightSet(
        meta["h"],
        meta["N"],
        tableau_from_json(meta["tableau"]),
        meta["dim"],
        W,
        meta["r_infinity"],
        meta["eps"],
        meta.get("key"),
    )
