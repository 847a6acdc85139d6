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

Kernel shapes.  A scalar kernel (dim 1) is evaluated elementwise on every
contour node at once; its weights are (N+1, m, m) blocks.  A diagonal
kernel carries a trailing lane axis: it declares lanes = k, and fn maps a
complex ndarray of shape S to shape S + (k,), the operator's eigenvalues
in a fixed basis that diagonalizes it at every s (for a rotation-invariant
boundary mesh, the discrete Fourier modes).  Each lane is an independent
scalar kernel, so the same vectorized path computes weights of shape
(N+1, m, m, k), and apply_cq takes stage samples and returns traces in the
lane basis; a scalar kernel is the one-lane case.  A dense kernel
(dim n > 1) maps one s to an (n, n) matrix and has (N+1, m n, m n)
weights.  All three, on either contour (the upper half circle with hfft
for conjugate-symmetric kernels, the full circle with fft otherwise), go
through one routine with the same checks: cond(Delta), the eigenvector
condition number, the sigma0 warning and the identity-kernel sanity check.
"""

import functools
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

    For dim == 1, fn maps a complex ndarray to an ndarray elementwise; with
    lanes = k set, it maps shape S to S + (k,), one scalar kernel per lane
    of a diagonal operator (see the module docstring). For dim == n > 1, fn
    maps a single complex s to an (n, n) matrix. Kernels with
    K(conj s) = conj(K(s)) (every kernel with a real time-domain response)
    should keep conj_symmetric True: only the upper half of the FFT circle is
    evaluated and the weights come out real. Other kernels are evaluated on
    the full circle and get complex weights.
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
    """Delta(zeta) = (zeta/(1-zeta) 1 b^T + A)^{-1} for |zeta| < 1."""
    m = tab.m
    M = zeta / (1.0 - zeta) * np.outer(np.ones(m), tab.b) + tab.A
    if np.linalg.cond(M) > 1e14:
        raise np.linalg.LinAlgError("Delta(zeta) is numerically singular at zeta=%r" % zeta)
    return np.linalg.inv(M)


def _fft_grid(N, eps):
    L = 1
    while L < 2 * (N + 1):
        L *= 2
    return L, eps ** (1.0 / (2 * L))


def _node_stacks(fn, rows):
    # the (m, n, n) kernel stack of each contour node; also the worker of
    # the process pool for dense kernels
    return [np.stack([np.asarray(fn(si), dtype=complex) for si in row]) for row in rows]


def _pool_map(fn, rows, threads):
    # evaluate fn on chunks of the contour nodes in worker processes; the
    # results come back in node order
    chunks = np.array_split(np.arange(len(rows)), threads * 4)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futs = [pool.submit(fn, rows[ix]) for ix in chunks]
        return [f.result() for f in futs]


def _contour_dft(F, L, lam, N, chunk=1 << 22):
    """Scaled DFT lambda^{-j}/L sum_l F_l e^{-2 pi i l j/L}, j = 0..N.

    F holds one row per contour node: all L nodes (complex output), or the
    L/2+1 upper ones of a Hermitian-symmetric spectrum (real output).
    Column-chunked to bound peak memory.
    """
    nodes, nc = F.shape
    half = nodes < L
    W = np.empty((N + 1, nc), dtype=float if half else complex)
    step = max(1, chunk // max(L, 1))
    for c0 in range(0, nc, step):
        # hfft(a) is the forward transform sum_l a_l e^{-2pi i l j / L} of the
        # Hermitian extension of a; conjugating the input would flip the sign
        # of the exponent and return coefficient L-j in place of j
        blk = F[:, c0 : c0 + step]
        W[:, c0 : c0 + step] = (np.fft.hfft(blk, n=L, axis=0) if half
                                else np.fft.fft(blk, axis=0))[: N + 1]
    W *= (lam ** -np.arange(N + 1))[:, None] / L
    return W


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
    nodes in that many worker processes (fn must be picklable).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if h * K.sigma0 > 1.0:
        warnings.warn("h*sigma0 = %.3g > 1; step too coarse for this kernel" % (h * K.sigma0))
    m = tab.m
    n = K.dim
    L, lam = _fft_grid(N, eps)
    nodes = L // 2 + 1 if K.conj_symmetric else L

    zetas = lam * np.exp(2j * np.pi * np.arange(nodes) / L)
    Ms = zetas[:, None, None] / (1.0 - zetas[:, None, None]) * np.outer(np.ones(m), tab.b)[None] + tab.A[None]
    if np.linalg.cond(Ms).max() > 1e14:
        raise np.linalg.LinAlgError("Delta(zeta) singular on the FFT circle")
    Ds = np.linalg.inv(Ms)
    w, E = np.linalg.eig(Ds)
    if np.linalg.cond(E).max() > 1e10:
        raise np.linalg.LinAlgError(
            "eigenvector condition number exceeds 1e10 on the FFT circle; change eps"
        )
    Einv = np.linalg.inv(E)
    s = w / h
    if s.real.min() < K.sigma0:
        warnings.warn(
            "FFT circle reaches Re s = %.3g below sigma0 = %.3g" % (s.real.min(), K.sigma0)
        )

    if n == 1:
        # scalar and diagonal kernels: every lane is a scalar kernel, and
        # K(Z/h) = E diag(K(w/h)) E^{-1} lane by lane
        lanes = 1 if K.lanes is None else K.lanes
        if threads > 1 and K.lanes is not None:
            Kv = np.concatenate(_pool_map(K.fn, s, threads))
        else:
            Kv = np.asarray(K.fn(s), dtype=complex)
        F = np.einsum("lai,lik,lib->labk", E, Kv.reshape(nodes, m, lanes), Einv)
    else:
        # dense kernels: K(Z/h) = sum_i E[:, i] Einv[i, :] (x) K(w_i/h), one
        # node at a time, so the serial path never holds more than one stack
        if threads > 1:
            parts = _pool_map(functools.partial(_node_stacks, K.fn), s, threads)
        else:
            parts = (_node_stacks(K.fn, s[l : l + 1]) for l in range(nodes))
        F = np.empty((nodes, m * n, m * n), dtype=complex)
        for l, Kst in enumerate(st for part in parts for st in part):
            F[l] = np.einsum("ai,ib,icd->acbd", E[l], Einv[l], Kst).reshape(m * n, m * n)

    W = _contour_dft(F.reshape(nodes, -1), L, lam, N).reshape(weights_shape(K, tab, N))
    _identity_sanity(m, E, Einv, L, lam, N)
    return CQWeightSet(h, N, tab, n, W, tab.r_infinity, eps, K.key)


def _identity_sanity(m, E, Einv, L, lam, N):
    # the same DFT applied to K(s) = 1 must reproduce identity weights
    W1 = _contour_dft(np.einsum("lai,lib->lab", E, Einv).reshape(E.shape[0], -1), L, lam, N)
    W1 = W1.reshape(N + 1, m, m)
    if np.abs(W1[0] - np.eye(m)).max() > 1e-9 or np.abs(W1[1:]).sum() > 1e-9:
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
