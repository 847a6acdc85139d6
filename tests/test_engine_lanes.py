"""Property tests of the diagonal-kernel (lane) route of the engine.

The kernels are random symmetric circulant operators with first row
c_d(s) = s^mu e^{-s r_d}, r_d = r_{n-d}: the dense route sees the n x n
circulant matrix, the lane route its eigenvalues on the real-FFT lanes.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkcq.engine import TransferFunction, _fft_grid, apply_cq, compute_weights, weights_shape
from rkcq.tableaux import gauss_tableau, radau_iia_tableau

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _row(s, mu, r):
    s = np.asarray(s, dtype=complex)[..., None]
    return s ** mu * np.exp(-s * r)


def _lane_symbol(s, mu, r):
    return np.fft.fft(_row(s, mu, r), axis=-1)[..., : r.size // 2 + 1]


def _circulant_matrix(s, mu, r):
    n = r.size
    return _row(s, mu, r)[..., (np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def _circulant_entry(s, mu, r, c, d):
    return _circulant_matrix(s, mu, r)[..., c, d]


@st.composite
def cases(draw):
    n = draw(st.integers(3, 8))
    half = draw(st.lists(st.floats(0.0, 2.0), min_size=n // 2, max_size=n // 2))
    r = np.zeros(n)
    for d, rd in enumerate(half, 1):
        r[d] = r[n - d] = rd
    mu = draw(st.floats(-1.0, 2.0))
    family = draw(st.sampled_from([gauss_tableau, radau_iia_tableau]))
    tab = family(draw(st.integers(1, 3)))
    N = draw(st.integers(2, 12))
    h = draw(st.floats(0.05, 0.5))
    seed = draw(st.integers(0, 2**31 - 1))
    g = np.random.default_rng(seed).standard_normal((N + 1, tab.m, n))
    return n, r, mu, tab, N, h, g


def _kernels(n, r, mu):
    lane = TransferFunction(fn=functools.partial(_lane_symbol, mu=mu, r=r), dim=1,
                            key="lanes", lanes=n // 2 + 1)
    dense = TransferFunction(fn=functools.partial(_circulant_matrix, mu=mu, r=r), dim=n)
    return lane, dense


def _lane_traces(wset, g):
    return np.fft.irfft(apply_cq(wset, np.fft.rfft(g, axis=-1)), n=g.shape[-1], axis=-1)


@PROPERTY
@given(cases())
def test_lane_route_equals_dense_route(case):
    n, r, mu, tab, N, h, g = case
    lane, dense = _kernels(n, r, mu)
    wl = compute_weights(lane, tab, h, N)
    wd = compute_weights(dense, tab, h, N)
    assert wl.W.shape == weights_shape(lane, tab, N) == (N + 1, tab.m, tab.m, n // 2 + 1)
    assert wl.W.dtype == np.float64 and wl.key == "lanes"
    ud = apply_cq(wd, g)
    ul = _lane_traces(wl, g)
    assert ul.shape == ud.shape == (N + 1, n)
    # the routes round differently, and the contour amplifies roundoff by
    # lambda^{-N} (up to 1.8e5 here)
    floor = np.finfo(float).eps * _fft_grid(N, 1e-24)[1] ** -N
    assert np.linalg.norm(ul - ud) <= floor * np.linalg.norm(ud)


@PROPERTY
@given(cases(), st.data())
def test_dense_weights_are_entrywise_scalar_weights(case, data):
    n, r, mu, tab, N, h, _ = case
    c, d = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    W = compute_weights(_kernels(n, r, mu)[1], tab, h, N).W
    entry = TransferFunction(fn=functools.partial(_circulant_entry, mu=mu, r=r, c=c, d=d))
    assert np.array_equal(W[:, c::n, d::n], compute_weights(entry, tab, h, N).W)


@PROPERTY
@given(cases(), st.data())
def test_lane_apply_is_exactly_causal(case, data):
    n, r, mu, tab, N, h, g = case
    wl = compute_weights(_kernels(n, r, mu)[0], tab, h, N)
    k = data.draw(st.integers(1, N))
    gh = np.fft.rfft(g, axis=-1)
    u0 = apply_cq(wl, gh)
    gh2 = gh.copy()
    gh2[k:] += 3.0 - 2.0j
    u1 = apply_cq(wl, gh2)
    assert np.array_equal(u0[:k], u1[:k])


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(cases())
def test_full_circle_lane_weights_equal_half_circle(case):
    n, r, mu, tab, N, h, _ = case
    lane = _kernels(n, r, mu)[0]
    full = dataclasses.replace(lane, conj_symmetric=False)
    Wh = compute_weights(lane, tab, h, N).W
    Wf = compute_weights(full, tab, h, N).W
    assert np.iscomplexobj(Wf) and Wf.shape == Wh.shape
    # both contours carry roundoff amplified by lambda^{-N} = eps^{-N/(2L)}
    # (up to 3e4 here); the largest difference seen over 300 random cases
    # was 4.9e-16 lambda^{-N} max|W|
    L = 2 ** int(np.ceil(np.log2(2 * (N + 1))))
    amplification = 1e-24 ** (-N / (2 * L))
    assert np.abs(Wf - Wh).max() <= 1e-14 * amplification * np.abs(Wh).max()
