"""Property tests of the scalar route of the engine, on K(s) = s^mu.

The route is exercised with random exponents mu in [-2, 2], random Gauss
and Radau IIA tableaux, grids and step sizes, and random causal data (a
stage-sample sequence that starts at step 0).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rkcq.engine import apply_cq, compute_weights
from rkcq.kernels import power_transfer
from rkcq.tableaux import gauss_tableau, radau_iia_tableau

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def cases(draw):
    mu = draw(st.floats(-2.0, 2.0))
    family = draw(st.sampled_from([gauss_tableau, radau_iia_tableau]))
    tab = family(draw(st.integers(1, 3)))
    N = draw(st.integers(2, 16))
    h = draw(st.floats(0.05, 0.5))
    seed = draw(st.integers(0, 2**31 - 1))
    g = np.random.default_rng(seed).standard_normal((N + 1, tab.m))
    return mu, tab, N, h, g


def _weights(mu, tab, h, N):
    return compute_weights(power_transfer(mu), tab, h, N)


@PROPERTY
@given(cases(), st.data())
def test_scalar_apply_is_exactly_causal(case, data):
    mu, tab, N, h, g = case
    ws = _weights(mu, tab, h, N)
    k = data.draw(st.integers(1, N))
    g2 = g.copy()
    g2[k:] += data.draw(st.floats(-10.0, 10.0).filter(lambda x: abs(x) > 0.1))
    u0, u1 = apply_cq(ws, g), apply_cq(ws, g2)
    assert np.array_equal(u0[:k], u1[:k])


@PROPERTY
@given(cases(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(0, 2**31 - 1))
def test_scalar_apply_is_linear(case, a, b, seed):
    mu, tab, N, h, g = case
    ws = _weights(mu, tab, h, N)
    g2 = np.random.default_rng(seed).standard_normal(g.shape)
    lhs = apply_cq(ws, a * g + b * g2)
    rhs = a * apply_cq(ws, g) + b * apply_cq(ws, g2)
    # both sides round differently; the grid values are sums of at most
    # (N+1) m products of weight and sample, propagated by |R(inf)| <= 1
    # over N steps (the largest difference over 400 random cases was
    # 8e-17 of this scale)
    scale = (N + 1) ** 2 * tab.m * np.abs(ws.W).max() * (abs(a) * np.abs(g).max()
                                                         + abs(b) * np.abs(g2).max())
    assert np.abs(lhs - rhs).max() <= 1e-15 * scale


@PROPERTY
@given(cases(), st.floats(-2.0, 2.0))
def test_weights_of_a_product_are_the_convolution_of_weights(case, mu2):
    # Lubich's operational calculus: K1(Delta/h) K2(Delta/h) = (K1 K2)(Delta/h),
    # so W(K1 K2)_j = sum_k W(K1)_{j-k} W(K2)_k
    mu, tab, N, h, _ = case
    W1 = _weights(mu, tab, h, N).W
    W2 = _weights(mu2, tab, h, N).W
    W12 = _weights(mu + mu2, tab, h, N).W
    conv = np.zeros_like(W12)
    for j in range(N + 1):
        for k in range(j + 1):
            conv[j] += W1[j - k] @ W2[k]
    # the largest relative difference over 600 random cases was 1.6e-11,
    # from roundoff amplified by the contour (lambda^{-N} up to 4e5 here)
    scale = (N + 1) * np.abs(W1).max() * np.abs(W2).max()
    assert np.abs(conv - W12).max() <= 1e-9 * scale


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(cases())
def test_scalar_route_is_deterministic(case):
    mu, tab, N, h, g = case
    w1, w2 = _weights(mu, tab, h, N), _weights(mu, tab, h, N)
    assert np.array_equal(w1.W, w2.W)
    assert np.array_equal(apply_cq(w1, g), apply_cq(w2, g))
