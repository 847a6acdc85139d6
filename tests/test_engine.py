"""Weight computation and discrete convolution."""

import dataclasses

import numpy as np
import pytest

from rkcq import engine
from rkcq.engine import (
    CQWeightSet,
    TransferFunction,
    apply_cq,
    compute_weights,
    delta_matrix,
    load_weights,
    sample_stage_signal,
    save_weights,
    scalar_reference_solution,
)
from rkcq.kernels import eval_kmu, kmu_transfer, power_transfer, sin_pow_exp
from rkcq.tableaux import gauss_tableau, radau_iia_tableau, tableau_from_json, tableau_to_json


def identity_kernel():
    return TransferFunction(fn=lambda s: np.ones_like(np.asarray(s, dtype=complex)), dim=1)


def _triangular_matrix_kernel(s):
    s = np.asarray(s, dtype=complex)
    K = np.zeros(s.shape + (2, 2), dtype=complex)
    K[..., 0, 0], K[..., 0, 1], K[..., 1, 1] = 1.0 / s, 0.5, s
    return K


def test_delta_matrix_inverse_relation():
    tab = gauss_tableau(3)
    zeta = 0.3 + 0.2j
    D = delta_matrix(tab, zeta)
    M = zeta / (1.0 - zeta) * np.outer(np.ones(3), tab.b) + tab.A
    assert np.abs(D @ M - np.eye(3)).max() < 1e-13
    # an array of zeta gives one Delta per element, equal to the scalar call
    zetas = np.array([[zeta, -0.5], [0.1j, 0.0]])
    Ds = delta_matrix(tab, zetas)
    assert Ds.shape == (2, 2, 3, 3)
    for idx in np.ndindex(zetas.shape):
        assert np.abs(Ds[idx] - delta_matrix(tab, zetas[idx])).max() < 1e-15


def test_delta_matrix_rejects_singular_argument():
    # at zeta = 1 the rank-one part blows up, alone or inside an array
    tab = gauss_tableau(2)
    for zeta in (1.0, np.array([0.5, 1.0, 0.3j])):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                delta_matrix(tab, zeta)


def test_identity_kernel_weights():
    tab = gauss_tableau(3)
    ws = compute_weights(identity_kernel(), tab, 0.05, 32)
    assert np.abs(ws.W[0] - np.eye(3)).max() < 1e-10
    assert np.abs(ws.W[1:]).sum() < 1e-9


def test_integrator_weights_closed_form():
    # K(s) = 1/s has K(Delta(zeta)/h) = h A + h 1 b^T (zeta + zeta^2 + ...),
    # so W_0 = h A and every later block equals h 1 b^T
    tab = gauss_tableau(3)
    h, N = 3.0 / 64, 64
    ws = compute_weights(power_transfer(-1.0), tab, h, N)
    assert np.abs(ws.W[0] - h * tab.A).max() < 1e-12
    ones_bt = h * np.outer(np.ones(3), tab.b)
    for j in range(1, N + 1):
        assert np.abs(ws.W[j] - ones_bt).max() < 1e-12


def test_integrator_applied_to_cubic():
    tab = gauss_tableau(3)
    h, N = 3.0 / 64, 64
    ws = compute_weights(power_transfer(-1.0), tab, h, N)
    u = apply_cq(ws, sample_stage_signal(lambda t: np.asarray(t) ** 3, h, N, tab.c))
    t = np.arange(N + 1) * h
    assert np.abs(u - t ** 4 / 4.0).max() < 1e-8


def test_half_derivative_composes_to_derivative():
    # weights of s^(1/2) convolved with themselves match the weights of s
    tab = gauss_tableau(3)
    h, N = 0.1, 24
    Wh = compute_weights(power_transfer(0.5), tab, h, N).W
    Ws = compute_weights(power_transfer(1.0), tab, h, N).W
    conv = np.zeros_like(Ws)
    for j in range(N + 1):
        for k in range(j + 1):
            conv[j] += Wh[j - k] @ Wh[k]
    assert np.abs(conv - Ws).max() < 1e-9


def test_weights_agree_across_horizon_lengths():
    # the first blocks are Taylor coefficients of the same function, so
    # extending N (and with it the FFT grid) must not move them
    tab = gauss_tableau(2)
    K = kmu_transfer(0.0)
    W16 = compute_weights(K, tab, 0.05, 16).W
    W40 = compute_weights(K, tab, 0.05, 40).W
    assert np.abs(W16 - W40[:17]).max() < 1e-10


def test_weights_linear_in_kernel():
    tab = gauss_tableau(2)
    h, N = 0.05, 12
    K1 = power_transfer(-1.0)
    K2 = kmu_transfer(0.0)
    Ksum = TransferFunction(fn=lambda s: 2.0 * K1.fn(s) + 0.5 * K2.fn(s), dim=1)
    Wsum = compute_weights(Ksum, tab, h, N).W
    Wparts = 2.0 * compute_weights(K1, tab, h, N).W + 0.5 * compute_weights(K2, tab, h, N).W
    assert np.abs(Wsum - Wparts).max() < 1e-12


def test_full_circle_path_matches_hermitian_path():
    # a scalar and a dense kernel
    tab = gauss_tableau(3)
    for fn, dim in ((lambda s: eval_kmu(s, 0.0), 1), (_triangular_matrix_kernel, 2)):
        K = TransferFunction(fn=fn, dim=dim)
        Kfull = TransferFunction(fn=fn, dim=dim, conj_symmetric=False)
        Wh = compute_weights(K, tab, 0.05, 16).W
        Wf = compute_weights(Kfull, tab, 0.05, 16).W
        assert np.iscomplexobj(Wf) and Wf.shape == Wh.shape
        assert np.abs(Wf.imag).max() < 1e-12 * np.abs(Wh).max()
        assert np.abs(Wf.real - Wh).max() < 1e-12 * np.abs(Wh).max()


def test_real_kernel_gives_real_weights_and_output():
    tab = radau_iia_tableau(2)
    ws = compute_weights(kmu_transfer(0.0), tab, 0.05, 16)
    assert ws.W.dtype == np.float64
    u = apply_cq(ws, sample_stage_signal(sin_pow_exp, 0.05, 16, tab.c))
    assert u.dtype == np.float64


def test_output_is_causal():
    # perturbing future stage samples must leave earlier outputs bit-identical
    tab = gauss_tableau(2)
    h, N = 0.1, 20
    ws = compute_weights(kmu_transfer(1.0), tab, h, N)
    g = sample_stage_signal(sin_pow_exp, h, N, tab.c)
    u0 = apply_cq(ws, g)
    g2 = g.copy()
    g2[11:] += 37.5
    u1 = apply_cq(ws, g2)
    assert np.array_equal(u0[:11], u1[:11])
    assert np.abs(u1[11:] - u0[11:]).max() > 1e-3


def test_matrix_valued_kernel_blocks():
    # a diagonal matrix kernel must reproduce the two scalar weight sets
    tab = gauss_tableau(2)
    h, N = 0.1, 8

    def fn(s):
        s = np.asarray(s, dtype=complex)
        K = np.zeros(s.shape + (2, 2), dtype=complex)
        K[..., 0, 0], K[..., 1, 1] = 1.0 / s, s
        return K

    K = TransferFunction(fn=fn, dim=2)
    W = compute_weights(K, tab, h, N).W
    Wa = compute_weights(power_transfer(-1.0), tab, h, N).W
    Wb = compute_weights(power_transfer(1.0), tab, h, N).W
    assert W.shape == (N + 1, 4, 4)
    assert np.abs(W[:, 0::2, 0::2] - Wa).max() < 1e-10
    assert np.abs(W[:, 1::2, 1::2] - Wb).max() < 1e-10
    assert np.abs(W[:, 0::2, 1::2]).max() < 1e-10


def test_apply_cq_rejects_samples_of_another_shape():
    # two stages of a dense 4 x 4 kernel take (N+1, 2, 4) samples; the
    # transposed (N+1, 4, 2) samples and the flat (N+1, 8) ones are refused
    # instead of giving other traces or a (N+1,) trace
    tab = gauss_tableau(2)
    h, N = 0.1, 6
    K = TransferFunction(fn=lambda s: np.asarray(s, dtype=complex)[..., None, None]
                         * np.eye(4) + 0.5, dim=4)
    ws = compute_weights(K, tab, h, N)
    g = np.random.default_rng(3).standard_normal((N + 1, 2, 4))
    g[0] = 0.0
    assert apply_cq(ws, g).shape == (N + 1, 4)
    for bad in (g.transpose(0, 2, 1), g.reshape(N + 1, 8), g[:-1], g[..., None]):
        with pytest.raises(ValueError, match="stage samples of shape"):
            apply_cq(ws, bad)
    scalar = compute_weights(kmu_transfer(0.0), tab, h, N)
    assert apply_cq(scalar, g[..., 0]).shape == (N + 1,)
    with pytest.raises(ValueError, match="stage samples of shape"):
        apply_cq(scalar, g[..., :1])


def test_lane_blocks_do_not_change_weights(monkeypatch):
    # one operator row per block gives the same weights bit for bit
    tab = gauss_tableau(3)
    h, N = 0.1, 10
    dense = TransferFunction(fn=_triangular_matrix_kernel, dim=2)
    lanes = TransferFunction(fn=lambda s: np.stack([1.0 / s, s, s * s], axis=-1), lanes=3)
    before = [compute_weights(K, tab, h, N).W for K in (dense, lanes)]
    monkeypatch.setattr(engine, "_BLOCK", 1)
    after = [compute_weights(K, tab, h, N).W for K in (dense, lanes)]
    for W0, W1 in zip(before, after):
        assert np.array_equal(W0, W1)


def test_rejects_nan_kernel_values():
    K = TransferFunction(fn=lambda s: np.where(np.abs(s) > 20.0, np.nan, 1.0 / s))
    with pytest.raises(FloatingPointError, match="non-finite"):
        compute_weights(K, gauss_tableau(2), 0.1, 8)


def test_rejects_zero_eps():
    # eps = 0 would put the contour at the origin, where lambda^{-j}
    # overflows; eps outside (0, 1) is rejected before any work
    for eps in (0.0, -1e-16, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="eps"):
            compute_weights(kmu_transfer(0.5), gauss_tableau(2), 0.1, 8, eps=eps)


def test_delay_kernel_against_shift_sum():
    # K_0(s) = 1/(1 - e^{-s}) sums unit delays: u(t) = sum_k g(t - k)
    tab = gauss_tableau(3)
    u = scalar_reference_solution(kmu_transfer(0.0), sin_pow_exp, 3.0, 128, tab)
    t = np.arange(129) * (3.0 / 128)
    exact = sum(sin_pow_exp(np.maximum(t - k, 0.0)) for k in range(3))
    assert np.abs(u - exact).max() < 1e-7


def test_radau_grid_value_is_last_stage_of_previous_step():
    # u_n = R(inf) u_{n-1} + b^T A^{-1} U_{n-1}; Radau IIA has R(inf) = 0 and
    # b^T A^{-1} = e_m, so u_n is stage m of step n-1
    tab = radau_iia_tableau(3)
    h, N = 0.1, 12
    ws = compute_weights(kmu_transfer(0.5), tab, h, N)
    g = sample_stage_signal(sin_pow_exp, h, N, tab.c)
    U = np.array([sum(ws.W[k - j] @ g[j] for j in range(k + 1)) for k in range(N + 1)])
    u = apply_cq(ws, g)
    assert u[0] == 0.0
    assert np.abs(u[1:] - U[:-1, -1]).max() < 1e-12 * np.abs(U).max()


def test_save_load_roundtrip_is_bitwise(tmp_path):
    tab = radau_iia_tableau(3)
    ws = compute_weights(kmu_transfer(0.5), tab, 0.05, 10)
    path = tmp_path / "w.npz"
    save_weights(ws, path)
    back = load_weights(path)
    assert isinstance(back, CQWeightSet)
    assert np.array_equal(back.W, ws.W)
    assert back.h == ws.h and back.N == ws.N and back.eps == ws.eps
    assert back.r_infinity == ws.r_infinity
    assert np.array_equal(back.tableau.A, ws.tableau.A)
    urun = apply_cq(back, sample_stage_signal(sin_pow_exp, 0.05, 10, back.tableau.c))
    assert np.array_equal(urun, apply_cq(ws, sample_stage_signal(sin_pow_exp, 0.05, 10, tab.c)))


def test_save_leaves_a_foreign_temporary_file_alone(tmp_path):
    # another writer's path + ".tmp" (the one temporary name every writer
    # used to share) is neither truncated nor moved into place
    ws = compute_weights(kmu_transfer(0.5), gauss_tableau(2), 0.1, 6)
    path = tmp_path / "w.npz"
    (tmp_path / "w.npz.tmp").write_bytes(b"another writer")
    save_weights(ws, path)
    assert (tmp_path / "w.npz.tmp").read_bytes() == b"another writer"
    back = load_weights(path)
    assert back.W.tobytes() == ws.W.tobytes() and back.key == ws.key
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.npz", "w.npz.tmp"]


def test_a_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        with engine._write_atomic(path) as f:
            f.write(b"half a file")
            raise RuntimeError("killed mid-write")
    assert list(tmp_path.iterdir()) == []
    # an existing file stays as it was
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with engine._write_atomic(path) as f:
            f.write(b"new")
            raise RuntimeError("killed mid-write")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert path.read_bytes() == b"old"


def test_load_ignores_extra_arrays(tmp_path):
    # files that also store post-stage coefficients still load
    ws = compute_weights(kmu_transfer(0.0), gauss_tableau(2), 0.1, 6)
    path = tmp_path / "w.npz"
    save_weights(ws, path)
    with np.load(path) as d:
        arrays = dict(d)
    np.savez(path, gamma=np.zeros((7, 2)), **arrays)
    back = load_weights(path)
    assert np.array_equal(back.W, ws.W) and back.key == ws.key


def test_rejects_bad_horizon():
    with pytest.raises(ValueError):
        compute_weights(kmu_transfer(0.0), gauss_tableau(2), 0.1, 0)


def test_warns_on_coarse_step():
    # a step too coarse for sigma0 fires both the step warning and the
    # contour-reach warning, on every call: the second one reads its
    # contour from the cache
    K = kmu_transfer(0.0, sigma0=30.0)
    for _ in range(2):
        with pytest.warns(UserWarning) as rec:
            compute_weights(K, gauss_tableau(2), 0.1, 4)
        messages = [str(w.message) for w in rec]
        assert any("too coarse" in msg for msg in messages)
        assert any("below sigma0" in msg for msg in messages)


def test_warns_on_noncausal_signal():
    with pytest.warns(UserWarning, match="vanish"):
        sample_stage_signal(lambda t: np.asarray(t) + 1.0, 0.1, 4, gauss_tableau(2).c)


def test_stage_samples_shape_and_values():
    tab = gauss_tableau(2)
    g = sample_stage_signal(lambda t: np.asarray(t) ** 2, 0.5, 4, tab.c)
    assert g.shape == (5, 2)
    t = np.arange(5) * 0.5
    assert g == pytest.approx((t[:, None] + tab.c[None, :] * 0.5) ** 2)


def _cache_kernels():
    # a scalar, a diagonal and a dense kernel, each on the upper half and
    # on the full circle
    scalar = kmu_transfer(0.5)
    lanes = TransferFunction(fn=lambda s: np.stack([1.0 / s, s, s * s], axis=-1), lanes=3)
    dense = TransferFunction(fn=_triangular_matrix_kernel, dim=2)
    for K in (scalar, lanes, dense):
        yield K
        yield dataclasses.replace(K, conj_symmetric=False)


def test_contour_cache_weights_are_bitwise_identical():
    # a contour decomposed for another kernel and step gives the same bytes
    # as one decomposed afresh
    tab = gauss_tableau(3)
    for K in _cache_kernels():
        engine._contour.cache_clear()
        compute_weights(dataclasses.replace(identity_kernel(), conj_symmetric=K.conj_symmetric),
                        tab, 0.2, 32)
        warm = compute_weights(K, tab, 0.05, 32).W
        assert engine._contour.cache_info().hits == 1
        engine._contour.cache_clear()
        cold = compute_weights(K, tab, 0.05, 32).W
        assert warm.dtype == cold.dtype and warm.tobytes() == cold.tobytes()


def test_one_eigendecomposition_per_contour(monkeypatch):
    # two kernels at two steps on one (tableau, N, eps) decompose it once
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda M: calls.append(M.shape) or eig(M))
    engine._contour.cache_clear()
    tab = gauss_tableau(2)
    compute_weights(kmu_transfer(0.0), tab, 0.05, 32)
    compute_weights(kmu_transfer(1.0), tab, 0.1, 32)
    assert len(calls) == 1


def test_contour_cache_key():
    # the key is what the contour depends on: A, b, N, eps and the node
    # count, not the tableau object
    tab, K = gauss_tableau(3), kmu_transfer(0.5)
    engine._contour.cache_clear()
    compute_weights(K, tab, 0.05, 32)

    def hit(K, tab, N=32, eps=1e-24):
        before = engine._contour.cache_info().hits
        compute_weights(K, tab, 0.05, N, eps=eps)
        return engine._contour.cache_info().hits - before

    assert hit(K, tableau_from_json(tableau_to_json(tab))) == 1
    A = tab.A.copy()
    A.view(np.uint64)[1, 2] ^= 1
    assert not hit(K, dataclasses.replace(tab, A=A))
    assert not hit(K, tab, N=33)
    assert not hit(K, tab, eps=1e-20)
    assert not hit(dataclasses.replace(K, conj_symmetric=False), tab)
    assert hit(K, tab) == 1


def test_cached_contour_is_read_only():
    tab = gauss_tableau(3)
    L, _ = engine._fft_grid(32, 1e-24)
    for a in engine._contour(tab.A.tobytes(), tab.b.tobytes(), 3, 32, 1e-24, L // 2 + 1):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_failed_contour_raises_on_every_call(monkeypatch):
    # with b = 0, Delta = A^{-1} at every node: a singular A fails the cond
    # guard, a Jordan block the eigenvector guard; neither is stored
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda M: calls.append(M.shape) or eig(M))
    tab = gauss_tableau(2)
    singular = dataclasses.replace(tab, A=np.zeros((2, 2)), b=np.zeros(2))
    jordan = dataclasses.replace(tab, A=np.array([[1.0, 1.0], [0.0, 1.0]]), b=np.zeros(2))
    engine._contour.cache_clear()
    for bad, match in ((singular, "singular"), (jordan, "eigenvector condition")):
        for _ in range(2):
            with np.errstate(divide="ignore", invalid="ignore"):
                with pytest.raises(np.linalg.LinAlgError, match=match):
                    compute_weights(kmu_transfer(0.0), bad, 0.05, 8)
    assert engine._contour.cache_info().currsize == 0
    assert len(calls) == 2
