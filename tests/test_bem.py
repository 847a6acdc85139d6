import numpy as np
import pickle
import pytest

from rkcq import bem
from rkcq.bessel import bessel_k0, bessel_k1, k0k1


def test_circle_mesh_geometry():
    mesh = bem.make_mesh("unit_circle", 64)
    assert mesh.n == 64
    assert mesh.kind == "unit_circle"
    # vertices on the unit circle, equal chord lengths
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-14
    chord = 2.0 * np.sin(np.pi / 64)
    assert np.abs(mesh.length - chord).max() < 1e-14
    assert abs(mesh.length.sum() - 64 * chord) < 1e-12
    # outward unit normals
    assert np.abs(np.linalg.norm(mesh.normal, axis=1) - 1.0).max() < 1e-14
    outward = np.einsum("ij,ij->i", mesh.normal, mesh.mid)
    assert outward.min() > 0.9


def test_l_shape_mesh_geometry():
    mesh = bem.make_mesh("l_shape", 64)
    assert mesh.n == 64
    assert abs(mesh.length.sum() - 8.0) < 1e-12
    corners = np.array(
        [[1.0, 0.1], [0.1, 0.1], [0.1, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
    )
    # every corner appears among the vertices
    for c in corners:
        assert np.linalg.norm(mesh.vertices - c, axis=1).min() < 1e-14
    # panels split proportionally to side length (largest remainder)
    counts = bem._largest_remainder(np.array([0.9, 0.9, 1.1, 2.0, 2.0, 1.1]), 64)
    assert counts.tolist() == [7, 7, 9, 16, 16, 9]
    assert counts.sum() == 64


def test_make_mesh_validation():
    with pytest.raises(ValueError):
        bem.make_mesh("unit_circle", 7)
    with pytest.raises(ValueError):
        bem.make_mesh("hexagon", 16)
    # CamelCase names normalize
    assert bem.make_mesh("UnitCircle", 16).kind == "unit_circle"
    assert bem.make_mesh("LShape", 16).kind == "l_shape"


def test_mesh_json_roundtrip():
    mesh = bem.make_mesh("l_shape", 32)
    text = bem.mesh_to_json(mesh)
    back = bem.mesh_from_json(text)
    assert back.kind == mesh.kind
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.panels, mesh.panels)
    assert np.array_equal(back.mid, mesh.mid)


def test_degenerate_panel_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    panels = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    with pytest.raises(ValueError):
        bem.BoundaryMesh(kind="custom", vertices=verts, panels=panels)


def test_circulant_matches_dense_assembly():
    # assembly does not depend on the mesh kind: a kind-stripped copy of
    # the circle (no per-mode route) assembles the same matrices
    mesh = bem.make_mesh("unit_circle", 32)
    plain = bem.BoundaryMesh(
        kind="custom", vertices=mesh.vertices.copy(), panels=mesh.panels.copy()
    )
    s = 2.0 + 5.0j
    V1, K1 = bem.assemble_pair(s, mesh)
    V2, K2 = bem.assemble_pair(s, plain)
    assert np.array_equal(V1, V2) and np.array_equal(K1, K2)


def test_symbol_transfer_matches_dense_solve():
    # the per-mode symbol acts on panel data as the dense solve of the
    # kind-stripped circle does: through the real FFT for real s, through
    # the full FFT of its mirror extension (lane k serves modes k and n - k)
    # for complex s
    mesh = bem.make_mesh("unit_circle", 32)
    plain = bem.BoundaryMesh(
        kind="custom", vertices=mesh.vertices.copy(), panels=mesh.panels.copy()
    )
    n = mesh.n
    g = np.random.default_rng(6).standard_normal(n)
    for op in ("inverse_single_layer", "exterior_dtn"):
        tf, dense = bem.BemTransfer(mesh, op), bem.BemTransfer(plain, op)
        for s in (1.0, 40.0, 2.0 + 5.0j, 0.3 - 17.0j, 40.0 + 3.0j):
            lam = tf.symbol(s)
            if np.imag(s) == 0:
                got = np.fft.irfft(lam * np.fft.rfft(g), n)
            else:
                full = np.concatenate([lam, lam[1 : (n + 1) // 2][::-1]])
                got = np.fft.ifft(full * np.fft.fft(g))
            want = dense(s) @ g
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (op, s)
        with pytest.raises(ValueError):
            dense.symbol(1.0)
    lam = tf.symbol(np.array([[1.0, 2.0 + 1.0j], [3.0 - 1.0j, 0.5 + 4.0j]]))
    assert lam.shape == (2, 2, 17)
    assert np.array_equal(lam[1, 1], tf.symbol(0.5 + 4.0j))


def test_bessel_k0_equals_k0k1_bit_for_bit():
    # series (|z| + Re z <= 8.5), Taylor-table mid annulus, asymptotic (|z| >= 16.5)
    # and the Re z > 700 flush
    rng = np.random.default_rng(3)
    z = rng.uniform(0.01, 60.0, 4000) * np.exp(1j * rng.uniform(-1.57, 1.57, 4000))
    z = np.concatenate([z, [0.5, 6.0 + 6.0j, 12.0, 20.0 - 30.0j, 900.0, 5.0 + 3000.0j]])
    az = np.abs(z)
    series = az + z.real <= 8.5
    assert series.any() and (az >= 16.5).any() and (~series & (az < 16.5)).any()
    assert np.array_equal(bessel_k0(z), k0k1(z)[0])
    assert bessel_k0(2.0 + 1.0j) == k0k1(2.0 + 1.0j)[0]


def test_assemble_V_equals_pair_bit_for_bit():
    for kind in ("unit_circle", "l_shape"):
        mesh = bem.make_mesh(kind, 32)
        for s in (1.0, 2.0 + 5.0j, 0.3 - 17.0j, 40.0 + 3.0j):
            assert np.array_equal(bem.assemble_V(s, mesh), bem.assemble_pair(s, mesh)[0])


def test_mode_transfer_metadata():
    prob = bem.ScatteringProblem("unit_circle", "inverse_single_layer", "monomial_bump",
                                 1.0, 16, 8)
    mesh = bem.make_mesh("unit_circle", 16)
    tf = bem.make_mode_transfer(prob, mesh)
    assert tf.dim == 1 and tf.lanes == 9 and tf.conj_symmetric
    assert tf.key == "bem_modes_unit_circle_inverse_single_layer_16"
    assert tf.key != bem.make_transfer(prob, mesh).key
    with pytest.raises(ValueError):
        bem.make_mode_transfer(prob, bem.make_mesh("l_shape", 16))


def test_single_layer_symmetry():
    for kind in ("unit_circle", "l_shape"):
        mesh = bem.make_mesh(kind, 32)
        V, _ = bem.assemble_pair(2.0 + 1.0j, mesh)
        assert np.abs(V - V.T).max() <= 1e-13 * np.abs(V).max()


def _gather(plan, v, kd):
    return v[plan.vmap], kd.ravel()[plan.kmap]


@pytest.mark.parametrize("kind", ["unit_circle", "l_shape"])
def test_pair_plan_matches_singleton_plan(kind):
    # one representative per congruence class reproduces the assembly that
    # integrates every pair, at large Re s and at |Im s| >> Re s too
    mesh = bem.make_mesh(kind, 32)
    single = bem._PairPlan(mesh, *bem._singleton_maps(mesh.n))
    assert single.size == 32 * 33 // 2 > mesh.pair_plan().size
    for s in (1.0, 2.0 + 5.0j, 40.0 + 3.0j, 0.3 - 17.0j):
        V1, K1 = bem.assemble_pair(s, mesh)
        V2, K2 = _gather(single, *bem._assemble(complex(s), mesh, single))
        assert np.abs(V1 - V2).max() <= 1e-13 * np.abs(V2).max(), s
        assert np.abs(K1 - K2).max() <= 1e-12 * np.abs(K2).max(), s


@pytest.mark.parametrize("kind", ["unit_circle", "l_shape"])
def test_far_pair_straddling_the_dead_cut(kind):
    # a far pair with Re s rmin <= 60 < Re s rmax is integrated on all its
    # points, those past the cut included: its entries stay finite and match
    # the plan that integrates every pair on its own
    mesh = bem.make_mesh(kind, 32)
    single = bem._PairPlan(mesh, *bem._singleton_maps(mesh.n))
    s = 40.0 + 3.0j
    rmin, rmax = bem._pair_r_bounds(mesh, single.far_i, single.far_j)
    cut = bem._DEAD_EXPONENT / s.real
    straddle = (rmin <= cut) & (rmax > cut)
    assert straddle.any()
    i, j = single.far_i[straddle], single.far_j[straddle]
    V1, K1 = bem.assemble_pair(s, mesh)
    V2, K2 = _gather(single, *bem._assemble(s, mesh, single))
    assert np.abs(V1[i, j]).min() > 0.0
    for A, B in ((V1, V2), (K1, K2), (K1.T, K2.T)):
        assert np.isfinite(A[i, j]).all()
        assert np.abs(A[i, j] - B[i, j]).max() <= 1e-13 * np.abs(B).max()


def test_pair_plan_class_counts():
    # circle: one class per offset d = 0..n/2 (d and n - d are mirror
    # images); L-shape: 3 panel lengths, 7 touching and 869 far classes
    for n in (32, 128, 256):
        plan = bem.make_mesh("unit_circle", n).pair_plan()
        assert (plan.size, plan.diag.size, plan.touch.size) == (n // 2 + 1, 1, 1)
    plan = bem.make_mesh("l_shape", 64).pair_plan()
    assert (plan.diag.size, plan.touch.size, plan.far.size) == (3, 7, 869)


def test_irregular_polygon_has_no_congruent_pairs():
    # every pair of a random star polygon is its own class, also past the
    # coordinate count that a 63-bit pair key can hold (240 panels)
    rng = np.random.default_rng(5)
    for n in (40, 240):
        th = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        r = rng.uniform(0.5, 1.5, n)
        idx = np.arange(n)
        mesh = bem.BoundaryMesh("custom", np.column_stack([r * np.cos(th), r * np.sin(th)]),
                                np.column_stack([idx, (idx + 1) % n]))
        assert mesh.pair_plan().size == n * (n + 1) // 2


def test_circle_rows_are_exactly_symmetric():
    mesh = bem.make_mesh("unit_circle", 64)
    for s in (1.0, 2.0 + 5.0j, 30.0 + 40.0j, 0.3 - 17.0j):
        V, K = bem.assemble_pair(s, mesh)
        for row in (V[0], K[0]):
            assert np.array_equal(row[1:], row[:0:-1]), s
        # and the matrices are exactly circulant, C_ij = C_0,(j-i) mod n
        idx = (np.arange(64)[None, :] - np.arange(64)[:, None]) % 64
        assert np.array_equal(V, V[0][idx])
        assert np.array_equal(K, K[0][idx])


def test_cached_pair_plan_assembles_bit_identically():
    # the second frequency on a mesh reuses the pair plan the first one
    # cached; it must give exactly what a fresh mesh gives
    for kind in ("unit_circle", "l_shape"):
        warm = bem.make_mesh(kind, 32)
        bem.assemble_pair(3.0 + 2.0j, warm)
        assert warm._plan is not None
        for s in (0.5 + 1.0j, 4.0 - 25.0j):
            V1, K1 = bem.assemble_pair(s, warm)
            V2, K2 = bem.assemble_pair(s, bem.make_mesh(kind, 32))
            assert np.array_equal(V1, V2) and np.array_equal(K1, K2)


def test_quadrature_order_stability(monkeypatch):
    # forcing every far-pair and graded-cell rule to its maximum order must
    # not move the matrices: the adaptive orders already resolve the
    # integrands
    mesh = bem.make_mesh("l_shape", 48)
    s = 30.0 + 40.0j
    V1, K1 = bem.assemble_pair(s, mesh)
    orig = bem._gl_orders
    monkeypatch.setattr(bem, "_gl_orders", lambda s_, length: np.full_like(orig(s_, length), 48))
    V2, K2 = bem.assemble_pair(s, mesh)
    assert np.abs(V1 - V2).max() <= 1e-8 * np.abs(V1).max()
    assert np.abs(K1 - K2).max() <= 5e-6 * np.abs(K1).max()


def test_distant_pairs_flush_to_zero():
    # exp(-s r) below the dead-pair threshold is dropped exactly
    mesh = bem.make_mesh("unit_circle", 64)
    V, K = bem.assemble_pair(80.0, mesh)
    assert V[0, 32] == 0.0
    assert K[0, 32] == 0.0
    assert abs(V[0, 0]) > 0.0


def test_double_layer_row_sum_vanishes_at_small_s():
    # the exterior double layer of the constant density tends to -1/2 as
    # s -> 0, so (M/2 + Kd) 1 -> 0
    mesh = bem.make_mesh("unit_circle", 32)
    one = np.ones(mesh.n)
    M = bem.mass_matrix(mesh)
    res = []
    for s in (1e-3, 1e-4):
        _, Kd = bem.assemble_pair(s, mesh)
        res.append(np.abs((0.5 * M + Kd) @ one).max())
    assert res[0] <= 2e-6
    assert res[1] <= 5e-8
    assert res[1] < res[0]


def test_assemble_pair_rejects_left_half_plane():
    mesh = bem.make_mesh("unit_circle", 16)
    with pytest.raises(ValueError):
        bem.assemble_pair(-1.0, mesh)
    with pytest.raises(ValueError):
        bem.assemble_pair(0.0 + 3.0j, mesh)


def test_mass_matrix_is_length_diagonal():
    mesh = bem.make_mesh("l_shape", 16)
    M = bem.mass_matrix(mesh)
    assert np.array_equal(M, np.diag(mesh.length))


def test_dtn_constant_mode_oracle():
    # on the unit circle the exterior Dirichlet-to-Neumann map sends the
    # constant 1 to -s K1(s) / K0(s); the panel operator applied to the
    # constant vector must reproduce that eigenvalue
    mesh = bem.make_mesh("unit_circle", 64)
    tf = bem.BemTransfer(mesh, "exterior_dtn")
    one = np.ones(mesh.n)
    for s in (1.0 + 0.0j, 2.0 + 3.0j):
        lam = -s * bessel_k1(s) / bessel_k0(s)
        got = tf(s) @ one
        assert np.abs(got - lam).max() < 5e-3
    # refining the mesh shrinks the defect
    mesh2 = bem.make_mesh("unit_circle", 128)
    tf2 = bem.BemTransfer(mesh2, "exterior_dtn")
    s = 1.0 + 0.0j
    lam = -s * bessel_k1(s) / bessel_k0(s)
    err64 = np.abs(tf(s) @ one - lam).max()
    err128 = np.abs(tf2(s) @ np.ones(128) - lam).max()
    assert err128 < 0.5 * err64


def test_inverse_single_layer_action():
    # the operator returns phi with V phi = M g (midpoint data g)
    mesh = bem.make_mesh("unit_circle", 64)
    tf = bem.BemTransfer(mesh, "inverse_single_layer")
    s = 1.5 + 2.0j
    g = np.cos(0.3 * np.arange(mesh.n))
    phi = tf(s) @ g
    V, _ = bem.assemble_pair(s, mesh)
    M = bem.mass_matrix(mesh)
    resid = np.abs(V @ phi - M @ g).max()
    assert resid <= 1e-12 * np.abs(M @ g).max()


def test_transfer_pickles_and_caches():
    mesh = bem.make_mesh("unit_circle", 16)
    tf = bem.BemTransfer(mesh, "exterior_dtn")
    A1 = tf(1.0 + 0.0j)
    clone = pickle.loads(pickle.dumps(tf))
    A2 = clone(1.0 + 0.0j)
    assert np.array_equal(A1, A2)


def test_transfer_rejects_unknown_operator():
    mesh = bem.make_mesh("unit_circle", 16)
    with pytest.raises(ValueError):
        bem.BemTransfer(mesh, "hypersingular")


def test_make_transfer_metadata():
    prob = bem.ScatteringProblem(
        geometry="unit_circle",
        operator="exterior_dtn",
        datum="traveling_gaussian",
        T=3.0,
        n_panels=16,
        N_t=8,
    )
    tf = bem.make_transfer(prob)
    assert tf.dim == 16
    assert tf.sigma0 == 0.1
    assert tf.conj_symmetric
    assert tf.key == "bem_unit_circle_exterior_dtn_16"


def test_error_metric_values_and_validation():
    mesh = bem.make_mesh("unit_circle", 16)
    traces = np.ones((2, 16))
    ref = np.zeros((2, 16))
    V, _ = bem.assemble_pair(1.0, mesh)
    one = np.ones(16)
    per_step = max(np.real(one @ V @ one), 0.0)
    want = np.sqrt(0.5 * 2 * per_step)
    assert bem.error_metric(traces, ref, 0.5, mesh) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        bem.error_metric(np.zeros((3, 16)), np.zeros((4, 16)), 0.5, mesh)
