import copy
import json

import numpy as np
import pickle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkcq import bem, engine
from rkcq.bessel import band, bessel_k0, bessel_k1, k0k1
from rkcq.harness import preset_configs
from rkcq.tableaux import gauss_tableau


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
    # a fractional count would mesh 65 unequal chords, not a regular polygon
    for n in (64.5, 64.0, True):
        with pytest.raises(ValueError, match="integer"):
            bem.make_mesh("unit_circle", n)
    assert bem.make_mesh("unit_circle", np.int64(16)).n == 16
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


def _polygon(vertices, kind="custom"):
    idx = np.arange(len(vertices))
    return bem.BoundaryMesh(kind, vertices, np.column_stack([idx, (idx + 1) % idx.size]))


def _regular(n, radius=1.0, angle=0.0, centre=(0.0, 0.0)):
    th = angle + 2.0 * np.pi * np.arange(n) / n
    return _polygon(np.asarray(centre) + radius * np.column_stack([np.cos(th), np.sin(th)]))


def test_pair_plan_decides_circulant():
    # the per-mode route is keyed on the plan's class maps, not the label:
    # every regular polygon takes it, whatever its kind, size or placement
    for n in (8, 9, 33, 64, 127, 512):
        assert bem.make_mesh("unit_circle", n).circulant, n
    for n, radius, angle, centre in ((8, 3.0, 0.4, (1.0, -2.0)), (33, 0.01, 1.3, (0.0, 0.0)),
                                     (64, 2.5, -0.7, (40.0, 15.0))):
        assert _regular(n, radius, angle, centre).circulant, n
    # and no other mesh does: the L-shape, a random star polygon, and a
    # circle with one vertex moved by 1e-6
    assert not bem.make_mesh("l_shape", 64).circulant
    rng = np.random.default_rng(11)
    th = np.sort(rng.uniform(0.0, 2.0 * np.pi, 40))
    r = rng.uniform(0.5, 1.5, 40)
    assert not _polygon(np.column_stack([r * np.cos(th), r * np.sin(th)])).circulant
    moved = bem.make_mesh("unit_circle", 32).vertices.copy()
    moved[5, 0] += 1e-6
    assert not _polygon(moved).circulant


def test_mislabelled_mesh_takes_the_dense_route():
    # an L-shape labelled "unit_circle" constructs, built directly or read
    # from JSON, and the per-mode route refuses it
    lshape = bem.make_mesh("l_shape", 32)
    edited = bem.mesh_to_json(lshape).replace('"l_shape"', '"unit_circle"')
    prob = bem.ScatteringProblem("unit_circle", "exterior_dtn", "traveling_gaussian", 3.0, 32, 8)
    for mesh in (bem.BoundaryMesh("unit_circle", lshape.vertices, lshape.panels),
                 bem.mesh_from_json(edited)):
        assert mesh.kind == "unit_circle" and not mesh.circulant
        with pytest.raises(ValueError, match="circulant"):
            bem.make_mode_transfer(prob, mesh)
        for op in ("inverse_single_layer", "exterior_dtn"):
            with pytest.raises(ValueError, match="circulant"):
                bem.BemTransfer(mesh, op).symbol(1.0)


def test_symbol_on_an_off_centre_custom_polygon():
    # a "custom" 33-gon of radius 2.5 away from the origin takes the
    # per-mode route, and its symbol acts as the dense solve does
    mesh = _regular(33, radius=2.5, angle=0.2, centre=(1.5, -4.0))
    assert mesh.kind == "custom" and mesh.circulant
    g = np.random.default_rng(7).standard_normal(mesh.n)
    for op in ("inverse_single_layer", "exterior_dtn"):
        tf = bem.BemTransfer(mesh, op)
        for s in (1.0, 7.0):
            got = np.fft.irfft(tf.symbol(s) * np.fft.rfft(g), mesh.n)
            want = tf(s) @ g
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (op, s)


def test_transfer_keys_identify_the_geometry():
    # the on-disk weights cache names and checks files by the key, so two
    # meshes of one kind and panel count must not share it; a mesh rebuilt
    # from its JSON must keep it
    prob = bem.ScatteringProblem("unit_circle", "exterior_dtn", "monomial_bump", 1.0, 33, 8)
    small, large = _regular(33), _regular(33, radius=2.5)
    for make in (bem.make_transfer, bem.make_mode_transfer):
        key = make(prob, small).key
        assert key != make(prob, large).key
        assert make(prob, bem.mesh_from_json(bem.mesh_to_json(small))).key == key
    lshape = bem.make_mesh("l_shape", 32)
    rebuilt = bem.mesh_from_json(bem.mesh_to_json(lshape))
    assert bem.make_transfer(prob, rebuilt).key == bem.make_transfer(prob, lshape).key


def test_mesh_must_be_a_positively_oriented_ring():
    # a clockwise L-shape would flip the sign of Kd and of the exterior DtN;
    # panels out of ring order used to fail only at the first assembly
    lshape = bem.make_mesh("l_shape", 32)
    clockwise = json.dumps({"kind": "custom", "vertices": lshape.vertices[::-1].tolist(),
                            "panels": lshape.panels.tolist()})
    with pytest.raises(ValueError, match="positively oriented"):
        bem.mesh_from_json(clockwise)
    with pytest.raises(ValueError, match="positively oriented"):
        bem.BoundaryMesh("custom", lshape.vertices, lshape.panels[::-1, ::-1])
    shuffled = lshape.panels[np.random.default_rng(2).permutation(lshape.n)]
    with pytest.raises(ValueError, match="closed ring"):
        bem.BoundaryMesh("custom", lshape.vertices, shuffled)
    for kind in ("unit_circle", "l_shape"):
        for n in (8, 33, 64):
            mesh = bem.make_mesh(kind, n)
            bem.mesh_from_json(bem.mesh_to_json(mesh))


def test_degenerate_panel_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    panels = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    with pytest.raises(ValueError):
        bem.BoundaryMesh(kind="custom", vertices=verts, panels=panels)


def test_circulant_matches_dense_assembly():
    # assembly does not depend on the mesh kind: a kind-stripped copy of
    # the circle assembles the same matrices, and takes the per-mode route
    mesh = bem.make_mesh("unit_circle", 32)
    plain = bem.BoundaryMesh(
        kind="custom", vertices=mesh.vertices.copy(), panels=mesh.panels.copy()
    )
    assert plain.circulant
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
            bem.BemTransfer(bem.make_mesh("l_shape", 32), op).symbol(1.0)
    lam = tf.symbol(np.array([[1.0, 2.0 + 1.0j], [3.0 - 1.0j, 0.5 + 4.0j]]))
    assert lam.shape == (2, 2, 17)
    assert np.array_equal(lam[1, 1], tf.symbol(0.5 + 4.0j))


def test_bessel_k0_equals_k0k1_bit_for_bit():
    # series (|z| <= 3), Taylor table (3 < |z| < 16.5), asymptotic (|z| >= 16.5)
    # and the Re z > 700 flush
    rng = np.random.default_rng(3)
    z = rng.uniform(0.01, 60.0, 4000) * np.exp(1j * rng.uniform(-1.57, 1.57, 4000))
    z = np.concatenate([z, [0.5, 6.0 + 6.0j, 12.0, 20.0 - 30.0j, 900.0, 5.0 + 3000.0j]])
    az = np.abs(z)
    assert (az <= 3.0).any() and (az >= 16.5).any() and ((az > 3.0) & (az < 16.5)).any()
    assert np.array_equal(bessel_k0(z), k0k1(z)[0])
    assert bessel_k0(2.0 + 1.0j) == k0k1(2.0 + 1.0j)[0]


def test_assemble_V_equals_pair_bit_for_bit():
    for kind in ("unit_circle", "l_shape"):
        mesh = bem.make_mesh(kind, 32)
        for s in (1.0, 2.0 + 5.0j, 0.3 - 17.0j, 40.0 + 3.0j):
            assert np.array_equal(bem.assemble_V(s, mesh), bem.assemble_pair(s, mesh)[0])


_MESHES = {(kind, n): bem.make_mesh(kind, n) for kind in ("unit_circle", "l_shape")
           for n in (16, 32)}
_FREQUENCY = st.builds(complex, st.floats(0.05, 300.0), st.floats(-250.0, 250.0))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(_MESHES)), s=st.lists(_FREQUENCY, min_size=1, max_size=4),
       dups=st.lists(st.integers(0, 3), max_size=2))
def test_frequency_batch_assembles_each_frequency_as_alone(key, s, dups):
    # a frequency's matrices do not depend on the batch it is assembled in
    # (duplicates included), and the K0-only route matches the pair route
    mesh = _MESHES[key]
    s = np.array(s + [s[d % len(s)] for d in dups])
    V, K = bem.assemble_pair(s, mesh)
    assert V.shape == K.shape == s.shape + (mesh.n, mesh.n)
    for k, sk in enumerate(s):
        Vk, Kk = bem.assemble_pair(sk, mesh)
        assert np.array_equal(V[k], Vk) and np.array_equal(K[k], Kk), sk
    assert np.array_equal(bem.assemble_V(s, mesh), V)
    if mesh.circulant:
        for op in ("inverse_single_layer", "exterior_dtn"):
            tf = bem.BemTransfer(mesh, op)
            assert np.array_equal(tf.symbol(s), [tf.symbol(sk) for sk in s]), op


# up to |s| = 2500: on the 32-panel L-shape more far pairs than one chunk
# holds (217 at order 48) take the top order there
_WIDE_FREQUENCY = st.builds(complex, st.floats(0.05, 50.0), st.floats(-2500.0, 2500.0))
# 0.5 + 2000i alone takes 217 far pairs at order 48, one chunk; beside
# 0.5 - 2500i (which needs 5 more) its pairs are split 216 + 1
_CHUNK_SPLIT = [(0.5 + 2000j, 0), (0.5 - 2500j, 0), (20.0 + 40j, 1)]


def _chunk_sizes(s, mesh):
    """Per frequency of s, the number of pairs it takes from each entry of
    bem._quadrature_plan, in order."""
    sizes = [[] for _ in s]
    for _, pairs, _, uses in bem._quadrature_plan(np.asarray(s, dtype=complex),
                                                  mesh.pair_plan()):
        for f, sel in uses:
            sizes[f].append(pairs[sel].size)
    return sizes


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["unit_circle", "l_shape"]),
       s=st.lists(_WIDE_FREQUENCY, min_size=1, max_size=5))
@example(kind="l_shape", s=[40.0 + 3.0j, 0.5 - 2500.0j, 40.0 + 3.0j])
def test_quadrature_plan_covers_each_live_class_once(kind, s):
    # every touching class and every far class short of the dead cut is in
    # exactly one use per frequency; no use holds any other class
    plan = _MESHES[(kind, 32)].pair_plan()
    s = np.array(s)
    seen = {"touch": np.zeros((s.size, plan.touch.size), int),
            "far": np.zeros((s.size, plan.far.size), int)}
    for kind_, pairs, (t, w), uses in bem._quadrature_plan(s, plan):
        assert t.shape == w.shape and pairs.size
        for f, sel in uses:
            np.add.at(seen[kind_][f], pairs[sel], 1)
    assert (seen["touch"] == 1).all()
    live = s.real[:, None] * plan.rmin[None, :] <= bem._DEAD_EXPONENT
    assert np.array_equal(seen["far"], live.astype(int))


def _table5_reference_frequencies():
    """The 771 frequencies of the table5 Gauss-3 reference: 257 contour
    nodes of N_ref = 210 steps at eps = 1e-16, three stages each."""
    cfg = preset_configs("table5")[0]
    tab = gauss_tableau(3)
    L, _ = engine._fft_grid(cfg.N_ref, cfg.eps)
    w = engine._contour(tab.A.tobytes(), tab.b.tobytes(), 3, cfg.N_ref, cfg.eps, L // 2 + 1)[0]
    return (w / (cfg.T / cfg.N_ref)).ravel()


def test_quadrature_plan_points_on_the_table5_reference():
    # rule points per kind, |sel| G^2 per use, from the plan alone: no
    # tensor rule is built
    s = _table5_reference_frequencies()
    assert s.size == 771
    plan = bem.make_mesh("l_shape", 64).pair_plan()
    points = {"touch": 0, "far": 0}
    for kind, pairs, (t, _), uses in bem._quadrature_plan(s, plan):
        points[kind] += sum(pairs[sel].size for _, sel in uses) * t.size ** 2
    assert points == {"touch": 31_819_179, "far": 377_423_680}


def test_the_pinned_split_changes_far_chunk_sizes():
    mesh = _MESHES[("l_shape", 32)]
    s = [sk for sk, part in _CHUNK_SPLIT if part == 0]
    assert _chunk_sizes(s, mesh)[0] != _chunk_sizes(s[:1], mesh)[0]


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(draw=st.lists(st.tuples(_WIDE_FREQUENCY, st.integers(0, 2)), min_size=2, max_size=4))
@example(draw=_CHUNK_SPLIT)
def test_any_split_of_a_frequency_array_assembles_each_frequency_as_alone(draw):
    # the frequencies go to assemble_pair in the parts a random split
    # gives; each frequency's matrices equal those of assembling it alone,
    # also where the split changes how its far pairs are chunked
    mesh = _MESHES[("l_shape", 32)]
    s = np.array([sk for sk, _ in draw])
    part = np.array([k for _, k in draw])
    alone = [bem.assemble_pair(sk, mesh) for sk in s]
    for k in np.unique(part):
        V, K = bem.assemble_pair(s[part == k], mesh)
        for f, Vf, Kf in zip(np.flatnonzero(part == k), V, K):
            assert np.array_equal(Vf, alone[f][0]) and np.array_equal(Kf, alone[f][1]), s[f]


def test_mode_transfer_metadata():
    prob = bem.ScatteringProblem("unit_circle", "inverse_single_layer", "monomial_bump",
                                 1.0, 16, 8)
    mesh = bem.make_mesh("unit_circle", 16)
    tf = bem.make_mode_transfer(prob, mesh)
    assert tf.dim == 1 and tf.lanes == 9 and tf.conj_symmetric
    assert tf.key.startswith("bem_modes_unit_circle_inverse_single_layer_16_")
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
        V2, K2 = _gather(single, *bem._assemble(complex(s), single))
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
    # the singleton plan's class c is the c-th pair of the upper triangle
    iu, ju = (k[single.far] for k in np.triu_indices(mesh.n))
    rmin, rmax = bem._pair_r_bounds(mesh, iu, ju)
    cut = bem._DEAD_EXPONENT / s.real
    straddle = (rmin <= cut) & (rmax > cut)
    assert straddle.any()
    i, j = iu[straddle], ju[straddle]
    V1, K1 = bem.assemble_pair(s, mesh)
    V2, K2 = _gather(single, *bem._assemble(s, single))
    assert np.abs(V1[i, j]).min() > 0.0
    for A, B in ((V1, V2), (K1, K2), (K1.T, K2.T)):
        assert np.isfinite(A[i, j]).all()
        assert np.abs(A[i, j] - B[i, j]).max() <= 1e-13 * np.abs(B).max()


# from s = 1 to 0.5 - 2500i, where far pairs take the top order
_ORDER_FREQUENCIES = np.array([1.0, 2.0 + 5.0j, 0.3 - 17.0j, 40.0 + 3.0j, 20.0 + 400.0j,
                               0.5 - 2500.0j])


@pytest.mark.parametrize("kind", ["unit_circle", "l_shape"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_far_pair_order_does_not_change_a_bit(kind, seed):
    # the plan stores its far classes nearest first; any other order of
    # them gives the same V and Kd bit for bit, since each K0/K1 value
    # depends on its argument alone and each pair is contracted on its own
    mesh = _MESHES[(kind, 32)]
    plan = mesh.pair_plan()
    assert np.all(np.diff(plan.rmin) >= 0.0)
    perm = np.random.default_rng(seed).permutation(plan.far.size)
    shuffled = copy.copy(plan)
    for name in ("far", "far_sides", "rmin", "leff"):
        setattr(shuffled, name, getattr(plan, name)[perm])
    V, K = bem.assemble_pair(_ORDER_FREQUENCIES, mesh)
    v, kd = bem._assemble(_ORDER_FREQUENCIES, shuffled)
    assert np.array_equal(v[:, plan.vmap], V)
    assert np.array_equal(kd.reshape(v.shape[:-1] + (-1,))[:, plan.kmap], K)


@pytest.mark.parametrize("with_kd", [True, False])
def test_factored_pairs_skip_k0k1_and_the_rest_take_one_call(monkeypatch, with_kd):
    # rkcq.bessel alone splits arguments by band: a pair whose arguments
    # s R all lie in the series regime (|s R| <= 3) or the asymptotic one
    # (|s R| >= 16.5, Re s R <= 700) takes a factored kernel and never
    # reaches bem.k0k1 or bem.bessel_k0; each _rule_values call hands the
    # arguments of all its other pairs to exactly one such call, also when
    # they span several bands
    mesh = _MESHES[("l_shape", 32)]
    calls, uses = [], []

    def counted(fn):
        def wrapped(z):
            calls.append(np.sort_complex(z.ravel()))
            return fn(z)
        return wrapped

    def rule_values(s, rule, sel, with_kd):
        calls.clear()
        out = real(s, rule, sel, with_kd)
        R = rule.R[sel]
        zmin, zmax = abs(s) * R.min(axis=1), abs(s) * R.max(axis=1)
        factored = (zmax <= 3.0) | ((zmin >= 16.5) & (s.real * R.max(axis=1) <= 700.0))
        uses.append((factored.sum(), list(calls)))
        if factored.all():
            assert not calls
        else:
            assert len(calls) == 1
            assert np.array_equal(calls[0], np.sort_complex((s * R[~factored]).ravel()))
        return out

    real = bem._rule_values
    monkeypatch.setattr(bem, "_rule_values", rule_values)
    monkeypatch.setattr(bem, "k0k1", counted(bem.k0k1))
    monkeypatch.setattr(bem, "bessel_k0", counted(bem.bessel_k0))
    s = np.array([2.0 + 5.0j, 20.0 + 400.0j, 0.5 - 2500.0j])
    if with_kd:
        bem.assemble_pair(s, mesh)
    else:
        bem.assemble_V(s, mesh)
    # some uses are wholly factored, some make one call, some do both, and
    # some calls span three bands or more
    assert any(f and not c for f, c in uses) and any(f and c for f, c in uses)
    assert max(np.unique(band(c[0])).size for _, c in uses if c) >= 3


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
    # a NaN frequency used to reach the quadrature orders and warn there
    for bad in (np.nan, complex(np.nan, 1.0), complex(1.0, np.nan)):
        for assemble in (bem.assemble_pair, bem.assemble_V):
            with pytest.raises(ValueError, match="NaN"):
                assemble(np.array([1.0, bad]), mesh)


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


def test_inverse_single_layer_assembles_V_alone(monkeypatch):
    # the dense route needs no Kd: it is solve(assemble_V(s), M) bit for
    # bit and never calls assemble_pair
    mesh = bem.make_mesh("l_shape", 16)
    M = bem.mass_matrix(mesh)
    s = np.array([1.0, 2.0 + 5.0j])
    expect = [np.linalg.solve(bem.assemble_V(sk, mesh), M) for sk in s]
    monkeypatch.setattr(bem, "assemble_pair", None)
    assert np.array_equal(bem.BemTransfer(mesh, "inverse_single_layer")(s), expect)


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
    # the CamelCase names of the module docstring normalize
    assert bem.BemTransfer(mesh, "ExteriorDtN").operator == "exterior_dtn"
    assert bem.BemTransfer(mesh, "InverseSingleLayer").operator == "inverse_single_layer"


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
    assert tf.key.startswith("bem_unit_circle_exterior_dtn_16_")


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
