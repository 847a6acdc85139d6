"""Each benchmark check accepts the program's real output and rejects a
perturbed copy of it."""

import math
import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks  # noqa: E402
import workloads  # noqa: E402
from rkcq import bem, harness  # noqa: E402


def _with_errors(rows, errors):
    """Rows with new errors and the eoc column recomputed to match, so that
    only the check under test can see the change."""
    out = []
    for k, ((N, _, _), e) in enumerate(zip(rows, errors)):
        eoc = None if k == 0 else math.log(errors[k - 1] / e) / math.log(N / rows[k - 1][0])
        out.append((N, e, None if eoc is None else round(eoc, 6)))
    return out


def test_determinism_rejects_changed_bytes():
    a = {"x.csv": b"N_t,error,eoc\n8,1.0e-01,\n"}
    assert checks.check_determinism([a, dict(a)]) == []
    assert checks.check_determinism([a, {"x.csv": b"N_t,error,eoc\n8,1.1e-01,\n"}])
    assert checks.check_determinism([a, {}])


def test_rows_reject_eoc_column_and_grid():
    rows = _with_errors([(4, 0, 0), (8, 0, 0), (16, 0, 0)], [1e-2, 1e-3, 1e-4])
    assert checks.check_rows("c", rows, (4, 8, 16)) == []
    bad = rows[:2] + [(16, rows[2][1], rows[2][2] + 1e-3)]
    assert checks.check_rows("c", bad, (4, 8, 16))
    assert checks.check_rows("c", rows, (4, 8, 32))


@pytest.fixture(scope="module")
def scalar_cell():
    cfg = workloads.configs("scalar")["table1_gauss2_mu0"]
    rows = harness.run_scalar_convergence(cfg).rows
    rows = [(N, e, None if eoc is None else round(float(eoc), 6)) for N, e, eoc in rows]
    return cfg, rows, checks.independent_scalar(cfg)


def test_scalar_exact_solution_check(scalar_cell):
    cfg, rows, (e_exact, ref_err) = scalar_cell
    label = "table1_gauss2_mu0"
    assert checks.check_scalar_cell(label, rows, cfg.N_list, e_exact, ref_err) == []
    errors = [e for _, e, _ in rows]
    errors[2] *= 1.001
    perturbed = _with_errors(rows, errors)
    assert any("exact-solution" in f for f in
               checks.check_scalar_cell(label, perturbed, cfg.N_list, e_exact, ref_err))


def test_scalar_rate_check(scalar_cell):
    cfg, rows, _ = scalar_cell
    # errors falling at rate 3 keep their own exact-solution agreement but
    # break the criterion-1 rate 2 at mu = 0
    errors = [rows[0][1] * (cfg.N_list[0] / N) ** 3 for N in cfg.N_list]
    fails = checks.check_scalar_cell("table1_gauss2_mu0", _with_errors(rows, errors),
                                     cfg.N_list, errors, [0.0] * len(errors))
    assert any("eoc at N=128" in f for f in fails)


def test_exact_solution_matches_closed_forms():
    t = 3.0 * np.arange(9) / 8
    g = np.exp(-0.4 * t) * np.sin(t) ** 6
    # mu = 0: u(t) = g(t) + g(t - 1) + g(t - 2)
    want = sum(np.where(t - k > 0, np.exp(-0.4 * (t - k)) * np.sin(t - k) ** 6, 0.0)
               for k in range(3))
    assert np.allclose(checks.exact_scalar(0.0, 3.0, 8), want, rtol=0, atol=1e-15)
    assert np.allclose(checks.exact_scalar(0.0, 3.0, 8)[t < 1], g[t < 1])


@pytest.fixture(scope="module")
def report3():
    return harness.run_stability_report([3])


def test_stability_check_accepts_program(report3):
    assert checks.check_stability(3, report3) == []
    assert checks.beta3_sqrt60() == 2.5


@pytest.mark.parametrize("path, delta", [
    (("pade_coeffs", 1), 1),
    (("theta0", "delta", 0), 1e-9),
    (("theta0", "r", 0), 1e-6),
    (("theta_pi", "rho", 0), 1e-6),
    (("theta_pi", "gamma", 0), 1e-6),
    (("cancellation_residual",), 1e-6),
])
def test_stability_check_rejects_perturbation(report3, path, delta):
    import copy

    bad = copy.deepcopy(report3)
    node = bad["per_m"]["3"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    assert checks.check_stability(3, bad)


def test_isl_cells_check():
    # errors measured on the reduced table3 grids (N_ref = 30)
    cells = {
        "table3_gauss2": [18.3, 15.1, 9.75],
        "table3_gauss3": [4.48, 2.43, 0.342],
        "table3_gauss5": [0.121, 0.0394, 0.00285],
    }
    N_list, N_ref = (5, 6, 10), 30

    def rows(c):
        return {k: _with_errors([(N, 0, 0) for N in N_list], v) for k, v in c.items()}

    assert checks.check_isl_cells(rows(cells), N_list, N_ref) == []
    for label, errs in (("table3_gauss2", [18.3, 15.1, 5.0]),
                        ("table3_gauss3", [4.48, 2.43, 0.9]),
                        ("table3_gauss5", [0.121, 0.08, 0.00285])):
        assert checks.check_isl_cells(rows({**cells, label: errs}), N_list, N_ref), label


def test_dtn_cells_check():
    rows = _with_errors([(3, 0, 0), (7, 0, 0)], [0.565, 0.166])
    assert checks.check_dtn_cells({"g": rows}, (3, 7)) == []
    assert checks.check_dtn_cells({"g": _with_errors(rows, [0.565, 0.6])}, (3, 7))


def test_circle_single_layer_check():
    s = 1.5 + 4.0j
    parts = {}
    for n in (64, 128):
        mesh = bem.make_mesh("unit_circle", n)
        K = bem.make_transfer(bem.ScatteringProblem("unit_circle", "inverse_single_layer",
                                                    "monomial_bump", 1.0, n, 8), mesh)
        parts[n] = (bem.assemble_V(s, mesh), K(s), mesh.mid, float(mesh.length[0]))

    def errors(v_scale=1.0, inv_scale=1.0):
        return {n: checks.circle_mode_errors(s, v_scale * V, inv_scale * Kinv, mid, ell)
                for n, (V, Kinv, mid, ell) in parts.items()}

    assert checks.check_circle_single_layer(s, errors()) == []
    assert checks.check_circle_single_layer(s, errors(v_scale=1.01))
    assert checks.check_circle_single_layer(s, errors(inv_scale=0.99))


def test_dtn_point_source_check():
    rng = random.Random(3)
    s = checks.frequencies(rng, 1)[0]
    errors = {}
    outs = {}
    for geom, x0 in (("unit_circle", np.array([0.2, -0.1])), ("l_shape", np.array([-0.4, -0.3]))):
        for n in (64, 128):
            mesh = bem.make_mesh(geom, n)
            K = bem.make_transfer(bem.ScatteringProblem(geom, "exterior_dtn",
                                                        "traveling_gaussian", 3.0, n, 8), mesh)
            u, dn = checks.point_source(s, mesh.mid, mesh.normal, x0)
            outs[(geom, n)] = (K(s) @ u, dn, mesh.length)
            errors[(geom, n)] = checks.dtn_error(*outs[(geom, n)])
    assert checks.check_dtn_point_source(s, errors) == []
    out, dn, length = outs[("l_shape", 64)]
    flipped = dict(errors)
    flipped[("l_shape", 64)] = checks.dtn_error(-out, dn, length)
    assert checks.check_dtn_point_source(s, flipped)
    for geom in ("l_shape", "unit_circle"):
        stalled = dict(errors)
        stalled[(geom, 128)] = errors[(geom, 64)]
        assert checks.check_dtn_point_source(s, stalled), geom
