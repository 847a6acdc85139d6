"""End-to-end acceptance checks, one numbered criterion per test.

Each test evaluates its checks, records one CRITERION n: PASS/FAIL line
(echoed in the terminal summary), and then asserts.  The heavy table runs
are shared through module-scoped fixtures so every stated runtime budget
covers the actual work, not repeated setup.
"""

import math
import time

import numpy as np
import pytest

from rkcq.engine import TransferFunction, apply_cq, compute_weights, sample_stage_signal
from rkcq.harness import ExperimentConfig, run_config, run_stability_report, run_table
from rkcq.kernels import kmu_transfer, power_transfer, sin_pow_exp
from rkcq.stability import (
    beta_coefficient,
    beta_from_residue,
    cancellation_check,
    delta_spectrum_matches,
)
from rkcq.tableaux import gauss_tableau, radau_iia_tableau

CRITERION_LINES = []


def _report(num, checks):
    """checks: list of (description, bool, value-string) triples."""
    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(
        "%s %s%s" % (name, val, "" if passed else " [FAILED]")
        for name, passed, val in checks
    )
    line = "CRITERION %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _cell(index, label):
    for cell in index["cells"]:
        if cell["label"] == label:
            return cell
    raise KeyError(label)


def _row(cell, N):
    for row in cell["rows"]:
        if row[0] == N:
            return row
    raise KeyError(N)


@pytest.fixture(scope="module")
def table1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    t0 = time.perf_counter()
    index = run_table("table1", str(out))
    return index, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("table2")
    t0 = time.perf_counter()
    index = run_table("table2", str(out))
    return index, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("table3")
    t0 = time.perf_counter()
    index = run_table("table3", str(out))
    return index, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table4_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("table4")
    t0 = time.perf_counter()
    index = run_table("table4", str(out))
    return index, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table5_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("table5")
    t0 = time.perf_counter()
    index = run_table("table5", str(out))
    return index, time.perf_counter() - t0


def test_criterion_1_two_stage_scalar_convergence(table1_run):
    # scalar kernels s^mu, 2-stage Gauss, T=3, reference at 2048 steps:
    # full order 4 at mu=-1, order 2 at mu=0, stagnation near 0.45 at mu=1
    index, wall = table1_run
    em1 = _row(_cell(index, "gauss2_mum1"), 128)[2]
    e0 = _row(_cell(index, "gauss2_mu0"), 128)[2]
    cell1 = _cell(index, "gauss2_mu1")
    err64 = _row(cell1, 64)[1]
    err128 = _row(cell1, 128)[1]
    e1 = _row(cell1, 128)[2]
    _report(1, [
        ("mu=-1 eoc(64->128)", abs(em1 - 4.0) <= 0.3, "%.3f" % em1),
        ("mu=0 eoc(64->128)", abs(e0 - 2.0) <= 0.2, "%.3f" % e0),
        ("mu=1 errors", 0.3 <= err64 <= 0.6 and 0.3 <= err128 <= 0.6,
         "%.3f/%.3f" % (err64, err128)),
        ("mu=1 |eoc|", abs(e1) <= 0.3, "%.3f" % e1),
        ("runtime<=60s", wall <= 60.0, "%.1fs" % wall),
    ])


def test_criterion_2_three_stage_scalar_convergence(table2_run):
    # 3-stage Gauss: order 4 at mu=0, intermediate at mu=1/2, and mu=1
    # converging above the stage-order-plus-one rate 3
    index, wall = table2_run
    e0 = _row(_cell(index, "gauss3_mu0"), 256)[2]
    eh = _row(_cell(index, "gauss3_mu0p5"), 256)[2]
    e1 = _row(_cell(index, "gauss3_mu1"), 256)[2]
    _report(2, [
        ("mu=0 eoc(128->256)", abs(e0 - 3.9) <= 0.3, "%.3f" % e0),
        ("mu=1/2 eoc", 3.2 <= eh <= 3.8, "%.3f" % eh),
        ("mu=1 eoc", e1 >= 3.6, "%.3f" % e1),
        ("runtime<=60s", wall <= 60.0, "%.1fs" % wall),
    ])


def test_criterion_3_stability_sweep_and_exact_values():
    # unit-modulus roots of the stability function stay on the imaginary
    # axis with outward-moving branches for m=1..6; two exact values pin
    # down the root modulus and slope formulas at m=3
    t0 = time.perf_counter()
    report = run_stability_report(range(1, 7))
    max_re = 0.0
    min_beta = np.inf
    slopes_ok = True
    for m in range(1, 7):
        grid = report["per_m"][str(m)]["theta_grid"]
        max_re = max(max_re, grid["max_abs_re_root"])
        min_beta = min(min_beta, grid["min_beta"])
        slopes_ok = slopes_ok and grid["all_slopes_at_least_one"]
    delta1 = report["per_m"]["3"]["theta0"]["delta"][0]
    y = math.sqrt(60.0)
    b1 = beta_coefficient(3, y)
    b2 = beta_from_residue(3, y)
    wall = time.perf_counter() - t0
    _report(3, [
        ("max|Re root|<=1e-9", max_re <= 1e-9, "%.2e" % max_re),
        ("slopes>=1 everywhere", slopes_ok, str(slopes_ok)),
        ("min beta>1", min_beta > 1.0, "1+%.1e" % (min_beta - 1.0)),
        ("delta_1(m=3)=2.5", abs(delta1 - 2.5) <= 1e-12, "%.15f" % delta1),
        ("beta(3,sqrt60)=2.5", abs(b1 - 2.5) <= 1e-12, "%.15f" % b1),
        ("two beta formulas agree", abs(b1 - b2) <= 1e-12, "%.2e" % abs(b1 - b2)),
        ("runtime seconds", wall <= 30.0, "%.1fs" % wall),
    ])


def test_criterion_4_delta_spectrum_identity():
    # eigenvalues of Delta(zeta) coincide with the solutions of
    # R(z) = 1/zeta for Gauss and Radau IIA alike
    rng = np.random.default_rng(2026)
    radii = rng.uniform(0.05, 0.95, size=50)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=50)
    zetas = radii * np.exp(1j * angles)
    worst = 0.0
    for make in (gauss_tableau, radau_iia_tableau):
        for m in range(2, 6):
            tab = make(m)
            for zeta in zetas:
                worst = max(worst, delta_spectrum_matches(tab, zeta))
    _report(4, [
        ("max Hausdorff distance", worst <= 1e-8, "%.2e" % worst),
    ])


def test_criterion_5_imaginary_axis_cancellation():
    # the combination b^T[(I-irA)^{-1} + (-1)^m (I+irA)^{-1}] C vanishes at
    # every unit-modulus root r for all stage counts in desk range
    worst = max(cancellation_check(m) for m in range(3, 13))
    _report(5, [
        ("max normalized residual", worst <= 1e-9, "%.2e" % worst),
    ])


def test_criterion_6_engine_oracles():
    tab = gauss_tableau(3)
    # K(s) = 1 is the identity convolution
    ident = TransferFunction(fn=lambda s: np.ones_like(np.asarray(s, dtype=complex)), dim=1)
    ws = compute_weights(ident, tab, 0.05, 32)
    tail = sum(np.linalg.norm(ws.W[j]) for j in range(1, 33))
    # K(s) = 1/s integrates t^3 exactly up to quadrature error
    h, N = 3.0 / 64, 64
    wi = compute_weights(power_transfer(-1.0), tab, h, N)
    u = apply_cq(wi, sample_stage_signal(lambda t: np.asarray(t) ** 3, h, N, tab.c))
    t = np.arange(N + 1) * h
    cubic_err = np.abs(u - t ** 4 / 4.0).max()
    # the weights of s^(1/2) convolved with themselves give the weights of s
    hc, Nc = 0.1, 24
    Wh = compute_weights(power_transfer(0.5), tab, hc, Nc).W
    Wd = compute_weights(power_transfer(1.0), tab, hc, Nc).W
    conv = np.zeros_like(Wd)
    for j in range(Nc + 1):
        for k in range(j + 1):
            conv[j] += Wh[j - k] @ Wh[k]
    comp_err = np.abs(conv - Wd).max()
    _report(6, [
        ("identity tail sum", tail <= 1e-9, "%.2e" % tail),
        ("cubic integration error", cubic_err <= 1e-8, "%.2e" % cubic_err),
        ("half-power composition", comp_err <= 1e-9, "%.2e" % comp_err),
    ])


@pytest.mark.slow
def test_criterion_7_dtn_map_convergence(table4_run, table5_run):
    # exterior Dirichlet-to-Neumann runs on the circle and the L-shape with
    # the traveling Gaussian datum: 3-stage Gauss converges at the
    # superconvergent rate ~4, 3-stage Radau IIA at its stage-order rate 3
    idx4, wall4 = table4_run
    idx5, wall5 = table5_run
    checks = []
    for name, index in (("circle", idx4), ("l-shape", idx5)):
        g = _row(_cell(index, "gauss3"), 70)
        r = _row(_cell(index, "radau_iia3"), 70)
        checks.append(("%s gauss3 eoc(42->70)" % name,
                       abs(g[2] - 4.1) <= 0.4, "%.3f" % g[2]))
        checks.append(("%s radau3 eoc(42->70)" % name,
                       abs(r[2] - 3.0) <= 0.3, "%.3f" % r[2]))
        checks.append(("%s errors at N=70" % name, True,
                       "gauss %.3e radau %.3e" % (g[1], r[1])))
    total = wall4 + wall5
    checks.append(("combined runtime<=15min", total <= 900.0, "%.0fs" % total))
    _report(7, checks)


def test_criterion_8_inverse_single_layer_convergence(table3_run):
    # single-layer inversion with the t^15 datum: odd stage counts keep
    # order m+1 while the even count m=2 degrades toward order ~0.5
    index, _ = table3_run
    m3 = _cell(index, "gauss3")
    mid3 = [_row(m3, N)[2] for N in (10, 14, 15)]
    m2 = _cell(index, "gauss2")
    eocs2 = [row[2] for row in m2["rows"] if row[2] is not None]
    m5 = _cell(index, "gauss5")
    first5 = [_row(m5, N)[2] for N in (7, 10)]
    _report(8, [
        ("m=3 middle eocs in 4+-0.5",
         all(abs(e - 4.0) <= 0.5 for e in mid3),
         "/".join("%.2f" % e for e in mid3)),
        ("m=2 eocs <= 1.2", all(e <= 1.2 for e in eocs2),
         "/".join("%.2f" % e for e in eocs2)),
        ("m=5 first eocs >= 5", all(e >= 5.0 for e in first5),
         "/".join("%.2f" % e for e in first5)),
    ])


def test_criterion_9_determinism_and_causality(tmp_path):
    # identical configs must produce byte-identical CSV output, and the
    # discrete convolution must not let future inputs touch past outputs
    cfg = ExperimentConfig(
        "scalar_convergence", "gauss", 2, 0.0, T=3.0,
        N_list=(16, 32), N_ref=64, label="determinism",
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_config(cfg, str(out1))
    run_config(cfg, str(out2))
    bytes1 = (out1 / "determinism.csv").read_bytes()
    bytes2 = (out2 / "determinism.csv").read_bytes()

    tab = gauss_tableau(2)
    h, N = 0.1, 20
    ws = compute_weights(kmu_transfer(1.0), tab, h, N)
    g = sample_stage_signal(sin_pow_exp, h, N, tab.c)
    u0 = apply_cq(ws, g)
    g2 = g.copy()
    g2[11:] += 37.5
    u1 = apply_cq(ws, g2)
    _report(9, [
        ("csv bytes identical", bytes1 == bytes2, "%d bytes" % len(bytes1)),
        ("past outputs untouched", bool(np.array_equal(u0[:11], u1[:11])),
         "steps 0..10"),
        ("future outputs respond", bool(np.abs(u1[11:] - u0[11:]).max() > 1e-3),
         "perturbed"),
    ])
