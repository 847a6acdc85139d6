"""Correctness checks on a round's outputs, against computations made apart
from the program under test.

Every ``check_*`` function returns a list of failure messages; an empty list
means the output passed.  The ``independent_*`` functions compute the
comparison data: exact solutions with scipy quadrature and closed forms,
Bessel values from ``scipy.special``, Pade coefficients in exact integers.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import integrate, special

# --------------------------------------------------------------------------
# output files


def parse_csv(text):
    """Rows (N, error, eoc or None) of a convergence CSV."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "N_t,error,eoc":
        raise ValueError("not a convergence CSV: header %r" % (lines[:1],))
    rows = []
    for line in lines[1:]:
        n, e, eoc = line.split(",")
        rows.append((int(n), float(e), float(eoc) if eoc else None))
    return rows


def check_determinism(rounds):
    """rounds: one {file name: bytes} per round; all must be identical."""
    fails = []
    first = rounds[0]
    for k, other in enumerate(rounds[1:], 1):
        if set(other) != set(first):
            fails.append("round %d wrote files %s, round 0 wrote %s"
                         % (k, sorted(other), sorted(first)))
            continue
        for name in sorted(first):
            if other[name] != first[name]:
                fails.append("round %d: %s differs from round 0" % (k, name))
    return fails


def check_rows(label, rows, N_list):
    """Grid, finiteness and the eoc column recomputed from the errors."""
    fails = []
    if [r[0] for r in rows] != list(N_list):
        return ["%s: grids %s, expected %s" % (label, [r[0] for r in rows], list(N_list))]
    for k, (N, e, eoc) in enumerate(rows):
        if not (math.isfinite(e) and e > 0):
            fails.append("%s N=%d: error %r not finite and positive" % (label, N, e))
            continue
        if k == 0:
            if eoc is not None:
                fails.append("%s N=%d: first row has an eoc" % (label, N))
            continue
        prev_N, prev_e = rows[k - 1][0], rows[k - 1][1]
        want = math.log(prev_e / e) / math.log(N / prev_N)
        if eoc is None or abs(eoc - want) > 1e-6:
            fails.append("%s N=%d: eoc %r, errors give %.6f" % (label, N, eoc, want))
    return fails


def _row(rows, N):
    for row in rows:
        if row[0] == N:
            return row
    raise KeyError(N)


def _within(label, what, value, lo, hi):
    if value is None or not lo <= value <= hi:
        return ["%s: %s = %r outside [%g, %g]" % (label, what, value, lo, hi)]
    return []


# --------------------------------------------------------------------------
# scalar convergence (table1, table2): K_mu(s) = s^mu / (1 - e^{-s})

# Criteria 1-2 of the acceptance suite: (N, "eoc" | "error", lo, hi)
SCALAR_RATES = {
    "table1_gauss2_mum1": [(128, "eoc", 3.7, 4.3)],
    "table1_gauss2_mu0": [(128, "eoc", 1.8, 2.2)],
    "table1_gauss2_mu1": [(64, "error", 0.3, 0.6), (128, "error", 0.3, 0.6),
                          (128, "eoc", -0.3, 0.3)],
    "table2_gauss3_mu0": [(256, "eoc", 3.6, 4.2)],
    "table2_gauss3_mu0p5": [(256, "eoc", 3.2, 3.8)],
    "table2_gauss3_mu1": [(256, "eoc", 3.6, math.inf)],
}


def _g(t):
    return math.exp(-0.4 * t) * math.sin(t) ** 6


def _dg(t):
    return math.exp(-0.4 * t) * math.sin(t) ** 5 * (6.0 * math.cos(t) - 0.4 * math.sin(t))


def _d_mu(mu, t):
    """(d/dt)^mu g(t) for the causal datum g = e^{-0.4t} sin^6 t."""
    if t <= 0.0:
        return 0.0
    if mu == 0.0:
        return _g(t)
    if mu == 1.0:
        return _dg(t)
    if mu == -1.0:
        return integrate.quad(_g, 0.0, t, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    if mu == 0.5:
        # Riemann-Liouville half derivative; g(0) = 0 moves d/dt inside
        val = integrate.quad(_dg, 0.0, t, weight="alg", wvar=(0.0, -0.5),
                             epsabs=1e-15, epsrel=1e-11, limit=200)[0]
        return val / math.sqrt(math.pi)
    raise ValueError("no exact solution for mu=%r" % mu)


def exact_scalar(mu, T, N):
    """u(t_j) = sum_{k <= t_j} (d/dt)^mu g(t_j - k) on t_j = j T / N.

    1/(1 - e^{-s}) = sum_k e^{-ks}, so K_mu(d/dt) g is the sum of unit
    delays of the mu-th derivative of g.
    """
    t = np.arange(N + 1) * (T / N)
    return np.array([sum(_d_mu(mu, tj - k) for k in range(int(math.floor(tj)) + 1))
                     for tj in t])


def independent_scalar(cfg):
    """Per row of a scalar cell: the error of the program's own coarse
    solution against the exact solution, and the relative distance of the
    program's reference from the exact solution on the same grid."""
    from rkcq.engine import apply_cq, compute_weights, sample_stage_signal, scalar_reference_solution
    from rkcq.kernels import kmu_transfer, sin_pow_exp
    from rkcq.tableaux import gauss_tableau

    if cfg.family != "gauss":
        raise ValueError("scalar presets use Gauss tableaux, got %r" % cfg.family)
    Nmax = max(cfg.N_list)
    uex = exact_scalar(cfg.mu, cfg.T, Nmax)
    K = kmu_transfer(cfg.mu)
    uref = scalar_reference_solution(K, sin_pow_exp, cfg.T, cfg.N_ref, gauss_tableau(3), eps=cfg.eps)
    tab = gauss_tableau(cfg.m)
    e_exact, ref_err = [], []
    for N in cfg.N_list:
        h = cfg.T / N
        u = apply_cq(compute_weights(K, tab, h, N, eps=cfg.eps),
                     sample_stage_signal(sin_pow_exp, h, N, tab.c))
        ue = uex[:: Nmax // N]
        ur = uref[:: cfg.N_ref // N]
        e_exact.append(float(np.linalg.norm(u - ue) / np.linalg.norm(ue)))
        ref_err.append(float(np.linalg.norm(ur - ue) / np.linalg.norm(ue)))
    return e_exact, ref_err


def check_scalar_cell(label, rows, N_list, e_exact, ref_err):
    """The program's errors (against its Gauss-3 reference) must equal the
    errors against the exact solution up to the reference's own distance
    from it, and the rates must follow criteria 1-2."""
    fails = check_rows(label, rows, N_list)
    if fails:
        return fails
    for (N, e, _), ex, rerr in zip(rows, e_exact, ref_err):
        if rerr > 1e-6:
            fails.append("%s N=%d: reference is %.2e from the exact solution" % (label, N, rerr))
        tol = 1.01 * rerr * (1.0 + ex) + 1e-9 * ex
        if abs(e - ex) > tol:
            fails.append("%s N=%d: error %.9e, exact-solution error %.9e (tolerance %.2e)"
                         % (label, N, e, ex, tol))
    for N, what, lo, hi in SCALAR_RATES.get(label, ()):
        val = _row(rows, N)[2 if what == "eoc" else 1]
        fails += _within(label, "%s at N=%d" % (what, N), val, lo, hi)
    return fails


# --------------------------------------------------------------------------
# stability report, one stage count


def pade_exact(m):
    """p_j = (2m - j)! / (j! (m - j)!), exact integers."""
    f = math.factorial
    return [f(2 * m - j) // (f(j) * f(m - j)) for j in range(m + 1)]


def _imag_axis_roots(p, part):
    """Positive y with Im P(iy) = 0 (part='odd') or Re P(iy) = 0 ('even').

    Both parts are polynomials in x = y^2 (the odd one after dividing by
    y); their positive roots give y = sqrt(x).
    """
    start = 1 if part == "odd" else 0
    q = [(-1) ** (j // 2) * p[j] for j in range(start, len(p), 2)]  # ascending in x
    if len(q) < 2:
        return np.zeros(0)
    x = np.roots([float(c) for c in q[::-1]])
    x = x[np.abs(x.imag) <= 1e-9 * np.abs(x)].real
    return np.sort(np.sqrt(x[x > 0]))


def _beta(p, y):
    """Root-path slope |P(iy)|^2 / (|P(iy)|^2 - y^{2m}) from exact coefficients."""
    val = sum(c * (1j * y) ** j for j, c in enumerate(p))
    a2 = abs(val) ** 2
    return a2 / (a2 - y ** (2 * (len(p) - 1)))


def beta3_sqrt60():
    """beta(3, sqrt 60) in exact rational arithmetic: y^2 = 60 makes the
    imaginary part of P_3(iy) vanish, so |P|^2 = (p0 - p2 y^2)^2."""
    p = pade_exact(3)
    y2 = Fraction(60)
    re = p[0] - p[2] * y2
    im2 = y2 * (p[1] - p[3] * y2) ** 2
    a2 = re * re + im2
    return a2 / (a2 - y2 ** 3)


def _close(a, b, rtol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))


def check_stability(m, report):
    label = "stability m=%d" % m
    entry = report.get("per_m", {}).get(str(m))
    if entry is None:
        return ["%s: no entry in the report" % label]
    fails = []
    p = pade_exact(m)
    if entry["pade_coeffs"] != p:
        fails.append("%s: Pade coefficients %s, closed form %s" % (label, entry["pade_coeffs"], p))
    grid = entry["theta_grid"]
    if not grid["max_abs_re_root"] <= 1e-9:
        fails.append("%s: root off the imaginary axis by %r" % (label, grid["max_abs_re_root"]))
    if grid["all_slopes_at_least_one"] is not True:
        fails.append("%s: a root-path slope below 1" % label)
    if grid["min_beta"] is not None and not grid["min_beta"] > 1.0:
        fails.append("%s: min beta %r not above 1" % (label, grid["min_beta"]))
    for key in ("invertibility_and_simplicity", "eigennondegeneracy"):
        if entry[key]["passed"] is not True:
            fails.append("%s: tableau check %s failed" % (label, key))
    rho = _imag_axis_roots(p, "even")
    pi = entry["theta_pi"]
    if not _close(pi["rho"], rho, 1e-9):
        fails.append("%s: theta=pi roots %s, independent %s" % (label, pi["rho"], rho.tolist()))
    elif not _close(pi["gamma"], [_beta(p, y) for y in rho], 1e-8):
        fails.append("%s: theta=pi slopes %s disagree" % (label, pi["gamma"]))
    if m % 2 == 1 and not (pi["E_discrepancy"] is not None and pi["E_discrepancy"] <= 1e-6):
        fails.append("%s: escape constant E discrepancy %r" % (label, pi["E_discrepancy"]))
    if m >= 2:
        r = _imag_axis_roots(p, "odd")
        th0 = entry["theta0"]
        if not _close(th0["r"], r, 1e-9):
            fails.append("%s: theta=0 roots %s, independent %s" % (label, th0["r"], r.tolist()))
        elif not _close(th0["delta"], [_beta(p, y) for y in r], 1e-8):
            fails.append("%s: theta=0 slopes %s disagree" % (label, th0["delta"]))
        if m % 2 == 0 and not (th0["D_discrepancy"] is not None and th0["D_discrepancy"] <= 1e-6):
            fails.append("%s: escape constant D discrepancy %r" % (label, th0["D_discrepancy"]))
        if not entry["cancellation_residual"] <= 1e-9:
            fails.append("%s: cancellation residual %r" % (label, entry["cancellation_residual"]))
    if m == 3:
        exact = beta3_sqrt60()
        if exact != Fraction(5, 2):
            fails.append("beta(3, sqrt 60) = %s in exact arithmetic, not 5/2" % exact)
        d1 = entry["theta0"]["delta"][0]
        if abs(d1 - 2.5) > 1e-12:
            fails.append("%s: delta_1 = %r, not 2.5" % (label, d1))
    return fails


# --------------------------------------------------------------------------
# boundary-element time-domain cells


def reference_floor(rows, N_ref, rate=4.0):
    """Estimated error of a Gauss-3 reference at N_ref from a Gauss-3 cell's
    finest row, assuming the cell's rate (about 4 on both BEM problems)."""
    N, e, _ = rows[-1]
    return e * (N / N_ref) ** rate


# Criterion 8 on the reduced inverse single layer, rows at least
# ABOVE_FLOOR times the reference floor: even m = 2 degrades (every eoc
# <= 1.2), m = 3 keeps order 4 (finest checked eoc in 4 +- 0.5), m = 5
# keeps order >= 5 (first eoc).
ABOVE_FLOOR = 5.0


def check_isl_cells(cells, N_list, N_ref):
    """cells: label -> rows for table3_gauss2/3/5."""
    fails = []
    for label, rows in cells.items():
        fails += check_rows(label, rows, N_list)
    if fails:
        return fails
    floor = reference_floor(cells["table3_gauss3"], N_ref)

    def eocs_above(rows):
        return [(N, eoc) for k, (N, e, eoc) in enumerate(rows)
                if k and e >= ABOVE_FLOOR * floor and rows[k - 1][1] >= ABOVE_FLOOR * floor]

    g2 = eocs_above(cells["table3_gauss2"])
    g3 = eocs_above(cells["table3_gauss3"])
    g5 = eocs_above(cells["table3_gauss5"])
    for name, got in (("gauss2", g2), ("gauss3", g3), ("gauss5", g5)):
        if not got:
            fails.append("table3_%s: no eoc above %g x the reference floor %.2e"
                         % (name, ABOVE_FLOOR, floor))
    if fails:
        return fails
    for N, eoc in g2:
        fails += _within("table3_gauss2", "eoc at N=%d" % N, eoc, -math.inf, 1.2)
    fails += _within("table3_gauss3", "eoc at N=%d" % g3[-1][0], g3[-1][1], 3.5, 4.5)
    fails += _within("table3_gauss5", "eoc at N=%d" % g5[0][0], g5[0][1], 5.0, math.inf)
    return fails


def check_dtn_cells(cells, N_list):
    """At h >= T/7 the Gaussian pulse (width 0.375) is not yet resolved, so
    the criterion-7 rates do not apply; both methods must still converge."""
    fails = []
    for label, rows in cells.items():
        fails += check_rows(label, rows, N_list)
        errs = [e for _, e, _ in rows]
        if not fails and not all(b < a for a, b in zip(errs, errs[1:])):
            fails.append("%s: errors %s do not decrease" % (label, errs))
    return fails


# --------------------------------------------------------------------------
# boundary-element operators at fixed frequencies


def frequencies(rng, count=3):
    """Laplace parameters s = sigma + i omega with sigma in [0.5, 3] and
    |omega| <= 10, inside the band where the tolerances below were set."""
    return [complex(rng.uniform(0.5, 3.0), rng.uniform(-10.0, 10.0)) for _ in range(count)]


def circle_mode_errors(s, V, Kinv, mesh_mid, ell, ks=(0, 1, 2, 3)):
    """Largest relative errors of V (Galerkin single layer) and Kinv (the
    program's inverse single layer V^{-1} M) on Fourier modes k in ks,
    against the panel-integrated eigenvalues ell I_k(s) K_k(s) of the unit
    circle (addition theorem for K0)."""
    theta = np.arctan2(mesh_mid[:, 1], mesh_mid[:, 0])
    err_v = err_inv = 0.0
    for k in ks:
        lam = ell * special.iv(k, s) * special.kv(k, s)
        phi = np.exp(1j * k * theta)
        err_v = max(err_v, np.max(np.abs((V @ phi) / phi / lam - 1.0)))
        err_inv = max(err_inv, np.max(np.abs((Kinv @ phi) / phi * lam / ell - 1.0)))
    return float(err_v), float(err_inv)


# measured on 64 -> 128 panels for |Im s| <= 10: 6e-3..1.4e-2 -> 1.6e-3..3.5e-3,
# a ratio of 0.25-0.26 (second order); a 1% error in V or V^{-1} M stalls it
CIRCLE_SL_TOL = 1e-2
CIRCLE_REFINE = 0.5


def check_circle_single_layer(s, errors):
    """errors: {panels: (V error, V^{-1} M error)} for 64 and 128 panels.
    On 128 panels both must be within CIRCLE_SL_TOL, and doubling the
    panels must at least halve them."""
    fails = []
    for what, j in (("V", 0), ("V^-1 M", 1)):
        coarse, fine = errors[64][j], errors[128][j]
        if not fine <= CIRCLE_SL_TOL:
            fails.append("circle %s(%s): mode error %.2e on 128 panels" % (what, s, fine))
        if not fine < CIRCLE_REFINE * coarse:
            fails.append("circle %s(%s): mode error %.2e on 128 panels, %.2e on 64"
                         % (what, s, fine, coarse))
    return fails


def point_source(s, mid, normal, x0):
    """Trace K0(s|x - x0|) and its exact normal derivative at midpoints."""
    d = mid - x0
    r = np.linalg.norm(d, axis=1)
    u = special.kv(0, s * r)
    dn = -s * special.kv(1, s * r) * np.einsum("kd,kd->k", d, normal) / r
    return u, dn


def dtn_error(out, dn, length):
    """Panel-length-weighted relative l2 distance of a DtN output."""
    return float(np.sqrt(np.sum(length * np.abs(out - dn) ** 2) / np.sum(length * np.abs(dn) ** 2)))


# DtN point-source tolerances, from the measured 5e-4..5e-3 (circle, 64
# panels) and 3e-2..1.4e-1 (L-shape, 64 panels) over |Im s| <= 15.  On the
# circle doubling the panels cuts the error about 4x (measured 0.25-0.26);
# a 2% error in Kd(s) leaves the ratio near 1.
DTN_TOL = {"unit_circle": 1e-2, "l_shape": 0.2}


def check_dtn_point_source(s, errors):
    """errors: {(geometry, panels): relative error} on 64 and 128 panels.
    Each must be inside its tolerance; doubling the panels must reduce the
    L-shape error and at least halve the circle error."""
    fails = []
    for (geom, n), err in sorted(errors.items()):
        if not err <= DTN_TOL[geom]:
            fails.append("DtN %s/%d at s=%s: error %.2e above %.0e" % (geom, n, s, err, DTN_TOL[geom]))
    for geom, factor in (("l_shape", 1.0), ("unit_circle", CIRCLE_REFINE)):
        coarse, fine = errors[(geom, 64)], errors[(geom, 128)]
        if not fine < factor * coarse:
            fails.append("DtN %s at s=%s: error %.2e at 128 panels, %.2e at 64"
                         % (geom, s, fine, coarse))
    return fails


# --------------------------------------------------------------------------
# one workload's outputs


def verify(workload, ops, files, rng):
    """All checks of one round's output files (name -> text) for the
    operations that did not fail.  rng picks the check frequencies and
    source points."""
    import json

    from rkcq import bem

    fails = []
    cells = {}
    for op_id, spec in sorted(ops.items()):
        name = op_id + (".json" if isinstance(spec, int) else ".csv")
        if name not in files:
            continue  # a failed operation: counted, not checked
        if isinstance(spec, int):
            fails += check_stability(spec, json.loads(files[name]))
            continue
        rows = parse_csv(files[name])
        if spec.experiment == "scalar_convergence":
            e_exact, ref_err = independent_scalar(spec)
            fails += check_scalar_cell(op_id, rows, spec.N_list, e_exact, ref_err)
        else:
            cells[op_id] = rows
    if workload == "isl_circle_fine" and cells:
        cfg = next(iter(ops.values()))
        if len(cells) == len(ops):
            fails += check_isl_cells(cells, cfg.N_list, cfg.N_ref)
        transfers = {}
        for n in (64, 128):
            mesh = bem.make_mesh(cfg.geometry, n)
            problem = bem.ScatteringProblem(cfg.geometry, cfg.operator, cfg.datum, cfg.T,
                                            n, cfg.N_ref)
            transfers[n] = (mesh, bem.make_transfer(problem, mesh))
        for s in frequencies(rng):
            errors = {n: circle_mode_errors(s, bem.assemble_V(s, mesh), K(s), mesh.mid,
                                            float(mesh.length[0]))
                      for n, (mesh, K) in transfers.items()}
            fails += check_circle_single_layer(s, errors)
    if workload == "dtn_lshape" and cells:
        cfg = next(iter(ops.values()))
        fails += check_dtn_cells(cells, cfg.N_list)
        meshes = {(g, n): bem.make_mesh(g, n)
                  for g in ("unit_circle", "l_shape") for n in (64, 128)}
        for s in frequencies(rng):
            # a source strictly inside each obstacle, away from its boundary
            x_circle = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)])
            x_lshape = np.array([rng.uniform(-0.6, -0.2), rng.uniform(-0.6, -0.2)])
            errors = {}
            for (geom, n), mesh in meshes.items():
                problem = bem.ScatteringProblem(geom, "exterior_dtn", cfg.datum, cfg.T, n, cfg.N_ref)
                u, dn = point_source(s, mesh.mid, mesh.normal,
                                     x_circle if geom == "unit_circle" else x_lshape)
                out = bem.make_transfer(problem, mesh)(s) @ u
                errors[(geom, n)] = dtn_error(out, dn, mesh.length)
            fails += check_dtn_point_source(s, errors)
    return fails
