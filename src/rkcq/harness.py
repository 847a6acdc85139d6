"""Config-driven convergence studies and stability reports.

Each experiment cell produces rows (N_t, error, eoc) written as CSV with a
JSON index binding files to their configurations.  Output is deterministic:
identical configs yield bit-identical CSV (wall times live only in the
index).  Presets table1..table5 reproduce the published scalar and
boundary-element convergence studies at desk scale.
"""

import functools
import hashlib
import json
import os
import re
import time
import warnings
import zipfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import stability
from .bem import ScatteringProblem, error_metric, make_mesh, make_mode_transfer, make_transfer
from .engine import (
    apply_cq,
    compute_weights,
    load_weights,
    sample_stage_signal,
    save_weights,
    scalar_reference_solution,
    weights_shape,
)
from .kernels import DATA, kmu_transfer, sin_pow_exp, snake_name
from .tableaux import (
    gauss_tableau,
    radau_iia_tableau,
    tableau_to_json,
    verify_invertibility_and_simplicity,
    verify_eigenvector_nondegeneracy,
)

__all__ = [
    "ExperimentConfig",
    "ConvergenceReport",
    "run_scalar_convergence",
    "run_bem_convergence",
    "run_stability_report",
    "run_cancellation_table",
    "preset_configs",
    "run_table",
    "run_config",
]


_FAMILIES = {"gauss": gauss_tableau, "radau_iia": radau_iia_tableau, "radau": radau_iia_tableau}


def _tableau(family, m):
    return _FAMILIES[snake_name(family)](m)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell; JSON configs mirror these fields exactly."""

    experiment: str
    family: str = "gauss"
    m: int = 3
    mu: float = 0.0
    geometry: str = "unit_circle"
    operator: str = "exterior_dtn"
    datum: str = "sin_pow_exp"
    T: float = 3.0
    N_list: tuple = ()
    N_ref: int = 2048
    n_panels: int = 64
    m_range: tuple = tuple(range(1, 13))
    eps: float = 1e-24
    threads: int = 1
    weights_cache: str = None
    label: str = None

    def __post_init__(self):
        # every construction path (direct, from_dict, replace) checks the
        # fields before any reference solve; the comparisons are written so
        # that NaN fails them
        def bad(name, why):
            raise ValueError("config field %s=%r: %s" % (name, getattr(self, name), why))

        if snake_name(self.family) not in _FAMILIES:
            bad("family", "unknown tableau family, choose from %s" % ", ".join(_FAMILIES))
        if not (isinstance(self.m, (int, np.integer)) and 1 <= self.m <= 12):
            bad("m", "the stage count must be an integer in [1, 12]")
        if not (0.0 < self.eps < 1.0):
            bad("eps", "the contour parameter must lie in (0, 1)")
        if not np.isfinite(self.mu):
            bad("mu", "must be finite")
        if not (0.0 < self.T < np.inf):
            bad("T", "the final time must be positive and finite")
        if not (isinstance(self.threads, (int, np.integer)) and self.threads >= 1):
            bad("threads", "need at least one worker")
        if self.experiment in ("scalar_convergence", "bem_convergence"):
            if not self.N_list:
                bad("N_list", "a convergence run needs at least one grid")
            for N in self.N_list:
                if not (1 <= N <= self.N_ref and self.N_ref % N == 0):
                    bad("N_list", "N_t=%r does not divide N_ref=%r" % (N, self.N_ref))

    @staticmethod
    def from_dict(d):
        allowed = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(d) - allowed
        if unknown:
            raise ValueError("unknown config keys: %s" % sorted(unknown))
        d = dict(d)
        for key in ("N_list", "m_range"):
            if key in d:
                d[key] = tuple(d[key])
        return ExperimentConfig(**d)

    def to_dict(self):
        d = asdict(self)
        d["N_list"] = list(d["N_list"])
        d["m_range"] = list(d["m_range"])
        return d


@dataclass
class ConvergenceReport:
    config: ExperimentConfig
    rows: list
    meta: dict = field(default_factory=dict)

    def to_csv(self):
        lines = ["N_t,error,eoc"]
        for N, err, eoc in self.rows:
            lines.append("%d,%.17e,%s" % (N, err, "" if eoc is None else "%.6f" % eoc))
        return "\n".join(lines) + "\n"


def _attach_eocs(N_list, errors):
    rows = []
    for k, (N, e) in enumerate(zip(N_list, errors)):
        if k == 0 or errors[k - 1] <= 0 or e <= 0:
            rows.append((N, e, None))
        else:
            rows.append((N, e, np.log(errors[k - 1] / e) / np.log(N / N_list[k - 1])))
    return rows


def _weights_identity(key, tab, eps, N, h, shape):
    # everything a cached weight set must match to be reused
    return {
        "key": key,
        "tableau": hashlib.sha256(tableau_to_json(tab).encode()).hexdigest(),
        "eps": eps,
        "N": N,
        "h": h,
        "shape": list(shape),
    }


@functools.lru_cache(maxsize=None)
def _source_digest():
    """SHA-256 of the package's Python sources, read on first use only."""
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(here) if f.endswith(".py")):
        with open(os.path.join(here, name), "rb") as f:
            h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def _weights_cache_path(cfg, K, tab, h, N):
    """Cache file of K's weights and the identity a stored set must match.

    The file name also hashes the package sources, so weights written by
    other code (another quadrature, say) are never served.
    """
    ident = _weights_identity(K.key, tab, cfg.eps, N, h, weights_shape(K, tab, N))
    named = dict(ident, code=_source_digest())
    digest = hashlib.sha256(json.dumps(named, sort_keys=True).encode()).hexdigest()[:24]
    name = "%s_%s.npz" % (re.sub(r"[^A-Za-z0-9_.-]", "_", K.key), digest)
    return os.path.join(cfg.weights_cache, name), ident


def _load_cached_weights(path, ident):
    # None when the file is missing, unreadable (a truncated .npz) or made
    # for another kernel, tableau, eps, grid or weight shape
    try:
        wset = load_weights(path)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    got = _weights_identity(wset.key, wset.tableau, wset.eps, wset.N, wset.h, wset.W.shape)
    return wset if got == ident else None


def _weights(cfg, K, tab, h, N):
    """Compute weights, reusing the on-disk cache when one is configured.

    Kernels without a key are never cached: nothing tells two of them
    apart.
    """
    if not cfg.weights_cache or K.key is None:
        return compute_weights(K, tab, h, N, eps=cfg.eps, threads=cfg.threads)
    os.makedirs(cfg.weights_cache, exist_ok=True)
    path, ident = _weights_cache_path(cfg, K, tab, h, N)
    wset = _load_cached_weights(path, ident)
    if wset is None:
        wset = compute_weights(K, tab, h, N, eps=cfg.eps, threads=cfg.threads)
        save_weights(wset, path)
    return wset


def run_scalar_convergence(cfg):
    """Relative discrete l2 error of CQ for K_mu against a fine reference.

    The reference is the 3-stage Gauss solution at N_ref steps: its own
    error is orders of magnitude below every coarse run, so measured errors
    reflect the method under study even where it does not converge (a
    self-reference at equal stage count would hide stagnation).
    """
    if snake_name(cfg.datum) != "sin_pow_exp":
        raise ValueError("scalar convergence runs use the sin_pow_exp datum")
    tab = _tableau(cfg.family, cfg.m)
    K = kmu_transfer(cfg.mu)
    t0 = time.perf_counter()
    uref = scalar_reference_solution(K, sin_pow_exp, cfg.T, cfg.N_ref, gauss_tableau(3), eps=cfg.eps)
    errors = []
    for N in cfg.N_list:
        h = cfg.T / N
        wset = _weights(cfg, K, tab, h, N)
        u = apply_cq(wset, sample_stage_signal(sin_pow_exp, h, N, tab.c))
        ur = uref[:: cfg.N_ref // N]
        errors.append(float(np.linalg.norm(u - ur) / np.linalg.norm(ur)))
    rows = _attach_eocs(cfg.N_list, errors)
    return ConvergenceReport(cfg, rows, {"wall_time_s": time.perf_counter() - t0})


def _bem_stage_samples(datum_fn, mesh, tab, h, N):
    t = np.arange(N + 1) * h
    ts = t[:, None] + tab.c[None, :] * h
    out = np.asarray(datum_fn(mesh.mid, ts[..., None]), dtype=float)
    if out.shape != (N + 1, tab.m, mesh.n):
        out = np.broadcast_to(out, (N + 1, tab.m, mesh.n)).copy()
    if np.max(np.abs(np.asarray(datum_fn(mesh.mid, 0.0)))) > 1e-12:
        warnings.warn("boundary datum does not vanish at t=0; CQ error bounds degrade")
    return out


@functools.lru_cache(maxsize=8)
def _shared_mesh(geometry, n_panels):
    # one mesh per (geometry, n_panels), so a reference and its cells share
    # the pair plan, the Gauss-Legendre points and V(1)
    return make_mesh(geometry, n_panels)


def _bem_setup(cfg):
    """Mesh and transfer function of a cell: the per-mode (diagonal) kernel
    on a circulant mesh, the dense matrix kernel otherwise."""
    mesh = _shared_mesh(cfg.geometry, cfg.n_panels)
    problem = ScatteringProblem(
        geometry=cfg.geometry,
        operator=cfg.operator,
        datum=cfg.datum,
        T=cfg.T,
        n_panels=cfg.n_panels,
        N_t=cfg.N_ref,
    )
    if mesh.circulant:
        return mesh, make_mode_transfer(problem, mesh)
    return mesh, make_transfer(problem, mesh)


def _bem_traces(wset, samples):
    """Panel-space grid traces (N+1, n) from stage samples (N+1, m, n).

    Per-mode weights act on the real FFT of the samples along the panel
    axis, and the traces come back through the inverse transform.
    """
    if wset.W.ndim == 4:
        modes = apply_cq(wset, np.fft.rfft(samples, axis=-1))
        return np.fft.irfft(modes, n=samples.shape[-1], axis=-1)
    return apply_cq(wset, samples)


def bem_reference_key(cfg):
    """Cells that may share one reference solution agree on this key."""
    return (cfg.geometry, cfg.operator, snake_name(cfg.datum), cfg.T, cfg.N_ref,
            cfg.n_panels, cfg.eps)


def bem_reference_solution(cfg):
    """Grid traces of the 3-stage Gauss solution at N_ref steps.

    Gauss-3 doubles as the reference because its contour frequencies stay
    below ~5 N_ref / T in modulus before turning into the heavily damped
    Re s > 30 region, which keeps the frequency-adaptive assembly cheap;
    higher-stage methods sweep much larger |s| at small Re s for the same
    accuracy return.  At N_ref the time error sits two orders below the
    coarsest-grid errors under study.
    """
    mesh, K = _bem_setup(cfg)
    datum_fn = DATA[snake_name(cfg.datum)]
    ref_tab = gauss_tableau(3)
    h_ref = cfg.T / cfg.N_ref
    wref = _weights(cfg, K, ref_tab, h_ref, cfg.N_ref)
    return _bem_traces(wref, _bem_stage_samples(datum_fn, mesh, ref_tab, h_ref, cfg.N_ref))


def run_bem_convergence(cfg, reference=None):
    """Time-domain boundary-density convergence in the energy-norm metric.

    The reference is the 3-stage Gauss solution at N_ref steps on the same
    mesh (precomputed traces can be passed in so runs differing only in the
    method under study share one reference); all coarse grids must divide
    the reference grid so traces compare at shared time nodes.
    """
    tab = _tableau(cfg.family, cfg.m)
    mesh, K = _bem_setup(cfg)
    datum_fn = DATA[snake_name(cfg.datum)]
    t0 = time.perf_counter()
    uref = bem_reference_solution(cfg) if reference is None else reference
    errors = []
    for N in cfg.N_list:
        h = cfg.T / N
        wset = _weights(cfg, K, tab, h, N)
        u = _bem_traces(wset, _bem_stage_samples(datum_fn, mesh, tab, h, N))
        errors.append(error_metric(u, uref[:: cfg.N_ref // N], h, mesh))
    rows = _attach_eocs(cfg.N_list, errors)
    return ConvergenceReport(cfg, rows, {"wall_time_s": time.perf_counter() - t0})


def _clean(x):
    if x is None:
        return None
    x = float(x)
    return None if np.isnan(x) else x


def _jsonable(x):
    """Plain-Python view of nested results (numpy scalars, non-finite -> None)."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if np.isfinite(x) else None
    return x


def _theta_grid_summary(m, npts=721, window=0.05):
    """Sweep theta over [-pi, pi] away from the degenerate angle; track the
    largest residual real part and the beta range.

    Roots with y near a zero crossing carry beta - 1 = y^{2m}/|P(iy)|^2
    below the resolution of a double (the correctly rounded beta is exactly
    1.0), so the strict beta range is taken over lanes where that ratio is
    representable, y^{2m} > 4 eps |P(iy)|^2; every lane, representable or
    not, still must come out >= 1.  Lanes with |y| > 1e5 are likewise left
    out of the range: the slope grows without bound near the degenerate
    angle.
    """
    pol = stability.pade_coeffs(m)
    thetas = np.linspace(-np.pi, np.pi, npts)
    if m % 2 == 0:
        thetas = thetas[np.abs(thetas) >= window]
    else:
        thetas = thetas[np.pi - np.abs(thetas) >= window]
    max_re = 0.0
    min_beta = np.inf
    max_beta = 0.0
    all_above_one = True
    eps = np.finfo(float).eps
    for th in thetas:
        roots, _ = stability.solve_R_equals(m, np.exp(1j * th))
        if roots.size:
            max_re = max(max_re, float(np.max(np.abs(roots.real))))
        y = roots.imag[np.abs(roots.imag) > 1e-8]
        if not y.size:
            continue
        b = stability.beta_coefficient(m, y)
        all_above_one = all_above_one and bool(np.all(b >= 1.0))
        y2m = np.float_power(np.abs(y), 2 * m)
        keep = (np.abs(y) <= 1e5) & (y2m > 4 * eps * np.abs(pol.eval(1j * y)) ** 2)
        if keep.any():
            min_beta = min(min_beta, float(b[keep].min()))
            max_beta = max(max_beta, float(b[keep].max()))
    return {
        "theta_count": len(thetas),
        "max_abs_re_root": max_re,
        "min_beta": _clean(min_beta if np.isfinite(min_beta) else None),
        "max_beta": _clean(max_beta),
        "all_slopes_at_least_one": bool(all_above_one),
    }


def run_stability_report(m_range=tuple(range(1, 13))):
    """JSON-ready stability report: roots, slopes, escape constants,
    tableau checks and cancellation residuals for each stage count."""
    m_range = tuple(int(m) for m in m_range)
    if any(m < 1 or m > 12 for m in m_range):
        raise ValueError("m_range must lie within [1, 12]")
    report = {"m_values": list(m_range), "per_m": {}}
    for m in m_range:
        tab = gauss_tableau(m)
        entry = {
            "pade_coeffs": list(stability.pade_coeffs(m).exact),
            "invertibility_and_simplicity": verify_invertibility_and_simplicity(tab),
            "eigennondegeneracy": verify_eigenvector_nondegeneracy(tab),
            "theta_grid": _theta_grid_summary(m),
        }
        if m >= 2:
            c0 = stability.characterize_theta0(m)
            entry["theta0"] = {
                "r": list(c0.r),
                "delta": list(c0.delta),
                "D": _clean(c0.D),
                "D_product": _clean(c0.D_product),
                "D_discrepancy": _clean(c0.D_discrepancy),
            }
            entry["cancellation_residual"] = stability.cancellation_check(m)
        cpi = stability.characterize_theta_pi(m)
        entry["theta_pi"] = {
            "rho": list(cpi.rho),
            "gamma": list(cpi.gamma),
            "E": _clean(cpi.E),
            "E_product": _clean(cpi.E_product),
            "E_discrepancy": _clean(cpi.E_discrepancy),
        }
        report["per_m"][str(m)] = entry
    return _jsonable(report)


def run_cancellation_table(m_range=tuple(range(2, 13))):
    rows = [(m, stability.cancellation_check(m)) for m in m_range]
    return rows


def preset_configs(table):
    """Experiment cells for one of the published tables."""
    scalarN = (16, 32, 64, 128, 256)
    if table == "table1":
        return [
            ExperimentConfig("scalar_convergence", "gauss", 2, mu, T=3.0,
                             N_list=scalarN, N_ref=2048, label=_mu_label("gauss2", mu))
            for mu in (-1.0, 0.0, 1.0)
        ]
    if table == "table2":
        return [
            ExperimentConfig("scalar_convergence", "gauss", 3, mu, T=3.0,
                             N_list=scalarN, N_ref=2048, label=_mu_label("gauss3", mu))
            for mu in (0.0, 0.5, 1.0)
        ]
    # BEM presets run at eps = 1e-16: the lambda^{-N} amplification factor
    # (eps^{-N/(2L)}, about 8e4 at eps=1e-24 and N=210) multiplies the
    # per-frequency boundary-quadrature noise (~1e-9) and would floor the
    # reference near 1e-4, the size of the finest table entries; at 1e-16
    # the amplification is 2e3 and the sqrt(eps) aliasing floor of 1e-8
    # sits far below every entry.
    if table == "table3":
        return [
            ExperimentConfig("bem_convergence", "gauss", m, geometry="unit_circle",
                             operator="inverse_single_layer", datum="monomial_bump",
                             T=1.0, N_list=(6, 7, 10, 14, 15, 21), N_ref=210,
                             n_panels=64, eps=1e-16, label="gauss%d" % m)
            for m in (2, 3, 5)
        ]
    if table in ("table4", "table5"):
        geom = "unit_circle" if table == "table4" else "l_shape"
        return [
            ExperimentConfig("bem_convergence", fam, 3, geometry=geom,
                             operator="exterior_dtn", datum="traveling_gaussian",
                             T=3.0, N_list=(15, 21, 35, 42, 70), N_ref=210,
                             n_panels=64, eps=1e-16, label="%s3" % fam)
            for fam in ("gauss", "radau_iia")
        ]
    raise ValueError("unknown preset %r" % table)


def _mu_label(prefix, mu):
    tag = ("%g" % mu).replace("-", "m").replace(".", "p")
    return "%s_mu%s" % (prefix, tag)


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _write_cell(out_dir, fname, label, report):
    """Write a cell's CSV and return its index record."""
    _write_atomic(os.path.join(out_dir, fname), report.to_csv())
    return {
        "label": label,
        "file": fname,
        "config": report.config.to_dict(),
        "rows": [[int(N), e, eoc] for N, e, eoc in report.rows],
        "wall_time_s": round(report.meta.get("wall_time_s", 0.0), 3),
    }


def _run_cell(cfg, reference=None):
    if cfg.experiment == "scalar_convergence":
        return run_scalar_convergence(cfg)
    if cfg.experiment == "bem_convergence":
        return run_bem_convergence(cfg, reference=reference)
    raise ValueError("unknown experiment %r" % cfg.experiment)


def run_table(table, out_dir, panels=None, nref=None, threads=None, weights_cache=None):
    """Run a preset's cells and write per-cell CSV plus an index JSON."""
    cfgs = []
    for cfg in preset_configs(table):
        over = {}
        if panels is not None and cfg.experiment == "bem_convergence":
            over["n_panels"] = panels
        if nref is not None:
            over["N_ref"] = nref
        if threads is not None:
            over["threads"] = threads
        if weights_cache is not None:
            over["weights_cache"] = weights_cache
        # replace() validates, so a bad override fails in every cell before
        # any reference solve starts
        cfgs.append(replace(cfg, **over))
    os.makedirs(out_dir, exist_ok=True)
    cells = []
    refs = {}
    ref_seconds = 0.0
    for cfg in cfgs:
        reference = None
        if cfg.experiment == "bem_convergence":
            key = bem_reference_key(cfg)
            if key not in refs:
                t0 = time.perf_counter()
                refs[key] = bem_reference_solution(cfg)
                ref_seconds += time.perf_counter() - t0
            reference = refs[key]
        report = _run_cell(cfg, reference=reference)
        cells.append(_write_cell(out_dir, "%s_%s.csv" % (table, cfg.label), cfg.label, report))
    index = {"table": table, "cells": cells}
    if ref_seconds:
        index["reference_wall_time_s"] = round(ref_seconds, 3)
    _write_atomic(os.path.join(out_dir, "%s_index.json" % table), json.dumps(index, indent=2))
    return index


def run_config(cfg, out_dir):
    """Run a single config (the `run <config.json>` entry point)."""
    os.makedirs(out_dir, exist_ok=True)
    label = cfg.label or cfg.experiment
    if cfg.experiment in ("scalar_convergence", "bem_convergence"):
        index = {"cells": [_write_cell(out_dir, "%s.csv" % label, label, _run_cell(cfg))]}
        _write_atomic(os.path.join(out_dir, "%s_index.json" % label), json.dumps(index, indent=2))
        return index
    if cfg.experiment == "stability_report":
        report = run_stability_report(cfg.m_range)
        _write_atomic(os.path.join(out_dir, "%s.json" % label), json.dumps(report, indent=2))
        return report
    if cfg.experiment == "cancellation_table":
        rows = run_cancellation_table([m for m in cfg.m_range if m >= 2])
        text = "m,residual\n" + "".join("%d,%.17e\n" % (m, r) for m, r in rows)
        _write_atomic(os.path.join(out_dir, "%s.csv" % label), text)
        return rows
    raise ValueError("unknown experiment %r" % cfg.experiment)
