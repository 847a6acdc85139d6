"""Config-driven convergence studies and the Gauss stability report.

Each ExperimentConfig is one convergence cell; its rows (N_t, error, eoc)
are written as CSV with a JSON index binding files to their
configurations.  Output is deterministic: identical configs yield
bit-identical CSV (wall times live only in the index).  Presets
table1..table5 reproduce the published scalar and boundary-element
convergence studies at desk scale.  run_stability_report takes stage
counts alone, no config.
"""

import functools
import hashlib
import json
import os
import re
import time
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import bem, stability
from .bem import ScatteringProblem, error_metric, make_mesh, make_mode_transfer, make_transfer
from .engine import (
    _write_atomic,
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
    _MAX_STAGES,
    gauss_tableau,
    radau_iia_tableau,
    tableau_to_json,
    verify_invertibility_and_simplicity,
    verify_eigenvector_nondegeneracy,
)

__all__ = [
    "ExperimentConfig",
    "ConvergenceReport",
    "run_convergence",
    "reference_solution",
    "reference_key",
    "run_stability_report",
    "preset_configs",
    "run_table",
    "run_config",
]


_FAMILIES = {"gauss": gauss_tableau, "radau_iia": radau_iia_tableau}
_EXPERIMENTS = ("scalar_convergence", "bem_convergence")


def _is_int(x):
    # bool is an int subclass, but True is no count
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x):
    return isinstance(x, (float, np.floating)) or _is_int(x)


def _is_stage_count(m):
    return _is_int(m) and 1 <= m <= 12


# a label names the run's output files inside out_dir, so it holds no path
# separator
_LABEL = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence cell, its names spelled canonically; JSON configs
    mirror these fields exactly."""

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
    eps: float = 1e-24
    weights_cache: str = None
    label: str = None

    def __post_init__(self):
        # every construction path (direct, from_dict, replace) checks the
        # fields before any reference solve and stores the canonical names;
        # the comparisons are written so that NaN fails them
        def bad(name, why):
            raise ValueError("config field %s=%r: %s" % (name, getattr(self, name), why))

        if self.experiment not in _EXPERIMENTS:
            bad("experiment", "unknown experiment, choose from %s" % ", ".join(_EXPERIMENTS))
        family = snake_name(self.family)
        for name, value, known in (
            ("family", {"radau": "radau_iia"}.get(family, family), _FAMILIES),
            ("geometry", bem._norm_name(self.geometry), bem._GEOMETRIES),
            ("operator", bem._norm_name(self.operator), bem._OPERATORS),
            ("datum", snake_name(self.datum), DATA),
        ):
            if value not in known:
                bad(name, "unknown %s, choose from %s" % (name, ", ".join(known)))
            object.__setattr__(self, name, value)
        if self.experiment == "scalar_convergence" and self.datum != "sin_pow_exp":
            bad("datum", "scalar convergence runs use the sin_pow_exp datum")
        tableau = _FAMILIES[self.family]
        if not (_is_int(self.m) and 1 <= self.m <= _MAX_STAGES[tableau]):
            bad("m", "the stage count must be an integer in [1, %d]" % _MAX_STAGES[tableau])
        for name in ("eps", "mu", "T"):
            if not _is_real(getattr(self, name)):
                bad(name, "must be a real number")
        if not (0.0 < self.eps < 1.0):
            bad("eps", "the contour parameter must lie in (0, 1)")
        if not np.isfinite(self.mu):
            bad("mu", "must be finite")
        if not (0.0 < self.T < np.inf):
            bad("T", "the final time must be positive and finite")
        cache = self.weights_cache
        if not (cache is None or isinstance(cache, str) and cache):
            bad("weights_cache", "a directory name, or None")
        if not (_is_int(self.n_panels) and self.n_panels >= 8):
            bad("n_panels", "the panel count must be an integer >= 8")
        if self.label is not None and not (isinstance(self.label, str)
                                           and _LABEL.fullmatch(self.label)):
            bad("label", "a file-name stem of letters, digits, '_', '.' and '-'")
        try:
            object.__setattr__(self, "N_list", tuple(self.N_list))
        except TypeError:
            bad("N_list", "a convergence run needs a sequence of grids")
        if not self.N_list:
            bad("N_list", "a convergence run needs at least one grid")
        if not _is_int(self.N_ref):
            bad("N_ref", "the reference grid size must be an integer")
        for N in self.N_list:
            if not (_is_int(N) and 1 <= N <= self.N_ref and self.N_ref % N == 0):
                bad("N_list", "N_t=%r is no integer that divides N_ref=%r" % (N, self.N_ref))

    @staticmethod
    def from_dict(d):
        allowed = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(d) - allowed
        if unknown:
            raise ValueError("unknown config keys: %s" % sorted(unknown))
        return ExperimentConfig(**d)

    def to_dict(self):
        d = asdict(self)
        d["N_list"] = list(d["N_list"])
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
def _source_digest(here=os.path.dirname(os.path.abspath(__file__))):
    """SHA-256 of the package's Python sources and .npy data files (the
    Bessel table's seeds) in the directory here, read on first use only."""
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(here) if f.endswith((".py", ".npy"))):
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
        return compute_weights(K, tab, h, N, eps=cfg.eps)
    os.makedirs(cfg.weights_cache, exist_ok=True)
    path, ident = _weights_cache_path(cfg, K, tab, h, N)
    wset = _load_cached_weights(path, ident)
    if wset is None:
        wset = compute_weights(K, tab, h, N, eps=cfg.eps)
        save_weights(wset, path)
    return wset


@functools.lru_cache(maxsize=8)
def _shared_mesh(geometry, n_panels):
    # one mesh per (geometry, n_panels), so a reference and its cells share
    # the pair plan and V(1)
    return make_mesh(geometry, n_panels)


def _cell_kernel(cfg):
    """Mesh and transfer function of a cell: no mesh and K_mu for a scalar
    cell; on a mesh the per-mode (diagonal) kernel where the mesh's pair
    plan finds it circulant (BoundaryMesh.circulant; the circle, not the
    L-shape), the dense matrix kernel otherwise."""
    if cfg.experiment == "scalar_convergence":
        return None, kmu_transfer(cfg.mu)
    mesh = _shared_mesh(cfg.geometry, cfg.n_panels)
    problem = ScatteringProblem(cfg.geometry, cfg.operator, cfg.datum, cfg.T, cfg.n_panels,
                                cfg.N_ref)
    make = make_mode_transfer if mesh.circulant else make_transfer
    return mesh, make(problem, mesh)


def _traces(cfg, mesh, K, tab, N):
    """Grid traces (N+1,), or (N+1, n) at the panel midpoints of a mesh, of
    K(d/dt) applied to the cell's datum by tableau tab at N steps.  Per-mode
    weights act on the real FFT of the samples along the panel axis."""
    h = cfg.T / N
    wset = _weights(cfg, K, tab, h, N)
    if mesh is None:
        return apply_cq(wset, sample_stage_signal(sin_pow_exp, h, N, tab.c))
    datum = DATA[cfg.datum]
    g = sample_stage_signal(lambda t: datum(mesh.mid, np.asarray(t)[..., None]), h, N, tab.c)
    g = np.broadcast_to(g, (N + 1, tab.m, mesh.n))
    if wset.W.ndim == 4:
        return np.fft.irfft(apply_cq(wset, np.fft.rfft(g, axis=-1)), n=mesh.n, axis=-1)
    return apply_cq(wset, g)


def reference_key(cfg):
    """Cells that may share one reference solution agree on this key: every
    field but the method under study (family, m), the grids, the label and
    the weights cache; mu only matters without a mesh."""
    key = (cfg.experiment, cfg.geometry, cfg.operator, cfg.datum, cfg.T, cfg.N_ref,
           cfg.n_panels, cfg.eps)
    return key + (cfg.mu,) if cfg.experiment == "scalar_convergence" else key


def reference_solution(cfg):
    """Grid traces of the 3-stage Gauss solution at N_ref steps.

    Its error sits orders of magnitude below every coarse run, so errors
    reflect the method under study even where it stagnates (a
    self-reference would hide that).  On a mesh its contour frequencies
    stay below ~5 N_ref / T in modulus before turning into the damped
    Re s > 30 region, which keeps the frequency-adaptive assembly cheap.
    """
    mesh, K = _cell_kernel(cfg)
    if mesh is None:
        return scalar_reference_solution(K, sin_pow_exp, cfg.T, cfg.N_ref, gauss_tableau(3),
                                         eps=cfg.eps)
    return _traces(cfg, mesh, K, gauss_tableau(3), cfg.N_ref)


def run_convergence(cfg, reference=None):
    """Error and EOC of one cell against the reference solution (passed in
    when cells share one): relative discrete l2 without a mesh, the
    energy-norm metric on one.  Every grid divides N_ref, so traces compare
    at shared time nodes."""
    tab = _FAMILIES[cfg.family](cfg.m)
    mesh, K = _cell_kernel(cfg)
    t0 = time.perf_counter()
    uref = reference_solution(cfg) if reference is None else reference
    errors = []
    for N in cfg.N_list:
        u, ur = _traces(cfg, mesh, K, tab, N), uref[:: cfg.N_ref // N]
        if mesh is None:
            errors.append(float(np.linalg.norm(u - ur) / np.linalg.norm(ur)))
        else:
            errors.append(error_metric(u, ur, cfg.T / N, mesh))
    rows = _attach_eocs(cfg.N_list, errors)
    return ConvergenceReport(cfg, rows, {"wall_time_s": time.perf_counter() - t0})


# the names the benchmark's rounds call and its tracer wraps
run_scalar_convergence = run_bem_convergence = run_convergence
bem_reference_solution = reference_solution


def _jsonable(x):
    """Plain-Python view of nested results (numpy scalars, non-finite -> None)."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if np.isfinite(x) else None
    return x


def _fields(result):
    """A characterization's fields other than m: the report's JSON keys."""
    return {f.name: getattr(result, f.name) for f in fields(result) if f.name != "m"}


def run_stability_report(m_range=tuple(range(1, 13))):
    """JSON-ready stability report: roots, slopes, escape constants,
    tableau checks and cancellation residuals for each stage count."""
    m_range = tuple(m_range)
    if not (m_range and all(_is_stage_count(m) for m in m_range)):
        raise ValueError("m_range must hold one or more integers in [1, 12], got %r" % (m_range,))
    report = {"m_values": list(m_range), "per_m": {}}
    for m in m_range:
        tab = gauss_tableau(m)
        entry = {
            "pade_coeffs": list(stability.pade_coeffs(m).exact),
            "invertibility_and_simplicity": verify_invertibility_and_simplicity(tab),
            "eigennondegeneracy": verify_eigenvector_nondegeneracy(tab),
            "theta_grid": stability.theta_grid_summary(m),
        }
        if m >= 2:
            roots = stability.theta0_roots(m)
            entry["theta0"] = _fields(stability.characterize_theta0(m, roots))
            entry["cancellation_residual"] = stability.cancellation_check(m, roots)
        entry["theta_pi"] = _fields(stability.characterize_theta_pi(m))
        report["per_m"][str(m)] = entry
    return _jsonable(report)


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


def _with_overrides(cfg, **over):
    """cfg with every override that is not None.  replace() validates, so a
    bad override fails before any reference solve starts."""
    return replace(cfg, **{k: v for k, v in over.items() if v is not None})


def _run_and_write(cfgs, out_dir, prefix, stem, index):
    """Run cells in order, one reference per reference_key, and write each
    cell's CSV prefix<label>.csv and the index stem_index.json.  A cell's
    wall_time_s excludes the reference (the index's reference_wall_time_s)."""
    os.makedirs(out_dir, exist_ok=True)
    cells, refs, ref_seconds = [], {}, 0.0
    for cfg in cfgs:
        key = reference_key(cfg)
        if key not in refs:
            t0 = time.perf_counter()
            refs[key] = reference_solution(cfg)
            ref_seconds += time.perf_counter() - t0
        report = run_convergence(cfg, reference=refs[key])
        label = cfg.label or cfg.experiment
        fname = prefix + label + ".csv"
        with _write_atomic(os.path.join(out_dir, fname)) as f:
            f.write(report.to_csv().encode())
        cells.append({"label": label, "file": fname, "config": cfg.to_dict(),
                      "rows": [[int(N), e, eoc] for N, e, eoc in report.rows],
                      "wall_time_s": round(report.meta["wall_time_s"], 3)})
    index.update(cells=cells, reference_wall_time_s=round(ref_seconds, 3))
    with _write_atomic(os.path.join(out_dir, "%s_index.json" % stem)) as f:
        f.write(json.dumps(index, indent=2).encode())
    return index


def run_table(table, out_dir, panels=None, nref=None, weights_cache=None):
    """Run a preset's cells and write per-cell CSV plus an index JSON."""
    cfgs = [_with_overrides(cfg, N_ref=nref, weights_cache=weights_cache,
                           n_panels=panels if cfg.experiment == "bem_convergence" else None)
            for cfg in preset_configs(table)]
    return _run_and_write(cfgs, out_dir, table + "_", table, {"table": table})


def run_config(cfg, out_dir):
    """Run one convergence cell (the `run <config.json>` entry point) and
    write its CSV and index JSON."""
    return _run_and_write([cfg], out_dir, "", cfg.label or cfg.experiment, {})
