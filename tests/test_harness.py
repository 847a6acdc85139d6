"""Experiment configs, convergence reports, presets and output layout."""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rkcq import bem, engine, harness
from rkcq.engine import TransferFunction, compute_weights, load_weights, save_weights
from rkcq.kernels import kmu_transfer, sin_pow_exp
from rkcq.tableaux import gauss_tableau
from rkcq.harness import (
    ConvergenceReport,
    ExperimentConfig,
    _attach_eocs,
    _mu_label,
    preset_configs,
    reference_key,
    reference_solution,
    run_config,
    run_convergence,
    run_stability_report,
)

GOLDEN = Path(__file__).parent / "golden"


def test_config_from_dict_roundtrip():
    d = {"experiment": "scalar_convergence", "family": "gauss", "m": 2,
         "mu": -1.0, "N_list": [16, 32], "N_ref": 128, "label": "demo"}
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.N_list == (16, 32)
    back = cfg.to_dict()
    assert back["N_list"] == [16, 32]
    assert ExperimentConfig.from_dict(back) == cfg


def test_config_stores_n_list_as_tuple():
    # a list and a tuple name one cell: equal, hashable, one round trip
    listed = ExperimentConfig("scalar_convergence", N_list=[4, 8], N_ref=16)
    cell = ExperimentConfig("scalar_convergence", N_list=(4, 8), N_ref=16)
    assert listed.N_list == (4, 8)
    assert listed == cell and hash(listed) == hash(cell)
    assert ExperimentConfig.from_dict(listed.to_dict()) == cell
    assert replace(cell, N_list=[4, 8]) == cell


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "scalar_convergence", "stages": 3})
    # the stability report takes its stage counts on the command line, so an
    # index JSON's config holding m_range is refused until the key is dropped
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict(dict(_GOOD, m_range=[1, 2, 3]))


def test_config_has_no_threads_field():
    # the kernel is evaluated in-process only; a config naming a worker
    # count is refused like any other unknown key
    with pytest.raises(ValueError, match=r"unknown config keys: \['threads'\]"):
        ExperimentConfig.from_dict({"experiment": "scalar_convergence", "threads": 2})


def test_report_csv_format_exact():
    cfg = ExperimentConfig("scalar_convergence", N_list=(4, 8))
    rep = ConvergenceReport(cfg, [(4, 0.5, None), (8, 0.125, 2.0)])
    assert rep.to_csv() == (
        "N_t,error,eoc\n"
        "4,5.00000000000000000e-01,\n"
        "8,1.25000000000000000e-01,2.000000\n"
    )


def test_attach_eocs():
    rows = _attach_eocs((10, 20, 40), [1.0, 0.25, 0.25 / 16])
    assert rows[0][2] is None
    assert rows[1][2] == pytest.approx(2.0)
    assert rows[2][2] == pytest.approx(4.0)
    rows = _attach_eocs((10, 20), [0.0, 1.0])
    assert rows[1][2] is None


def test_mu_labels():
    assert _mu_label("gauss2", -1.0) == "gauss2_mum1"
    assert _mu_label("gauss2", 0.0) == "gauss2_mu0"
    assert _mu_label("gauss3", 0.5) == "gauss3_mu0p5"


def test_preset_structure():
    t1 = preset_configs("table1")
    assert [c.mu for c in t1] == [-1.0, 0.0, 1.0]
    assert all(c.m == 2 and c.family == "gauss" and c.N_ref == 2048 for c in t1)
    t2 = preset_configs("table2")
    assert [c.mu for c in t2] == [0.0, 0.5, 1.0]
    assert all(c.m == 3 for c in t2)
    t3 = preset_configs("table3")
    assert [c.m for c in t3] == [2, 3, 5]
    assert all(c.operator == "inverse_single_layer" and c.eps == 1e-16 for c in t3)
    assert all(c.N_list == (6, 7, 10, 14, 15, 21) and c.T == 1.0 for c in t3)
    t4 = preset_configs("table4")
    t5 = preset_configs("table5")
    assert [c.family for c in t4] == ["gauss", "radau_iia"]
    assert all(c.geometry == "unit_circle" for c in t4)
    assert all(c.geometry == "l_shape" for c in t5)
    assert all(c.datum == "traveling_gaussian" and c.N_ref == 210 for c in t4 + t5)
    with pytest.raises(ValueError):
        preset_configs("table9")


def test_scalar_convergence_runs_and_converges():
    cfg = ExperimentConfig("scalar_convergence", "gauss", 2, 0.0,
                           N_list=(8, 16, 32), N_ref=128)
    rep = run_convergence(cfg)
    errs = [e for _, e, _ in rep.rows]
    assert errs[0] > errs[1] > errs[2]
    assert rep.rows[2][2] > 1.0
    assert rep.meta["wall_time_s"] > 0


def test_scalar_convergence_validates_grids_and_datum():
    # both faults fail at construction, so no cell ever starts with them
    with pytest.raises(ValueError, match="divide"):
        ExperimentConfig("scalar_convergence", N_list=(3,), N_ref=8)
    with pytest.raises(ValueError, match="field datum=.*sin_pow_exp"):
        ExperimentConfig("scalar_convergence", N_list=(4,), N_ref=8, datum="traveling_gaussian")


def test_run_table_checks_grids_before_reference(tmp_path, monkeypatch):
    # N_list (15, 21, ...) does not divide N_ref = 20: the table must fail
    # in milliseconds, before the boundary-element reference is computed
    def no_reference(cfg):
        raise AssertionError("reference solved before the grids were checked")

    monkeypatch.setattr(harness, "reference_solution", no_reference)
    with pytest.raises(ValueError, match="divide"):
        harness.run_table("table4", str(tmp_path / "out"), panels=16, nref=20)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("family, m", [("lobatto", 3), ("gauss", 13)])
def test_run_config_checks_tableau_before_reference(tmp_path, monkeypatch, family, m):
    # an unknown family or stage count must fail before the reference solve
    def no_reference(cfg):
        raise AssertionError("reference solved before the tableau was built")

    monkeypatch.setattr(harness, "reference_solution", no_reference)
    with pytest.raises(ValueError, match="family|stage count"):
        cfg = ExperimentConfig("bem_convergence", family, m, geometry="l_shape",
                               operator="exterior_dtn", datum="traveling_gaussian",
                               N_list=(3, 7), N_ref=21, n_panels=16, eps=1e-16)
        run_config(cfg, str(tmp_path / "out"))


_GOOD = dict(experiment="scalar_convergence", N_list=(4, 8), N_ref=16)


@pytest.mark.parametrize("field, value", [
    ("family", "lobatto"),
    ("m", 0),
    ("m", 13),
    ("m", 2.5),
    ("eps", 0.0),
    ("eps", 1.5),
    ("eps", float("nan")),
    ("mu", float("nan")),
    ("mu", float("inf")),
    ("T", -3.0),
    ("T", 0.0),
    ("T", float("nan")),
    ("T", float("inf")),
    ("N_list", ()),
    ("N_list", (3,)),
    ("N_list", (0,)),
    ("N_list", (32,)),
    ("m", True),
    ("experiment", "typo"),
    ("experiment", "stability_report"),
    ("experiment", "cancellation_table"),
    ("geometry", "triangle"),
    ("operator", "hyper"),
    ("datum", "nope"),
    ("n_panels", 4),
    ("n_panels", 64.5),
    ("n_panels", True),
    ("N_list", (8.0, 16)),
    ("N_list", 8),
    ("N_list", None),
    ("N_ref", 16.0),
    ("radau_iia", 10),
    ("radau_iia", 9),
    ("label", "../escaped"),
    ("label", "sub/x"),
    ("mu", "1"),
    ("mu", None),
    ("mu", True),
    ("T", "3"),
    ("eps", "1e-16"),
    ("weights_cache", 5),
    ("weights_cache", ["a"]),
    ("weights_cache", ""),
])
def test_config_rejects_bad_fields(field, value):
    # each bad field fails at construction, from_dict and replace alike,
    # in well under 0.1 s and with the field named in the message; a
    # family name in place of the field sets that family's m
    base = _GOOD
    if field == "radau_iia":
        base = dict(_GOOD, family=field)
        field = "m"
    good = ExperimentConfig(**base)
    for make in (lambda: ExperimentConfig(**dict(base, **{field: value})),
                 lambda: ExperimentConfig.from_dict(dict(base, **{field: value})),
                 lambda: replace(good, **{field: value})):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="field %s=" % field):
            make()
        assert time.perf_counter() - t0 < 0.1


def test_config_stores_canonical_names():
    # two spellings of one cell are one cell: equal configs, one reference
    # key and one shared mesh (one pair plan, one V(1))
    loose = ExperimentConfig("bem_convergence", "Radau", 3, geometry="circle",
                             operator="InverseSingleLayer", datum="TravelingGaussian",
                             N_list=(7,), N_ref=21)
    canon = ExperimentConfig("bem_convergence", "radau_iia", 3, geometry="unit_circle",
                             operator="inverse_single_layer", datum="traveling_gaussian",
                             N_list=(7,), N_ref=21)
    assert loose == canon
    assert reference_key(loose) == reference_key(canon)
    assert harness._cell_kernel(loose)[0] is harness._cell_kernel(canon)[0]
    d = loose.to_dict()
    assert [d[k] for k in ("family", "geometry", "operator", "datum")] == [
        "radau_iia", "unit_circle", "inverse_single_layer", "traveling_gaussian"]
    assert ExperimentConfig.from_dict(d) == loose
    camel = ExperimentConfig("scalar_convergence", family="Gauss", geometry="LShape",
                             operator="ExteriorDtN", datum="SinPowExp", N_list=(7,), N_ref=21)
    assert camel.m == 3
    assert [camel.family, camel.geometry, camel.operator, camel.datum] == [
        "gauss", "l_shape", "exterior_dtn", "sin_pow_exp"]
    assert replace(canon, geometry="UnitCircle", operator="ExteriorDtN").operator == "exterior_dtn"


def test_weights_cache_reuse(tmp_path):
    cache = str(tmp_path / "wcache")
    cfg = ExperimentConfig("scalar_convergence", "gauss", 2, 0.0,
                           N_list=(8,), N_ref=32, weights_cache=cache)
    r1 = run_convergence(cfg)
    files = sorted(os.listdir(cache))
    assert files and all(f.endswith(".npz") for f in files)
    r2 = run_convergence(cfg)
    assert r1.rows[0][1] == r2.rows[0][1]
    assert sorted(os.listdir(cache)) == files


def _cache_cfg(tmp_path):
    return ExperimentConfig("scalar_convergence", "gauss", 2, 0.0, N_list=(8,), N_ref=32,
                            weights_cache=str(tmp_path / "wcache"))


def test_weights_cache_recomputes_a_truncated_file(tmp_path):
    cfg, K, tab = _cache_cfg(tmp_path), kmu_transfer(0.0), gauss_tableau(2)
    first = harness._weights(cfg, K, tab, 0.1, 8)
    path, _ = harness._weights_cache_path(cfg, K, tab, 0.1, 8)
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[: len(data) // 2])
    again = harness._weights(cfg, K, tab, 0.1, 8)
    assert np.array_equal(again.W, first.W)
    assert np.array_equal(load_weights(path).W, first.W)
    assert sorted(os.listdir(cfg.weights_cache)) == [os.path.basename(path)]


def test_weights_cache_rejects_a_mismatched_shape(tmp_path):
    cfg, K, tab = _cache_cfg(tmp_path), kmu_transfer(0.0), gauss_tableau(2)
    path, _ = harness._weights_cache_path(cfg, K, tab, 0.1, 8)
    os.makedirs(cfg.weights_cache)
    wrong = compute_weights(K, tab, 0.1, 8, eps=cfg.eps)
    wrong.W = wrong.W[..., None]
    save_weights(wrong, path)
    got = harness._weights(cfg, K, tab, 0.1, 8)
    assert got.W.shape == (9, 2, 2)
    assert np.array_equal(got.W, compute_weights(K, tab, 0.1, 8, eps=cfg.eps).W)
    assert load_weights(path).W.shape == (9, 2, 2)


def test_weights_cache_ignores_files_of_other_sources(tmp_path, monkeypatch):
    # a weight file written by other package sources is recomputed, not served
    cfg, K, tab = _cache_cfg(tmp_path), kmu_transfer(0.0), gauss_tableau(2)
    monkeypatch.setattr(harness, "_source_digest", lambda: "old sources")
    stale = compute_weights(K, tab, 0.1, 8, eps=cfg.eps)
    stale.W = 2.0 * stale.W
    path, _ = harness._weights_cache_path(cfg, K, tab, 0.1, 8)
    os.makedirs(cfg.weights_cache)
    save_weights(stale, path)
    assert np.array_equal(harness._weights(cfg, K, tab, 0.1, 8).W, stale.W)
    monkeypatch.setattr(harness, "_source_digest", lambda: "new sources")
    got = harness._weights(cfg, K, tab, 0.1, 8)
    assert np.array_equal(got.W, compute_weights(K, tab, 0.1, 8, eps=cfg.eps).W)
    assert len(os.listdir(cfg.weights_cache)) == 2


def test_source_digest_covers_the_bessel_seeds(tmp_path):
    # weights cached before a change to the Taylor table's seed file are
    # not served after it
    pkg = tmp_path / "rkcq"
    shutil.copytree(os.path.dirname(harness.__file__), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    digest = harness._source_digest.__wrapped__
    assert digest(str(pkg)) == harness._source_digest()
    seeds = pkg / "_taylor_seeds.npy"
    data = bytearray(seeds.read_bytes())
    data[-1] ^= 1
    seeds.write_bytes(bytes(data))
    assert digest(str(pkg)) != harness._source_digest()


def test_source_digest_is_read_only_with_a_cache(monkeypatch):
    assert len(harness._source_digest()) == 64

    def unread():
        raise AssertionError("sources hashed without a weights cache")

    monkeypatch.setattr(harness, "_source_digest", unread)
    cfg = ExperimentConfig("scalar_convergence", "gauss", 2, 0.0, N_list=(8,), N_ref=32)
    harness._weights(cfg, kmu_transfer(0.0), gauss_tableau(2), 0.1, 8)


def test_weights_cache_skips_unkeyed_kernels(tmp_path):
    cfg, tab = _cache_cfg(tmp_path), gauss_tableau(2)
    Ka = TransferFunction(fn=lambda s: 1.0 / s)
    Kb = TransferFunction(fn=lambda s: s)
    Wa = harness._weights(cfg, Ka, tab, 0.1, 8).W
    Wb = harness._weights(cfg, Kb, tab, 0.1, 8).W
    assert np.array_equal(Wa, compute_weights(Ka, tab, 0.1, 8, eps=cfg.eps).W)
    assert np.array_equal(Wb, compute_weights(Kb, tab, 0.1, 8, eps=cfg.eps).W)
    assert not os.path.exists(cfg.weights_cache) or not os.listdir(cfg.weights_cache)


def test_circle_cells_use_the_mode_kernel():
    # the per-mode route on the circle reproduces the dense matrix route
    cfg = ExperimentConfig("bem_convergence", "gauss", 3, geometry="unit_circle",
                           operator="exterior_dtn", datum="traveling_gaussian", T=1.0,
                           N_list=(4,), N_ref=8, n_panels=16, eps=1e-16)
    mesh, K = harness._cell_kernel(cfg)
    assert K.lanes == 9 and K.key.startswith("bem_modes_")
    problem = bem.ScatteringProblem("unit_circle", "exterior_dtn", "traveling_gaussian", 1.0, 16, 8)
    dense = bem.make_transfer(problem, mesh)
    tab, h = gauss_tableau(3), cfg.T / cfg.N_ref
    ts = (np.arange(cfg.N_ref + 1)[:, None] + tab.c[None, :]) * h
    g = harness.DATA["traveling_gaussian"](mesh.mid, ts[..., None])
    want = harness.apply_cq(compute_weights(dense, tab, h, cfg.N_ref, eps=cfg.eps), g)
    got = reference_solution(cfg)
    assert got.shape == want.shape == (9, 16)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_reference_and_cells_share_one_pair_plan(monkeypatch):
    # a reference and two cells on one (geometry, n_panels) build one mesh,
    # so its pair plan is made once
    built = []
    maps = bem._congruence_maps
    monkeypatch.setattr(bem, "_congruence_maps", lambda mesh: built.append(mesh) or maps(mesh))
    harness._shared_mesh.cache_clear()
    cfgs = [ExperimentConfig("bem_convergence", fam, 2, geometry="l_shape",
                             operator="exterior_dtn", datum="traveling_gaussian", T=1.0,
                             N_list=(2, 4), N_ref=4, n_panels=12, eps=1e-16)
            for fam in ("gauss", "radau_iia")]
    reference = reference_solution(cfgs[0])
    for cfg in cfgs:
        run_convergence(cfg, reference=reference)
    assert len(built) == 1


def test_scalar_reference_is_the_engine_reference():
    # a scalar cell's reference is engine.scalar_reference_solution, bit for bit
    cfg = preset_configs("table2")[1]
    want = engine.scalar_reference_solution(kmu_transfer(cfg.mu), sin_pow_exp, cfg.T, cfg.N_ref,
                                            gauss_tableau(3), eps=cfg.eps)
    assert reference_solution(cfg).tobytes() == want.tobytes()


def test_reference_keys_ignore_the_method_only():
    # the table4 Gauss-3 and Radau IIA-3 cells share one reference; the
    # table2 cells differ in mu, so each has its own
    gauss3, radau3 = preset_configs("table4")
    assert (gauss3.family, radau3.family) == ("gauss", "radau_iia")
    assert reference_key(gauss3) == reference_key(radau3)
    assert len({reference_key(cfg) for cfg in preset_configs("table2")}) == 3
    assert reference_key(gauss3) != reference_key(replace(gauss3, n_panels=32))


def test_run_table_computes_one_reference_per_key(tmp_path, monkeypatch):
    keys = []
    solve = harness.reference_solution
    monkeypatch.setattr(harness, "reference_solution",
                        lambda cfg: keys.append(reference_key(cfg)) or solve(cfg))
    index = harness.run_table("table1", str(tmp_path))
    assert len(keys) == len(set(keys)) == 3
    assert index["reference_wall_time_s"] >= 0
    assert all(cell["wall_time_s"] >= 0 for cell in index["cells"])


@pytest.mark.parametrize("cfg", preset_configs("table1"), ids=lambda cfg: cfg.label)
def test_run_config_writes_the_golden_table1_bytes(tmp_path, cfg):
    # one preset cell run on its own computes its own reference and writes
    # the CSV bytes of the preset run
    index = run_config(cfg, str(tmp_path))
    name = index["cells"][0]["file"]
    assert name == cfg.label + ".csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / ("table1_" + name)).read_bytes()
    assert sorted(index) == ["cells", "reference_wall_time_s"]


def test_benchmark_names_alias_the_one_cell_path():
    assert harness.run_scalar_convergence is harness.run_bem_convergence is run_convergence
    assert harness.bem_reference_solution is reference_solution


def test_run_config_writes_csv_and_index(tmp_path):
    cfg = ExperimentConfig("scalar_convergence", "gauss", 2, 0.0,
                           N_list=(8, 16), N_ref=64, label="smoke")
    out = str(tmp_path / "out")
    index = run_config(cfg, out)
    with open(os.path.join(out, "smoke.csv")) as f:
        csv1 = f.read()
    assert csv1.startswith("N_t,error,eoc\n")
    assert index["cells"][0]["label"] == "smoke"
    assert index["cells"][0]["rows"][1][2] is not None
    with open(os.path.join(out, "smoke_index.json")) as f:
        assert json.load(f)["cells"][0]["file"] == "smoke.csv"
    # identical configs reproduce identical bytes
    out2 = str(tmp_path / "out2")
    run_config(cfg, out2)
    with open(os.path.join(out2, "smoke.csv")) as f:
        assert f.read() == csv1


def test_stability_report_structure():
    rep = run_stability_report((1, 3))
    assert rep["m_values"] == [1, 3]
    e3 = rep["per_m"]["3"]
    assert e3["pade_coeffs"] == [120, 60, 12, 1]
    assert e3["invertibility_and_simplicity"]["passed"] is True
    assert e3["eigennondegeneracy"]["passed"] is True
    assert e3["theta_grid"]["max_abs_re_root"] <= 1e-9
    assert e3["theta_grid"]["min_beta"] > 1.0
    assert e3["cancellation_residual"] <= 1e-9
    e1 = rep["per_m"]["1"]
    assert "theta0" not in e1
    assert e1["theta_pi"]["E"] == pytest.approx(4.0, rel=5e-6)
    with pytest.raises(ValueError):
        run_stability_report((0, 2))
    with pytest.raises(ValueError, match="integers"):
        run_stability_report((2.5,))


def test_rkcq_runs_without_scipy():
    # importing rkcq, a scalar cell, an L-shape assembly that reaches every
    # Bessel regime (the Taylor table among them) and a stability report
    # load no scipy module: the table's seeds are a package data file and
    # the Legendre values are computed in-house
    code = """
import sys
import numpy as np
from rkcq import bem, bessel, harness
harness.run_convergence(
    harness.ExperimentConfig("scalar_convergence", N_list=(4, 8), N_ref=16))
bem.assemble_pair(np.array([1.0, 7.0 + 3.0j, 60.0]), bem.make_mesh("l_shape", 32))
harness.run_stability_report([3])
assert bessel._taylor_table.cache_info().currsize == 1
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
