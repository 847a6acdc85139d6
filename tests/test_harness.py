"""Experiment configs, convergence reports, presets and output layout."""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from rkcq import bem, harness
from rkcq.engine import TransferFunction, compute_weights, load_weights, save_weights
from rkcq.kernels import kmu_transfer
from rkcq.tableaux import gauss_tableau
from rkcq.harness import (
    ConvergenceReport,
    ExperimentConfig,
    _attach_eocs,
    _mu_label,
    _theta_grid_summary,
    preset_configs,
    run_cancellation_table,
    run_config,
    run_scalar_convergence,
    run_stability_report,
)


def test_config_from_dict_roundtrip():
    d = {"experiment": "scalar_convergence", "family": "gauss", "m": 2,
         "mu": -1.0, "N_list": [16, 32], "N_ref": 128, "label": "demo"}
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.N_list == (16, 32)
    back = cfg.to_dict()
    assert back["N_list"] == [16, 32]
    assert ExperimentConfig.from_dict(back) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "scalar_convergence", "stages": 3})


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
    rep = run_scalar_convergence(cfg)
    errs = [e for _, e, _ in rep.rows]
    assert errs[0] > errs[1] > errs[2]
    assert rep.rows[2][2] > 1.0
    assert rep.meta["wall_time_s"] > 0


def test_scalar_convergence_validates_grids_and_datum():
    with pytest.raises(ValueError, match="divide"):
        run_scalar_convergence(ExperimentConfig("scalar_convergence", N_list=(3,), N_ref=8))
    bad2 = ExperimentConfig("scalar_convergence", N_list=(4,), N_ref=8,
                            datum="traveling_gaussian")
    with pytest.raises(ValueError, match="sin_pow_exp"):
        run_scalar_convergence(bad2)


def test_run_table_checks_grids_before_reference(tmp_path, monkeypatch):
    # N_list (15, 21, ...) does not divide N_ref = 20: the table must fail
    # in milliseconds, before the boundary-element reference is computed
    def no_reference(cfg):
        raise AssertionError("reference solved before the grids were checked")

    monkeypatch.setattr(harness, "bem_reference_solution", no_reference)
    with pytest.raises(ValueError, match="divide"):
        harness.run_table("table4", str(tmp_path / "out"), panels=16, nref=20)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("family, m", [("lobatto", 3), ("gauss", 13)])
def test_run_config_checks_tableau_before_reference(tmp_path, monkeypatch, family, m):
    # an unknown family or stage count must fail before the reference solve
    def no_reference(cfg):
        raise AssertionError("reference solved before the tableau was built")

    monkeypatch.setattr(harness, "bem_reference_solution", no_reference)
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
    ("threads", 0),
    ("N_list", ()),
    ("N_list", (3,)),
    ("N_list", (0,)),
    ("N_list", (32,)),
])
def test_config_rejects_bad_fields(field, value):
    # each bad field fails at construction, from_dict and replace alike,
    # in well under 0.1 s and with the field named in the message
    good = ExperimentConfig(**_GOOD)
    for make in (lambda: ExperimentConfig(**dict(_GOOD, **{field: value})),
                 lambda: ExperimentConfig.from_dict(dict(_GOOD, **{field: value})),
                 lambda: replace(good, **{field: value})):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="field %s=" % field):
            make()
        assert time.perf_counter() - t0 < 0.1


def test_config_checks_grids_only_for_convergence_runs():
    cfg = ExperimentConfig("stability_report", m_range=(2, 3))
    assert cfg.N_list == ()
    assert ExperimentConfig("scalar_convergence", family="Gauss", N_list=(7,), N_ref=21).m == 3


def test_weights_cache_reuse(tmp_path):
    cache = str(tmp_path / "wcache")
    cfg = ExperimentConfig("scalar_convergence", "gauss", 2, 0.0,
                           N_list=(8,), N_ref=32, weights_cache=cache)
    r1 = run_scalar_convergence(cfg)
    files = sorted(os.listdir(cache))
    assert files and all(f.endswith(".npz") for f in files)
    r2 = run_scalar_convergence(cfg)
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
    mesh, K = harness._bem_setup(cfg)
    assert K.lanes == 9 and K.key.startswith("bem_modes_")
    problem = bem.ScatteringProblem("unit_circle", "exterior_dtn", "traveling_gaussian", 1.0, 16, 8)
    dense = bem.make_transfer(problem, mesh)
    tab, h = gauss_tableau(3), cfg.T / cfg.N_ref
    g = harness._bem_stage_samples(harness.DATA["traveling_gaussian"], mesh, tab, h, cfg.N_ref)
    want = harness.apply_cq(compute_weights(dense, tab, h, cfg.N_ref, eps=cfg.eps), g)
    got = harness.bem_reference_solution(cfg)
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
    reference = harness.bem_reference_solution(cfgs[0])
    for cfg in cfgs:
        harness.run_bem_convergence(cfg, reference=reference)
    assert len(built) == 1


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


def test_run_config_stability_and_cancellation(tmp_path):
    out = str(tmp_path / "stab")
    cfg = ExperimentConfig("stability_report", m_range=(2, 3), label="stab")
    rep = run_config(cfg, out)
    assert os.path.exists(os.path.join(out, "stab.json"))
    assert rep["per_m"]["3"]["theta0"]["delta"][0] == pytest.approx(2.5, abs=1e-12)
    cfg2 = ExperimentConfig("cancellation_table", m_range=(2, 3, 4), label="canc")
    rows = run_config(cfg2, out)
    assert all(r <= 1e-9 for _, r in rows)
    assert os.path.exists(os.path.join(out, "canc.csv"))


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


def test_theta_grid_summary_excludes_degenerate_window():
    # m = 11, 12 also cover the largest stage counts of the report
    for m in (2, 11, 12):
        s = _theta_grid_summary(m)
        assert 700 <= s["theta_count"] < 721
        assert s["max_abs_re_root"] <= 1e-9
        assert s["min_beta"] > 1.0 and s["all_slopes_at_least_one"]


def test_cancellation_table_range():
    rows = run_cancellation_table((2, 5, 8))
    assert [m for m, _ in rows] == [2, 5, 8]
    assert rows[0][1] == 0.0
    assert all(r <= 1e-9 for _, r in rows)
