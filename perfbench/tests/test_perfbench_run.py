"""The benchmark reports every metric named in BENCHMARK.json, counts every
layer it names, and refuses to run without the program's sources."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _tiny_ops(workload):
    """The workload's operations on grids small enough for a unit test."""
    import dataclasses

    ops = workloads.configs(workload)
    if workload == "scalar":
        keep = ("table1_gauss2_mu0", "stability_m2")
        return {k: (dataclasses.replace(ops[k], N_list=(4, 8), N_ref=16)
                    if not isinstance(ops[k], int) else ops[k]) for k in keep}
    return {k: dataclasses.replace(cfg, n_panels=16, N_list=(2,), N_ref=4)
            for k, cfg in list(ops.items())[:1]}


def test_tiny_traced_pass_counts_every_layer(tmp_path):
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    seen = {}
    for workload in workloads.WORKLOADS:
        ops = _tiny_ops(workload)
        with Tracer() as tracer:
            records = workloads.run_round(ops, str(tmp_path / workload))
        assert all(r["ok"] for r in records), records
        for name, value in tracer.metrics().items():
            seen[name] = max(seen.get(name, 0), value)
    assert set(per_layer) - set(seen) == {"trace.overhead_s"}
    # every layer metric moved on some workload, except the cache hit count
    # of the per-frequency transfer cache, which never hits
    assert sorted(n for n in seen if not seen[n] > 0) == ["bem.transfer.cache_hits"]


def _run(args, cwd, timeout=170):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_reports_every_metric(trace):
    proc = _run(["--workload", "scalar", "--seed", "5", "--seconds", "0", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    # whole rounds of 18 operations (6 cells, 12 stage counts); today stage
    # count 12 raises OverflowError, at most one failure per round
    assert result["attempted"] % 18 == 0
    assert result["failed"] * 18 <= result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "scalar", "--seed", "1", "--seconds", "1", "--trace", "0"],
                str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
