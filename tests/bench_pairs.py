"""Parent-against-change benchmark pairs, written to one BENCH_<name>.json.

    python tests/bench_pairs.py --out BENCH_21.json [--parent HEAD~1] [--change HEAD]
                                [--pairs 10] [--seconds 30] [--workdir DIR]

Exports both commits with `git archive` into directories of equal name
length (`parent`, `change`) under a fresh temporary directory, and for every
workload of BENCHMARK.json runs `perfbench/run.py` in each: `--pairs`
pairs with `--trace 0`, alternating which side goes first, pair k with
seed 701 + k on both sides, then one `--trace 1` run per side.  A
workload whose `peak_rss_mb` medians differ by more than 2% is run again
the same way with `MALLOC_MMAP_THRESHOLD_=65536` in the environment
(glibc's heap layout alone moves that metric by a few percent), and both
sets are kept.

The output holds the host facts (nproc, Python, numpy, the BLAS threads
each run printed, the environment variables that steer the allocator and
BLAS), every raw JSON result line, and per workload and end-to-end metric
the median and quartiles of each side and the pairs each side won.
perfbench/ itself is run as it is in each commit.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
MMAP_ENV = {"MALLOC_MMAP_THRESHOLD_": "65536"}
RSS_MOVE = 0.02
FIRST_SEED = 701


def _export(rev, dest):
    """The committed files of rev, unpacked at dest; returns the full hash."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(tree, workload, seed, seconds, trace, env):
    """One perfbench/run.py run in tree: its JSON result line, parsed, with
    the BLAS threads it printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=tree, env=dict(os.environ, **env), capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["blas_threads"] = int(re.search(r"BLAS threads (\d+)", proc.stdout).group(1))
    return result


def _pairs(trees, workload, pairs, seconds, env):
    """pairs alternating runs per side: {side: [result, ...]}."""
    runs = {side: [] for side in SIDES}
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            res = _run(trees[side], workload, FIRST_SEED + k, seconds, False, env)
            res.update(pair=k, first=order[0])
            runs[side].append(res)
            print("%s %s pair %d: %s" % (workload, side, k, json.dumps(res["metrics"])),
                  flush=True)
    return runs


def _summary(runs, metrics):
    """Per end-to-end metric: each side's median and quartiles and the
    pairs each side won (lower or higher is better, as BENCHMARK.json says)."""
    out = {}
    for m in metrics:
        name = m["name"]
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        row = {}
        for side in SIDES:
            q1, med, q3 = statistics.quantiles(vals[side], n=4, method="inclusive")
            row[side] = {"median": med, "q1": q1, "q3": q3}
        sign = 1.0 if m["better"] == "lower" else -1.0
        diffs = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
        row["change_won"] = sum(d < 0 for d in diffs)
        row["parent_won"] = sum(d > 0 for d in diffs)
        row["change_vs_parent"] = row["change"]["median"] / row["parent"]["median"] - 1.0
        out[name] = row
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="path of the BENCH_<name>.json to write")
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--workdir", default=None, help="where the two exports go")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    steer = ("MALLOC_", "OMP_", "OPENBLAS_", "MKL_", "PYTHONHASHSEED")
    bench = {
        "settings": {"pairs": args.pairs, "seconds": seconds, "first_seed": FIRST_SEED,
                     "rss_rerun_above": RSS_MOVE, "rss_rerun_env": MMAP_ENV},
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "platform": platform.platform(),
                 "environment": {k: v for k, v in os.environ.items() if k.startswith(steer)}},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs.", dir=args.workdir) as top:
        trees = {side: os.path.join(top, side) for side in SIDES}
        bench["commits"] = {side: _export(getattr(args, side), trees[side]) for side in SIDES}
        for w in spec["workloads"]:
            name = w["name"]
            runs = _pairs(trees, name, args.pairs, seconds, {})
            sets = [{"env": {}, "runs": runs, "end_to_end": _summary(runs, spec["end_to_end"])}]
            if abs(sets[0]["end_to_end"]["peak_rss_mb"]["change_vs_parent"]) > RSS_MOVE:
                again = _pairs(trees, name, args.pairs, seconds, MMAP_ENV)
                sets.append({"env": MMAP_ENV, "runs": again,
                             "end_to_end": _summary(again, spec["end_to_end"])})
            traced = {side: _run(trees[side], name, FIRST_SEED, seconds, True, {})
                      for side in SIDES}
            bench["workloads"][name] = {"pairs": sets, "traced": traced}
    bench["host"]["blas_threads"] = sorted(
        {r["blas_threads"] for entry in bench["workloads"].values() for sets in entry["pairs"]
         for side in SIDES for r in sets["runs"][side]})
    with open(args.out, "w") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")
    for name, entry in bench["workloads"].items():
        for sets in entry["pairs"]:
            for metric, row in sets["end_to_end"].items():
                print("%-16s %-12s %s parent %.4g [%.4g, %.4g]  change %.4g (%+.1f%%)  won %d/%d"
                      % (name, metric, sets["env"] or "", row["parent"]["median"],
                         row["parent"]["q1"], row["parent"]["q3"], row["change"]["median"],
                         100 * row["change_vs_parent"], row["change_won"], row["parent_won"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
