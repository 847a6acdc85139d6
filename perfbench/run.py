"""rkcq benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload {scalar,isl_circle_fine,dtn_lshape}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each round of the workload runs in
a child process of its own (perfbench/child.py) that imports rkcq from
./src; rounds repeat while the next one is expected to overrun S seconds
by at most half a round, and every run makes at least one.  With --trace 1
the first round is traced (per-layer counters) and at least one untraced
round follows.
Extra set-up-only children make at least SETUP_SAMPLES set-up times per run.

After the rounds, the outputs of every round are compared byte for byte
and checked against independent computations (perfbench/checks.py).  The
run prints a table of every metric with its unit, then one JSON line:
{"correct", "attempted", "failed", "metrics"}; end-to-end metrics (medians
over the run's rounds) with --trace 0, per-layer metrics with --trace 1.
It exits non-zero without a result when the program cannot be run.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 5
# BLAS threads for every child: one, so that the numbers do not depend on
# how many cores other processes leave free (never more than nproc)
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.pop("PYTHONPATH", None)  # the child imports rkcq from ./src only
    return env


def _spawn(workload, out, trace=False, setup_only=False):
    """Run one child to completion and return its JSON result."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, CHILD, "--workload", workload, "--out", out,
           "--t-spawn", repr(t_spawn)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("child exceeded %.0f s" % CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("child exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read_files(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


def measure(workload, seconds, trace):
    """Run the rounds; returns (round results, set-up times, round dirs)."""
    shutil.rmtree(os.path.join(OUT, workload), ignore_errors=True)
    os.makedirs(os.path.join(OUT, workload))
    _spawn(workload, OUT, setup_only=True)  # fills bytecode and file caches
    rounds, setups, dirs = [], [], []
    start = time.monotonic()
    last = 0.0
    while True:
        traced = trace and not rounds
        untraced = sum(1 for r in rounds if "trace" not in r)
        # stop once the next round would overrun by more than half a round
        if rounds and untraced >= 1 and time.monotonic() - start + last / 2 > seconds:
            break
        d = os.path.join(OUT, workload, "round%d" % len(rounds))
        t0 = time.monotonic()
        res = _spawn(workload, d, trace=traced)
        last = time.monotonic() - t0
        rounds.append(res)
        setups.append(res["setup_s"])
        dirs.append(d)
    while len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(workload, OUT, setup_only=True)["setup_s"])
    return rounds, setups, dirs


def verify(workload, seed, rounds, dirs):
    """Failure messages of the determinism and independent checks."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    import workloads

    files = [_read_files(d) for d in dirs]
    fails = checks.check_determinism(files)
    ops = workloads.configs(workload)
    text = {k: v.decode() for k, v in files[0].items()}
    fails += checks.verify(workload, ops, text, random.Random(seed))
    failed_ids = sorted(r["id"] for r in rounds[0]["ops"] if not r["ok"])
    for res in rounds[1:]:
        if sorted(r["id"] for r in res["ops"] if not r["ok"]) != failed_ids:
            fails.append("rounds failed different operations")
    return fails


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(names)))
    if not os.path.isfile(os.path.join(ROOT, "src", "rkcq", "__init__.py")):
        print("perfbench: no rkcq sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        rounds, setups, dirs = measure(args.workload, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    t_check = time.monotonic()
    fails = verify(args.workload, args.seed, rounds, dirs)
    check_s = time.monotonic() - t_check

    plain = [r for r in rounds if "trace" not in r]
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        kind = "per_layer"
        values = dict(rounds[0]["trace"])
        values["trace.overhead_s"] = rounds[0]["wall_s"] - plain_wall
    else:
        kind = "end_to_end"
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": plain_wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(units) - set(values))
    if missing:
        print("perfbench: metrics not measured: %s" % ", ".join(missing), file=sys.stderr)
        return 1

    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for op in r["ops"] if not op["ok"])
    print("workload %s  seed %d  rounds %d (%d traced)  set-ups %d  BLAS threads %d (nproc %d)"
          % (args.workload, args.seed, len(rounds), len(rounds) - len(plain), len(setups),
             min(BLAS_THREADS, os.cpu_count() or 1), os.cpu_count() or 1))
    print("round wall_s: %s" % " ".join("%.3f" % r["wall_s"] for r in rounds))
    for op in rounds[0]["ops"]:
        if not op["ok"]:
            print("failed operation %s: %s" % (op["id"], op["error"]))
    for msg in fails:
        print("CHECK FAILED: %s" % msg)
    print("checks: %s (%.1f s)" % ("pass" if not fails else "%d failed" % len(fails), check_s))
    for name, unit in units.items():
        print("  %-36s %14.6f %s" % (name, values[name], unit))
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
