"""One measured process: set up a workload, run one round, report.

Run by run.py, never by hand:

    python3 perfbench/child.py --workload W --out DIR --t-spawn T [--trace] [--setup-only]

T is the parent's time.monotonic() just before it started this process
(one system-wide clock on Linux), so setup_s covers interpreter start,
``import rkcq`` and building the workload's configs.  The last line of
standard output is one JSON object.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import rkcq

    if not os.path.abspath(rkcq.__file__).startswith(SRC + os.sep):
        raise SystemExit("rkcq imported from %s, not from %s" % (rkcq.__file__, SRC))
    import workloads

    ops = workloads.configs(args.workload)
    t_setup = time.monotonic()
    result = {"setup_s": t_setup - args.t_spawn}
    if not args.setup_only:
        if args.trace:
            from tracer import Tracer

            scope = Tracer()
        else:
            scope = contextlib.nullcontext()
        with scope:
            t0 = time.monotonic()
            result["ops"] = workloads.run_round(ops, args.out)
            result["wall_s"] = time.monotonic() - t0
        if args.trace:
            result["trace"] = scope.metrics()
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result["peak_rss_mb"] = ru.ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux
    print(json.dumps(result))


if __name__ == "__main__":
    main()
