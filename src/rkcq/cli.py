"""Command-line driver: preset tables, custom config runs, stability reports."""

import argparse
import json
import os
import sys

from .harness import (ExperimentConfig, _is_stage_count, _with_overrides, _write_atomic,
                      run_config, run_stability_report, run_table)

_TABLES = ("table1", "table2", "table3", "table4", "table5")


def _add_common(p):
    p.add_argument("--out", default="cq_out", help="output directory (default: cq_out)")
    p.add_argument("--weights-cache", default=None,
                   help="directory for reusable weight-set artifacts")
    p.add_argument("--panels", type=int, default=None,
                   help="override boundary panel count")
    p.add_argument("--nref", type=int, default=None,
                   help="override reference step count")


def _parse_m_range(text):
    """The argparse type of --m-range: "lo-hi" or "a,b,c", each a stage
    count in [1, 12], at least one."""
    try:
        if "-" in text and "," not in text:
            lo, hi = text.split("-")
            m_range = tuple(range(int(lo), int(hi) + 1))
        else:
            m_range = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected lo-hi or a,b,c, got %r" % text)
    if not (m_range and all(_is_stage_count(m) for m in m_range)):
        raise argparse.ArgumentTypeError("need stage counts in [1, 12], got %r" % text)
    return m_range


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cq-harness",
        description="Runge-Kutta convolution quadrature convergence and stability studies",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a JSON experiment config")
    p_run.add_argument("config", help="path to a config JSON file")
    _add_common(p_run)

    for t in _TABLES:
        p_t = sub.add_parser(t, help="run the %s preset" % t)
        _add_common(p_t)

    p_st = sub.add_parser("stability-report", help="emit the stability JSON report")
    p_st.add_argument("--m-range", type=_parse_m_range, default="1-12",
                      help="stage counts, e.g. 1-12 or 2,3,5 (default: 1-12)")
    p_st.add_argument("--out", default=None,
                      help="write JSON to DIR/stability_report.json instead of stdout")

    args = parser.parse_args(argv)

    if args.cmd == "stability-report":
        report = run_stability_report(args.m_range)
        text = json.dumps(report, indent=2)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "stability_report.json")
            with _write_atomic(path) as f:
                f.write((text + "\n").encode())
            print(path)
        else:
            print(text)
        return 0

    if args.cmd == "run":
        with open(args.config) as f:
            cfg = ExperimentConfig.from_dict(json.load(f))
        run_config(_with_overrides(cfg, weights_cache=args.weights_cache,
                                  n_panels=args.panels, N_ref=args.nref), args.out)
        print(args.out)
        return 0

    run_table(args.cmd, args.out, panels=args.panels, nref=args.nref,
              weights_cache=args.weights_cache)
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
