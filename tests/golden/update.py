"""Golden table1..table5 CSVs and stability report, and the bounds they hold to.

    python tests/golden/update.py

reruns the five presets and `cq-harness stability-report --m-range 1-12`
(about 4 minutes on a 2-vCPU VM, one BLAS thread), prints every row's
change against the files in this directory and then overwrites them.  A
change that moves a row past its bound rewrites the files on purpose and
lists the printed deltas with it.  tests/test_acceptance.py compares the
tables its fixtures compute, and a fresh report, against these files.

The bounds (TOLERANCE below) are not bit-identity: a runner with another
numpy build may move the last bits.

- table1, table2 and the report: errors within 1e-12 relative.  The
  report's values of magnitude below 1 are residuals and discrepancies, so
  they are held to 1e-12 absolute; `max_beta` carries about 1e-11 relative
  roundoff (a cancelling |P(iy)|^2 - y^2m) and is held to 1e-10.
- table3..table5: errors within 1e-9 relative.  The table3 Gauss-5 rows at
  N >= 14 are roundoff-dominated (lambda^-N = 1.9e3 amplifies the
  quadrature noise), so they get 1e-6.
- EOCs equal their 6 printed decimals, except those table3 Gauss-5 rows,
  which get 1e-5.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TABLES = ("table1", "table2", "table3", "table4", "table5")
REPORT = "stability_report.json"

# (relative bound on the error, absolute bound on the EOC); an EOC bound of
# 0 asks for the same printed EOC
TOLERANCE = {
    "scalar": (1e-12, 0.0),
    "bem": (1e-9, 0.0),
    "roundoff": (1e-6, 1e-5),
    "report": 1e-12,
    "max_beta": 1e-10,
}


def row_bounds(table, label, N):
    if table in ("table1", "table2"):
        return TOLERANCE["scalar"]
    if table == "table3" and label == "gauss5" and N >= 14:
        return TOLERANCE["roundoff"]
    return TOLERANCE["bem"]


def csv_rows(text):
    """(N, error, eoc) rows of a convergence CSV, the eoc as printed."""
    head, *lines = text.splitlines()
    if head != "N_t,error,eoc":
        raise ValueError("not a convergence CSV: %r" % head)
    rows = []
    for line in lines:
        N, err, eoc = line.split(",")
        rows.append((int(N), float(err), eoc))
    return rows


def table_deltas(table, label, golden, new):
    """Per row of the cell's CSV texts: (N, relative error change, EOC
    change or None when both are blank, within bounds)."""
    g, n = csv_rows(golden), csv_rows(new)
    if [r[0] for r in g] != [r[0] for r in n]:
        raise ValueError("%s %s: grids %s, golden %s"
                         % (table, label, [r[0] for r in n], [r[0] for r in g]))
    out = []
    for (N, eg, og), (_, en, on) in zip(g, n):
        rel_bound, eoc_bound = row_bounds(table, label, N)
        rel = abs(en - eg) / abs(eg)
        if og == "" or on == "":
            deoc, eoc_ok = None, og == on
        else:
            deoc = abs(float(on) - float(og))
            eoc_ok = on == og or deoc <= eoc_bound
        out.append((N, rel, deoc, rel <= rel_bound and eoc_ok))
    return out


def report_deltas(golden, new, path=""):
    """(path, golden value, new value, within bounds) for every value of the
    stability reports that differs."""
    if isinstance(golden, dict) and isinstance(new, dict) and golden.keys() == new.keys():
        return [d for k in golden for d in report_deltas(golden[k], new[k], path + "/" + k)]
    if isinstance(golden, list) and isinstance(new, list) and len(golden) == len(new):
        return [d for k, (a, b) in enumerate(zip(golden, new))
                for d in report_deltas(a, b, "%s/%d" % (path, k))]
    if golden == new:
        return []
    real = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (golden, new))
    if not real:
        return [(path, golden, new, False)]
    if path.endswith("/max_beta"):
        ok = abs(new - golden) <= TOLERANCE["max_beta"] * abs(golden)
    else:
        ok = abs(new - golden) <= TOLERANCE["report"] * max(abs(golden), abs(new), 1.0)
    return [(path, golden, new, ok)]


def _read(path):
    with open(path) as f:
        return f.read()


def main():
    # the files were written with one BLAS thread, as CI runs the tests
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))
    from rkcq.harness import run_stability_report, run_table

    written = {}
    with tempfile.TemporaryDirectory() as out:
        for table in TABLES:
            for cell in run_table(table, out)["cells"]:
                text = _read(os.path.join(out, cell["file"]))
                written[cell["file"]] = (table, cell["label"], text)
    report = json.dumps(run_stability_report(range(1, 13)), indent=2) + "\n"
    written[REPORT] = (None, None, report)
    moved = 0
    for name, (table, label, text) in written.items():
        path = os.path.join(HERE, name)
        if not os.path.exists(path):
            print("%s: new" % name)
        elif table is None:
            deltas = report_deltas(json.loads(_read(path)), json.loads(text))
            print("%s: %d values changed" % (name, len(deltas)))
            for where, a, b, ok in deltas:
                print("  %s %r -> %r%s" % (where, a, b, "" if ok else "  OUT OF BOUNDS"))
                moved += not ok
        else:
            print(name)
            for N, rel, deoc, ok in table_deltas(table, label, _read(path), text):
                print("  N=%-4d error %.2e rel  eoc %s%s"
                      % (N, rel, "-" if deoc is None else "%.1e" % deoc,
                         "" if ok else "  OUT OF BOUNDS"))
                moved += not ok
        with open(path, "w") as f:
            f.write(text)
    print("%d rows or values out of bounds" % moved)


if __name__ == "__main__":
    main()
