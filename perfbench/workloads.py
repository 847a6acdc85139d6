"""Workload definitions and the round that one child process runs.

A round is every operation of a workload, run serially in a fixed order:
for the boundary-element workloads one shared reference followed by the
convergence cells (the way ``rkcq.harness.run_table`` drives them), for
``scalar`` the table1/table2 cells and one stability report per stage
count.  An operation is one convergence cell or one stability stage count.

Every rkcq function is looked up on its module at call time
(``harness.run_bem_convergence``, not a name imported here), so the
tracer's wrappers see the calls a round makes.
"""

import dataclasses
import json
import os

# Reduced sizes.  The preset table3-5 grids take minutes per pass; these keep
# one round within seconds while preserving what each workload stresses.
ISL_PANELS = 128  # twice the table3 mesh: a larger (m n)^2 weight tensor
ISL_N_REF = 30  # L = 64 contour for the reference (table3: L = 512)
ISL_N_LIST = (5, 6, 10)
DTN_PANELS = 64  # table5 mesh; assembly cost grows with panel length
DTN_N_REF = 21
DTN_N_LIST = (3, 7)
STABILITY_M = tuple(range(1, 13))

WORKLOADS = ("scalar", "isl_circle_fine", "dtn_lshape")


def configs(workload):
    """Operation id -> ExperimentConfig (or stage count) for a workload."""
    from rkcq import harness

    if workload == "scalar":
        ops = {}
        for table in ("table1", "table2"):
            for cfg in harness.preset_configs(table):
                ops["%s_%s" % (table, cfg.label)] = cfg
        for m in STABILITY_M:
            ops["stability_m%d" % m] = m
        return ops
    if workload == "isl_circle_fine":
        table, over = "table3", dict(n_panels=ISL_PANELS, N_ref=ISL_N_REF, N_list=ISL_N_LIST)
    elif workload == "dtn_lshape":
        table, over = "table5", dict(n_panels=DTN_PANELS, N_ref=DTN_N_REF, N_list=DTN_N_LIST)
    else:
        raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(WORKLOADS)))
    return {
        "%s_%s" % (table, cfg.label): dataclasses.replace(cfg, **over)
        for cfg in harness.preset_configs(table)
    }


def run_round(ops, out_dir):
    """Run one round of ops (in their order), one output file per operation
    in out_dir.

    Returns per-operation records {"id", "ok", "error"}; an operation that
    raises is recorded as failed and the round goes on.  When the shared
    reference raises, every cell that needed it is failed.
    """
    from rkcq import harness

    os.makedirs(out_dir, exist_ok=True)
    records = []
    reference = None
    ref_error = None
    bem = [spec for spec in ops.values()
           if not isinstance(spec, int) and spec.experiment == "bem_convergence"]
    if bem:
        try:
            reference = harness.bem_reference_solution(bem[0])
        except Exception as exc:  # recorded as failed cells, the run goes on
            ref_error = "reference: %s: %s" % (type(exc).__name__, exc)
    for op_id, spec in ops.items():
        try:
            if isinstance(spec, int):
                name = op_id + ".json"
                text = json.dumps(harness.run_stability_report([spec]), indent=2)
            elif spec.experiment == "scalar_convergence":
                name, text = op_id + ".csv", harness.run_scalar_convergence(spec).to_csv()
            elif ref_error is not None:
                raise RuntimeError(ref_error)
            else:
                name = op_id + ".csv"
                text = harness.run_bem_convergence(spec, reference=reference).to_csv()
            with open(os.path.join(out_dir, name), "w") as f:
                f.write(text)
            records.append({"id": op_id, "ok": True, "error": None})
        except Exception as exc:  # a failed operation is counted, not fatal
            records.append({"id": op_id, "ok": False, "error": "%s: %s" % (type(exc).__name__, exc)})
    return records
