"""Per-layer counters for one traced round, recorded from outside rkcq.

The tracer replaces public rkcq functions on the module where the caller
looks them up (``rkcq.bem.k0k1`` for assembly, ``rkcq.harness.compute_weights``
for the harness, ``BemTransfer.__call__`` on the class) with wrappers that
time and count the call, and puts the originals back on exit.  No file of
the package changes.  Counters live on the Tracer object.
"""

import dataclasses
import functools
import time

import numpy as np

# the regime thresholds of rkcq.bessel.k0k1 (module docstring): series where
# |z| + Re z <= 8.5, asymptotic where |z| >= 16.5, continued fraction between;
# arguments with Re z > 700 underflow to 0 and fall in no regime
SERIES_SUM = 8.5
ASYM_ABS = 16.5
DEAD_RE = 700.0


class Tracer:
    """Context manager that wraps rkcq's layer boundaries while active."""

    def __init__(self):
        self.calls = {}
        self.seconds = {}
        self.count = {}
        self.weights_bytes = 0
        self._patches = []

    # -- bookkeeping ---------------------------------------------------
    def _add(self, name, dt):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.seconds[name] = self.seconds.get(name, 0.0) + dt

    def _bump(self, name, n):
        self.count[name] = self.count.get(name, 0) + int(n)

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._add(name, time.perf_counter() - t0)
            return wrapper
        return make

    # -- layer-specific wrappers -----------------------------------------
    def _k0k1(self, fn):
        @functools.wraps(fn)
        def wrapper(z):
            t0 = time.perf_counter()
            try:
                return fn(z)
            finally:
                self._add("bessel.k0k1", time.perf_counter() - t0)
                zf = np.asarray(z, dtype=complex).ravel()
                az = np.abs(zf)
                live = zf.real <= DEAD_RE
                ser = live & (az + zf.real <= SERIES_SUM)
                asy = live & ~ser & (az >= ASYM_ABS)
                self._bump("bessel.k0k1.args", zf.size)
                self._bump("bessel.k0k1.args_series", np.count_nonzero(ser))
                self._bump("bessel.k0k1.args_asym", np.count_nonzero(asy))
                self._bump("bessel.k0k1.args_cf", np.count_nonzero(live & ~ser & ~asy))
        return wrapper

    def _k0(self, fn):
        @functools.wraps(fn)
        def wrapper(z):
            t0 = time.perf_counter()
            try:
                return fn(z)
            finally:
                self._add("bessel.k0", time.perf_counter() - t0)
                self._bump("bessel.k0.args", np.size(z))
        return wrapper

    def _transfer(self, fn):
        @functools.wraps(fn)
        def wrapper(obj, s):
            before = self.calls.get("bem.assemble_pair", 0)
            asm_before = self.seconds.get("bem.assemble_pair", 0.0)
            t0 = time.perf_counter()
            try:
                return fn(obj, s)
            finally:
                self._add("bem.transfer", time.perf_counter() - t0)
                if self.calls.get("bem.assemble_pair", 0) == before:
                    self._bump("bem.transfer.cache_hits", 1)
                asm = self.seconds.get("bem.assemble_pair", 0.0) - asm_before
                self.seconds["bem.transfer.assembly"] = (
                    self.seconds.get("bem.transfer.assembly", 0.0) + asm
                )
        return wrapper

    def _compute_weights(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(K, *args, **kwargs):
            kfn = K.fn

            def timed_kernel(s):
                t0 = time.perf_counter()
                try:
                    return kfn(s)
                finally:
                    tracer.seconds["engine.kernel"] = (
                        tracer.seconds.get("engine.kernel", 0.0) + time.perf_counter() - t0
                    )
                    tracer._bump("engine.contour_nodes", np.size(s))

            t0 = time.perf_counter()
            try:
                wset = fn(dataclasses.replace(K, fn=timed_kernel), *args, **kwargs)
            finally:
                tracer._add("engine.compute_weights", time.perf_counter() - t0)
            tracer.weights_bytes = max(tracer.weights_bytes, wset.W.nbytes)
            return wset
        return wrapper

    def _cell(self, fn):
        # a scalar cell computes its own reference inside; that time is
        # counted under the reference, not under the cell
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ref_before = self.seconds.get("harness.reference", 0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                dt -= self.seconds.get("harness.reference", 0.0) - ref_before
                self._add("harness.cell", dt)
        return wrapper

    # -- install / remove --------------------------------------------------
    def __enter__(self):
        from rkcq import bem, engine, harness, stability

        t = self._timed
        self._patch(bem, "k0k1", self._k0k1)
        self._patch(bem, "bessel_k0", self._k0)
        self._patch(bem, "assemble_pair", t("bem.assemble_pair"))
        self._patch(bem.BemTransfer, "__call__", self._transfer)
        self._patch(harness, "error_metric", t("bem.error_metric"))
        for mod in (harness, engine):
            self._patch(mod, "compute_weights", self._compute_weights)
            self._patch(mod, "apply_cq", t("engine.apply_cq"))
        self._patch(harness, "scalar_reference_solution", t("harness.reference"))
        self._patch(harness, "bem_reference_solution", t("harness.reference"))
        self._patch(harness, "run_scalar_convergence", self._cell)
        self._patch(harness, "run_bem_convergence", self._cell)
        self._patch(harness, "run_stability_report", t("stability.report"))
        self._patch(stability, "solve_R_equals", t("stability.solve_R_equals"))
        self._patch(stability, "beta_coefficient", t("stability.beta_coefficient"))
        self._patch(stability, "cancellation_check", t("stability.cancellation_check"))
        self._patch(harness, "verify_invertibility_and_simplicity", t("tableaux.verify"))
        self._patch(harness, "verify_eigenvector_nondegeneracy", t("tableaux.verify"))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- results -------------------------------------------------------------
    def metrics(self):
        """Per-layer metric name -> value (every name, zero when unused)."""
        c, s, n = self.calls, self.seconds, self.count
        k_s = s.get("bessel.k0k1", 0.0)
        k_args = n.get("bessel.k0k1.args", 0)
        asm_calls = c.get("bem.assemble_pair", 0)
        asm_s = s.get("bem.assemble_pair", 0.0)
        cw_s = s.get("engine.compute_weights", 0.0)
        kernel_s = s.get("engine.kernel", 0.0)
        return {
            "bessel.k0k1.calls": c.get("bessel.k0k1", 0),
            "bessel.k0k1.args": k_args,
            "bessel.k0k1.s": k_s,
            "bessel.k0k1.margs_per_s": k_args / k_s / 1e6 if k_s > 0 else 0.0,
            "bessel.k0k1.args_series": n.get("bessel.k0k1.args_series", 0),
            "bessel.k0k1.args_cf": n.get("bessel.k0k1.args_cf", 0),
            "bessel.k0k1.args_asym": n.get("bessel.k0k1.args_asym", 0),
            "bessel.k0.args": n.get("bessel.k0.args", 0),
            "bessel.k0.s": s.get("bessel.k0", 0.0),
            "bem.transfer.calls": c.get("bem.transfer", 0),
            "bem.transfer.s": s.get("bem.transfer", 0.0),
            "bem.transfer.cache_hits": n.get("bem.transfer.cache_hits", 0),
            "bem.assemble_pair.calls": asm_calls,
            "bem.assemble_pair.s": asm_s,
            "bem.assemble_pair.ms_per_call": 1e3 * asm_s / asm_calls if asm_calls else 0.0,
            "bem.solve_s": s.get("bem.transfer", 0.0) - s.get("bem.transfer.assembly", 0.0),
            "bem.error_metric.s": s.get("bem.error_metric", 0.0),
            "engine.compute_weights.calls": c.get("engine.compute_weights", 0),
            "engine.compute_weights.s": cw_s,
            "engine.kernel_s": kernel_s,
            "engine.compute_weights.self_s": cw_s - kernel_s,
            "engine.contour_nodes": n.get("engine.contour_nodes", 0),
            "engine.apply_cq.calls": c.get("engine.apply_cq", 0),
            "engine.apply_cq.s": s.get("engine.apply_cq", 0.0),
            "engine.weights_mb": self.weights_bytes / 1e6,
            "harness.reference_s": s.get("harness.reference", 0.0),
            "harness.cells_s": s.get("harness.cell", 0.0),
            "stability.report_s": s.get("stability.report", 0.0),
            "stability.solve_R_equals.calls": c.get("stability.solve_R_equals", 0),
            "stability.solve_R_equals.s": s.get("stability.solve_R_equals", 0.0),
            "stability.beta_coefficient.calls": c.get("stability.beta_coefficient", 0),
            "stability.cancellation_check.s": s.get("stability.cancellation_check", 0.0),
            "tableaux.verify_s": s.get("tableaux.verify", 0.0),
        }
