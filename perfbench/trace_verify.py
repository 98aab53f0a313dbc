"""Run one `liyau verify` with spans around the public calls into each layer.

    python perfbench/trace_verify.py RESULT_JSON verify --config C [--seed S] [--out D]

The spans wrap module attributes at their call sites, so nothing in `src/`
changes: `liyau.harness.run_experiment` and `emit_report` (called by the CLI
through the module), `liyau.harness.solve_heat` (harness binds it by name),
and the public functions of `liyau.bounds`, `liyau.clocks` and
`liyau.stochastic`, which the harness and the modules themselves reach
through module attributes.  A span's self time is its duration minus that
of the spans it encloses.

After verify returns, every MC row's random draws are replayed alone --
one `standard_normal(out=)` per step for the row's batch, plus one
`standard_exponential(out=)` per wall under the bridge scheme -- which
gives the RNG-only floor of the stepper on this machine in this run.

RESULT_JSON receives the layer sums, the probe time, the report's checked
numbers (margins and MC rows) and verify's exit code, which is also this
process's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time

import numpy as np

import liyau.cli
from liyau import bounds, clocks, harness, stochastic

STOCHASTIC_CALLS = ("estimate_functional", "local_time_moment",
                    "expected_local_time", "expected_value_at")


class Tracer:
    """Span sums per layer, kept in memory and written once at the end."""

    def __init__(self):
        self.totals: dict[str, float] = {}
        self.open: list[float] = []   # time covered by children, per open span
        self.mc_rows: list[tuple] = []  # (n_paths, steps, walls, seed)
        self.steppers: list = []
        self.report = None

    def add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + value

    def wrap(self, module, name: str, layer: str, after=None,
             sys_time: bool = False) -> None:
        """Replace module.name by a span that adds to `layer`'s sums.

        after(result, bound_args, self_s) records layer-specific counts.
        """
        fn = getattr(module, name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self.open.append(0.0)
            sys0 = os.times().system if sys_time else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                own = dur - self.open.pop()
                if self.open:
                    self.open[-1] += dur
                self.add(layer + ".self_s", own)
                self.add(layer + ".incl_s", dur)
                self.add(layer + ".calls", 1)
                if sys_time:
                    self.add(layer + ".sys_s", os.times().system - sys0)
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(result, bound.arguments, own)
            return result

        setattr(module, name, span)

    # -- layer-specific counts -----------------------------------------------

    def after_run(self, report, args, own):
        self.report = report

    def after_emit(self, paths, args, own):
        self.add("harness.emit_bytes", sum(os.path.getsize(p) for p in paths))

    def after_solve(self, state, args, own):
        self.add(f"heatflow.solve_s.{state.scheme}", own)
        self.add("heatflow.grid_points", state.grid.size)

    def after_mc(self, est, args, own):
        n_paths, t, dt = int(args["n_paths"]), float(args["t"]), float(args["dt"])
        steps = int(round(t / dt))
        self.add("stochastic.path_steps", n_paths * steps)
        walls = len(args["M"].boundaries()) if args["scheme"] == "bridge" else 0
        self.mc_rows.append((n_paths, steps, walls, int(args["seed"])))
        if self.steppers:
            rejected = sum(s.rejected for s in self.steppers)
        else:
            rejected = est.meta.get("rejected", 0)
        self.add("stochastic.rejected", rejected)
        self.steppers.clear()

    def install(self) -> None:
        self.wrap(harness, "run_experiment", "harness.run", self.after_run)
        self.wrap(harness, "emit_report", "harness.emit", self.after_emit)
        self.wrap(harness, "solve_heat", "heatflow.solve", self.after_solve)
        for name in ("eval_bound", "check_inequality"):
            self.wrap(bounds, name, "bounds")
        for name in ("make_clock", "clock_integrals", "gamma_integral",
                     "alpha_form_integral"):
            self.wrap(clocks, name, "clocks")
        for name in STOCHASTIC_CALLS:
            self.wrap(stochastic, name, "stochastic", self.after_mc,
                      sys_time=True)
        # The chart-guard rejections live on the stepper each estimator
        # builds; record every stepper so after_mc can read them.  Without
        # that class, after_mc falls back to the estimate's metadata.
        if not hasattr(stochastic, "_Stepper"):
            return
        steppers, base = self.steppers, stochastic._Stepper

        class RecordedStepper(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                steppers.append(self)

        stochastic._Stepper = RecordedStepper

    def rng_floor_s(self) -> float:
        """Seconds to draw every MC row's random numbers and nothing else."""
        total = 0.0
        for n_paths, steps, walls, seed in self.mc_rows:
            rng = np.random.default_rng(seed)
            buf = np.empty(n_paths)
            t0 = time.perf_counter()
            for _ in range(steps):
                rng.standard_normal(out=buf)
                for _ in range(walls):
                    rng.standard_exponential(out=buf)
            total += time.perf_counter() - t0
        return total


def report_tables(report) -> dict:
    """The numbers workloads.read_tables reads back from the report files."""
    series: dict[tuple, float] = {}
    for row in report.bound_rows:
        if not row["domain_ok"] or row.get("error") or row["margin"] is None:
            continue
        key = (row["bound_id"], row["t"])
        series[key] = min(series.get(key, math.inf), row["margin"])
    margins = [[b, float(t), m] for (b, t), m in sorted(series.items())]
    mc = [[r.get("functional_id"), r.get("value"), r.get("stderr"),
           r.get("target"), r.get("passed")] for r in report.mc_rows]
    return {"margins": margins, "mc": mc}


def main(argv: list[str]) -> int:
    result_path, verify_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        liyau.cli.main(args=verify_args, prog_name="liyau",
                       standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    sys.stdout.flush()
    probe_s = tracer.rng_floor_s()
    report = tracer.report
    doc = {"exit_code": code, "totals": tracer.totals, "probe_s": probe_s,
           "tables": report_tables(report) if report is not None else None,
           "bound_rows": len(report.bound_rows) if report else 0,
           "mc_rows": len(report.mc_rows) if report else 0}
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
