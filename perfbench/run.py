"""Benchmark of `liyau verify` on pinned workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: every process takes the program
from the checkout's `src/`.  The load is a closed loop with one client.  An
iteration runs the workload's verify processes one after another, each a
fresh process with tracing off, and the next iteration starts when they
have exited.  Iterations repeat until the next one would end after S
seconds.  The seed reaches the program only as `verify --seed`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the median
over the run:
  wall_s       wall time of one iteration's verify processes
  cpu_s        their user plus sys CPU time, from os.wait4
  peak_rss_mb  the largest maximum RSS among them, from os.wait4
  setup_s      wall time of a fresh process that imports liyau.cli and
               loads the workload's configs, SETUP_SAMPLES times
A virtual machine on a shared host can change speed by 20% and more over
minutes, and every process of a run slows with it.  So every timed process
runs between two runs of calibrate.py, fixed work that uses none of the
program, and its times are reported at reference speed: multiplied by
CAL_REF_S over the mean wall time of those two calibrations.  An
iteration's wall_s and cpu_s are the sums over its processes of these
scaled times.  The table beside the result line also prints the medians of
the unscaled times and of the calibrations.  The set-up samples and the
iterations share one time budget of S seconds.

--trace 1 alternates untraced iterations with iterations whose processes
run under trace_verify.py.  It reports the per-layer metrics of
BENCHMARK.json: medians over the traced iterations of each layer's self
time and counts, import times from `-X importtime`, the traced minus the
untraced wall time, and the share of failed iterations.

Every verify process is checked (workloads.run_problems); an iteration
fails when one of its processes does.  Tables and an environment record go
to stdout, and the last line is one JSON object with `correct`, `attempted`
and `failed` iterations and the `metrics`.  `--workload all` runs every
workload in both modes.  `--reduced` runs small copies of the configs and
skips the reference comparison; the smoke test uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 4
IMPORT_SAMPLES = 3
# Every process of a run is killed once the run has taken this long, so a
# run ends within 180 s even when the program hangs.
RUN_LIMIT_S = 165
# Trace-0 times are reported at the host speed at which calibrate.py takes
# CAL_REF_S seconds.
CAL_REF_S = 0.5
SETUP_CODE = ("import sys\n"
              "import liyau.cli\n"
              "from liyau.harness import ExperimentConfig\n"
              "for path in sys.argv[1:]:\n"
              "    ExperimentConfig.from_json(path)\n")


@dataclass
class Process:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    output: str


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    scaled_wall_s: float = 0.0  # at reference speed, when calibrated
    scaled_cpu_s: float = 0.0
    problems: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)  # traced iterations only

    def add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + value


def run_process(cmd: list, log: Path, deadline: float) -> Process:
    """Run cmd to completion with stdout and stderr in log; kill it at the
    perf_counter time `deadline`.  Wall time spans spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with log.open("w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Process(wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, code, log.read_text())


class Calibration:
    """Wall times of calibrate.py processes, one run after each timed
    process, so that each timed process lies between two of them."""

    def __init__(self, deadline: float, problems: list):
        self.deadline = deadline
        self.problems = problems
        self._run()  # untimed: compiles the bytecode caches
        self.times = [self._run()]

    def _run(self) -> float:
        proc = run_process([sys.executable, str(HERE / "calibrate.py")],
                           WORK / "calibrate.log", self.deadline)
        if proc.exit_code != 0:
            self.problems.append(f"calibration failed:\n{proc.output}")
        return proc.wall_s

    def after(self) -> float:
        """Calibrate again.  Returns the factor that brings a time measured
        since the previous calibration to reference speed: CAL_REF_S over
        the mean of the two calibrations."""
        self.times.append(self._run())
        return 2 * CAL_REF_S / (self.times[-2] + self.times[-1])


def run_iteration(workload: str, configs: list, seed: int, reference,
                  traced: bool, deadline: float,
                  cal: Calibration | None = None) -> Iteration:
    it = Iteration()
    for inv, config in zip(wl.WORKLOADS[workload], configs):
        stem = Path(inv.config).stem
        out = WORK / stem
        shutil.rmtree(out, ignore_errors=True)
        args = ["verify", "--config", str(config), "--seed", str(seed)]
        if inv.out:
            args += ["--out", str(out)]
        result = WORK / f"{stem}.trace.json"
        result.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "trace_verify.py"), str(result)]
        else:
            cmd = [sys.executable, "-m", "liyau"]
        proc = run_process(cmd + args, WORK / f"{stem}.log", deadline)
        ref = reference["invocations"][inv.config] if reference else None
        wall = proc.wall_s
        tables = None
        if traced and result.is_file():
            doc = json.loads(result.read_text())
            tables = doc["tables"]
            wall -= doc["probe_s"]
            for key, value in doc["totals"].items():
                it.add(key, value)
            it.add("stochastic.probe_s", doc["probe_s"])
            it.add("harness.bound_rows", doc["bound_rows"])
            it.add("harness.mc_rows", doc["mc_rows"])
            if tables:
                it.add("harness.mc_flagged", wl.statistical_flags(tables["mc"]))
            if ref and inv.out:
                same, compared = wl.identical_files(out, ref, seed)
                it.add("harness.report_identical", same)
                it.add("harness.report_files", compared)
        elif traced:
            it.problems.append(f"{inv.config}: traced run wrote no result")
        elif inv.out:
            if all((out / n).is_file() for n in wl.REPORT_FILES):
                tables = wl.read_tables(out)
            else:
                it.problems.append(f"{inv.config}: report files missing")
        it.problems += [f"{inv.config}: {p}" for p in
                        wl.run_problems(ref, proc.exit_code, proc.output,
                                        tables, seed)]
        it.wall_s += wall
        it.cpu_s += proc.cpu_s
        it.rss_mb = max(it.rss_mb, proc.rss_mb)
        if cal is not None:
            speed = cal.after()
            it.scaled_wall_s += wall * speed
            it.scaled_cpu_s += proc.cpu_s * speed
    return it


def layer_metrics(t: dict) -> dict:
    """Per-layer metrics of one traced iteration from its summed spans."""
    def get(key):
        return t.get(key, 0.0)
    steps, mc_s = get("stochastic.path_steps"), get("stochastic.self_s")
    rate = steps / mc_s if mc_s else 0.0
    probe_s = get("stochastic.probe_s")
    floor = steps / probe_s if probe_s else 0.0
    return {
        "harness.run_s": get("harness.run.incl_s"),
        "harness.self_s": get("harness.run.self_s"),
        "harness.bound_rows": get("harness.bound_rows"),
        "harness.mc_rows": get("harness.mc_rows"),
        "harness.mc_flagged": get("harness.mc_flagged"),
        "harness.emit_s": get("harness.emit.incl_s"),
        "harness.emit_bytes": get("harness.emit_bytes"),
        "harness.report_identical": get("harness.report_identical"),
        "harness.report_files": get("harness.report_files"),
        "bounds.eval_s": get("bounds.self_s"),
        "bounds.calls": get("bounds.calls"),
        "clocks.s": get("clocks.self_s"),
        "clocks.calls": get("clocks.calls"),
        "heatflow.solve_s": get("heatflow.solve.self_s"),
        "heatflow.solve_s.spectral": get("heatflow.solve_s.spectral"),
        "heatflow.solve_s.crank-nicolson-fd":
            get("heatflow.solve_s.crank-nicolson-fd"),
        "heatflow.solve_calls": get("heatflow.solve.calls"),
        "heatflow.grid_points": get("heatflow.grid_points"),
        "stochastic.mc_s": mc_s,
        "stochastic.sys_s": get("stochastic.sys_s"),
        "stochastic.path_steps": steps,
        "stochastic.path_steps_per_s": rate,
        "stochastic.rng_floor_per_s": floor,
        "stochastic.floor_frac": rate / floor if floor else 0.0,
        "stochastic.rejected": get("stochastic.rejected"),
        "stochastic.reject_ratio":
            get("stochastic.rejected") / steps if steps else 0.0,
    }


def import_times(output: str) -> dict:
    """cli.import_s and cli.import_scipy_s from `-X importtime` output.

    Each is the sum of the cumulative times of the outermost entries of that
    package: entries with no ancestor of the same package.  The output lists
    children before their parent, so it is walked backwards.
    """
    entries = []
    for line in output.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line.split("|")
        if cumulative.strip().isdigit():
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((depth, name.strip(), int(cumulative)))
    totals = {"liyau": 0, "scipy": 0}
    ancestors: list = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        package = name.split(".")[0]
        if package in totals and package not in ancestors:
            totals[package] += cumulative
        ancestors.append(package)
    return {"cli.import_s": totals["liyau"] * 1e-6,
            "cli.import_scipy_s": totals["scipy"] * 1e-6}


def environment(seed: int) -> dict:
    proc = run_process([sys.executable, str(HERE / "environment.py")],
                       WORK / "environment.log", time.perf_counter() + 60)
    env = json.loads(proc.output) if proc.exit_code == 0 else {}
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    env.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        blas_env={k: os.environ[k] for k in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS") if k in os.environ},
        git_commit=commit,
        seed=seed,
        configs={p.name: wl.sha256(p)
                 for p in sorted(wl.CONFIG_DIR.glob("*.json"))},
        shipped_configs={path: wl.sha256(ROOT / path)
                         if (ROOT / path).is_file() else None
                         for path in wl.SHIPPED.values()})
    return env


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def measure(workload: str, seed: int, seconds: float, traced: bool,
            reduced: bool) -> dict:
    """One run of one workload; returns the result line's object."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    problems: list = []
    if reduced:
        reference = None
        configs = []
        for inv in wl.WORKLOADS[workload]:
            doc = json.loads((wl.CONFIG_DIR / inv.config).read_text())
            path = WORK / f"reduced-{inv.config}"
            path.write_text(json.dumps(wl.reduced_config(doc)))
            configs.append(path)
    else:
        reference = wl.load_reference()
        problems += wl.pin_problems(reference)
        configs = [wl.CONFIG_DIR / inv.config for inv in wl.WORKLOADS[workload]]

    setup_cmd = [sys.executable, "-c", SETUP_CODE] + [str(c) for c in configs]
    # An untimed first process compiles the bytecode caches.
    warm = run_process(setup_cmd, WORK / "setup.log", deadline)
    if warm.exit_code != 0:
        problems.append(f"set-up process failed:\n{warm.output}")

    start = time.perf_counter()
    samples: dict = {}
    raw: dict = {}
    cal = None
    if traced:
        for _ in range(IMPORT_SAMPLES):
            proc = run_process([sys.executable, "-X", "importtime", "-c",
                                "import liyau.cli"], WORK / "importtime.log",
                               deadline)
            for key, value in import_times(proc.output).items():
                samples.setdefault(key, []).append(value)
    else:
        cal = Calibration(deadline, problems)
        for _ in range(SETUP_SAMPLES):
            proc = run_process(setup_cmd, WORK / "setup.log", deadline)
            raw.setdefault("setup_s", []).append(proc.wall_s)
            samples.setdefault("setup_s", []).append(
                proc.wall_s * cal.after())

    untraced, traced_its = [], []
    while True:
        t0 = time.perf_counter()
        untraced.append(run_iteration(workload, configs, seed, reference,
                                      False, deadline, cal))
        if traced:
            traced_its.append(run_iteration(workload, configs, seed,
                                            reference, True, deadline))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break

    iterations = untraced + traced_its
    failed = sum(bool(it.problems) for it in iterations)
    for it in iterations:
        problems += it.problems
    if traced:
        for it in traced_its:
            for key, value in layer_metrics(it.totals).items():
                samples.setdefault(key, []).append(value)
        samples["trace.overhead_s"] = [
            statistics.median(it.wall_s for it in traced_its)
            - statistics.median(it.wall_s for it in untraced)]
        samples["fail_frac"] = [failed / len(iterations)]
    else:
        samples["wall_s"] = [it.scaled_wall_s for it in untraced]
        samples["cpu_s"] = [it.scaled_cpu_s for it in untraced]
        samples["peak_rss_mb"] = [it.rss_mb for it in untraced]
        raw["wall_s"] = [it.wall_s for it in untraced]
        raw["cpu_s"] = [it.cpu_s for it in untraced]
        raw["calibrate_s"] = cal.times

    spec = benchmark_spec()
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    print(f"# {workload}  seed={seed}  trace={int(traced)}  "
          f"iterations={len(untraced)}{' (reduced)' if reduced else ''}")
    for m in wanted:
        values = samples[m["name"]]
        value = statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:36s} {value:14.6g} {m['unit']:6s} "
              f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"
              + (f" unscaled={statistics.median(raw[m['name']]):.6g}"
                 if m["name"] in raw else ""))
    if "calibrate_s" in raw:
        times = raw["calibrate_s"]
        print(f"  {'calibrate_s':36s} {statistics.median(times):14.6g} s      "
              f"n={len(times)} min={min(times):.6g} max={max(times):.6g}")
    for p in problems:
        print(f"  FAIL {p}")
    return {"correct": not problems, "attempted": len(iterations),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "liyau" / "__init__.py").is_file():
        print(f"no liyau source tree under {ROOT}/src; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        if args.workload == "all":
            result = {name: {f"trace{t}": measure(name, args.seed,
                                                  args.seconds, bool(t),
                                                  args.reduced)
                             for t in (0, 1)}
                      for name in wl.WORKLOADS}
            result["correct"] = all(r["correct"] for w in result.values()
                                    for r in w.values())
        else:
            result = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.reduced)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
