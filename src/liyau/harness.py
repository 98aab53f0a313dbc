"""Experiment driver: declarative configs -> solver/bound/MC reports.

A config is one JSON document (no environment-variable configuration, so
a config plus its seeds pins the run byte for byte).  Margins are
reported in units of 1/time; a bound row passes when

    margin >= -tol * (1 + |c|),

tol defaulting to 1e-6.  MC rows pass at three standard errors.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import clocks as clocks_mod
from . import stochastic as stoch
from .geometry import ModelManifold, manifold_from_dict
from .heatflow import HeatState, initial_datum, solve_heat

CSV_COLUMNS = ("bound_id", "family", "m", "n", "K", "t", "x", "alpha", "eps",
               "X", "Y", "gamma", "a", "c", "margin", "domain_ok")

_GRID_KEYS = ("alpha", "eps", "K_prime", "R", "K_region")


@dataclass
class ExperimentConfig:
    manifold: dict
    initial_datum: dict
    times: list
    bounds: list = field(default_factory=list)
    mc: list = field(default_factory=list)
    grid_size: int | None = None
    scheme: str = "spectral"
    tol: float = 1e-6
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if not self.times or any(t <= 0 for t in self.times):
            raise ValueError("time grid must be strictly positive")
        for entry in self.bounds:
            if entry["id"] not in bounds_mod.BOUND_IDS:
                raise ValueError(f"unknown bound id {entry['id']!r}")
        for entry in self.mc:
            fid = entry["functional"]
            if fid not in stoch.FUNCTIONALS + ("local_time_moment",
                                               "expected_local_time",
                                               "expected_value"):
                raise ValueError(f"unknown functional {fid!r}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        doc = json.loads(Path(path).read_text())
        return cls(**doc)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@dataclass
class Report:
    config: dict
    solver_rows: list
    bound_rows: list
    mc_rows: list
    meta: dict

    def failures(self, tol: float | None = None) -> list:
        """Failing rows: solver and bound errors, violated margins, MC misses.

        A bound row outside its domain without an error is a skip, not a
        failure.
        """
        tol = self.config.get("tol", 1e-6) if tol is None else tol
        out = [row for row in self.solver_rows if row.get("error")]
        for row in self.bound_rows:
            if row.get("error"):
                out.append(row)
            elif (row["domain_ok"]
                  and row["margin"] < -tol * (1.0 + abs(row["c"]))):
                out.append(row)
        out.extend(r for r in self.mc_rows if r.get("passed") is False)
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.failures() else 0

    def worst_margin(self) -> float:
        vals = [r["margin"] for r in self.bound_rows
                if r["domain_ok"] and not r.get("error")]
        return min(vals) if vals else math.inf

    def to_dict(self) -> dict:
        return {"config": self.config, "solver": self.solver_rows,
                "bounds": self.bound_rows, "mc": self.mc_rows,
                "meta": self.meta}


def _expand_params(spec: dict):
    """Cartesian product over list-valued parameter entries."""
    keys = [k for k in _GRID_KEYS if k in spec]
    lists = [spec[k] if isinstance(spec[k], list) else [spec[k]] for k in keys]
    if not keys:
        yield {}
        return
    for combo in itertools.product(*lists):
        yield dict(zip(keys, combo))


def _bound_rows_for_state(state: HeatState, bound_id: str, params: dict,
                          tol: float) -> list:
    M = state.manifold
    X, Y, W = state.X(), state.Y(), state.W()
    base = {"bound_id": bound_id, "family": M.family, "m": M.m, "n": M.n,
            "K": M.K, "t": state.t, "alpha": params.get("alpha"),
            "eps": params.get("eps")}
    full = dict(params, n=M.n, t=state.t, K=M.K)
    rows = []
    if M.drift_id != "none" and bound_id in bounds_mod.DRIFTLESS_ONLY:
        rows.append(dict(base, x=None, X=None, Y=None, gamma=None, a=None,
                         c=0.0, margin=None, domain_ok=False,
                         note="stated for Z = 0, skipped on a drift model"))
        return rows
    if bound_id in ("yau", "bakry-qian-sqrt"):
        for i, x in enumerate(state.grid):
            p = dict(full, W=float(W[i]))
            res = bounds_mod.check_inequality(bound_id, p, float(X[i]), float(Y[i]))
            rows.append(dict(base, x=float(x), X=float(X[i]), Y=float(Y[i]),
                             gamma=None, a=None, c=0.0,
                             margin=res.margin, domain_ok=res.ok,
                             note=res.note))
        return rows
    if bound_id == "bbg":
        for i, x in enumerate(state.grid):
            res = bounds_mod.check_inequality(bound_id, full, float(X[i]),
                                              float(Y[i]))
            form = bounds_mod.eval_bound(bound_id, dict(full, Y=float(Y[i])))
            rows.append(dict(base, x=float(x), X=float(X[i]), Y=float(Y[i]),
                             gamma=form.gamma if form.domain_ok else None,
                             a=form.a if form.domain_ok else None,
                             c=form.c if form.domain_ok else 0.0,
                             margin=res.margin, domain_ok=res.ok,
                             note=res.note))
        return rows
    form = bounds_mod.eval_bound(bound_id, full)
    if not form.domain_ok:
        rows.append(dict(base, x=None, X=None, Y=None, gamma=None, a=None,
                         c=0.0, margin=None, domain_ok=False, note=form.note))
        return rows
    margins = form.a * Y + form.c - form.gamma * X
    for i, x in enumerate(state.grid):
        rows.append(dict(base, x=float(x), X=float(X[i]), Y=float(Y[i]),
                         gamma=form.gamma, a=form.a, c=form.c,
                         margin=float(margins[i]), domain_ok=True, note=""))
    return rows


def _run_mc_entry(entry: dict, M: ModelManifold, datum, seed: int) -> dict:
    fid = entry["functional"]
    t = float(entry["t"])
    dt = float(entry.get("dt", 1e-3))
    n_paths = int(entry.get("n_paths", 20000))
    x0 = float(entry.get("x0", 0.5))
    seed = int(entry.get("seed", seed))
    row = {"functional_id": fid, "family": M.family, "t": t, "x0": x0,
           "dt": dt, "n_paths": n_paths, "seed": seed}
    if fid == "local_time_moment":
        est = stoch.local_time_moment(M, x0, t, float(entry.get("p", 1.0)),
                                      n_paths, dt, seed)
        row.update(value=est.value, stderr=est.stderr, passed=None)
        return row
    if fid == "expected_local_time":
        est = stoch.expected_local_time(M, x0, t, n_paths, dt, seed)
        row.update(value=est.value, stderr=est.stderr, passed=None)
        if "target" in entry:  # e.g. 2/sqrt(pi) for the flat wall at t = 1
            target = float(entry["target"])
            row.update(target=target,
                       passed=bool(abs(est.value - target)
                                   <= 3.0 * est.stderr))
        return row
    if fid == "expected_value":
        est = stoch.expected_value_at(M, datum, x0, t, n_paths, dt, seed)
        state = solve_heat(M, datum, t, grid_size=entry.get("grid_size"),
                           scheme=entry.get("pde_scheme", "spectral"))
        target = float(np.interp(x0, state.grid, state.u))
        passed = abs(est.value - target) <= 3.0 * est.stderr
        row.update(value=est.value, stderr=est.stderr, target=target,
                   passed=bool(passed))
        return row
    clock = None
    if fid != "gradient_rhs":
        cspec = entry.get("clock", {"family": "linear"})
        clock = clocks_mod.make_clock(cspec["family"],
                                      cspec.get("params", {}), t)
    est = stoch.estimate_functional(
        M, datum, x0, t, clock, fid, n_paths, dt, seed,
        K_field=entry.get("K_field"), alpha=entry.get("alpha"))
    row.update(value=est.value, stderr=est.stderr)
    compare = entry.get("compare", "none")
    if compare == "state":
        state = solve_heat(M, datum, t, grid_size=entry.get("grid_size"),
                           scheme=entry.get("pde_scheme", "spectral"))
        i = state.index_of(x0)
        if fid == "harnack_rhs":
            target = float(state.W()[i])
        else:
            target = float(abs(state.grad_u[i]))
        row.update(target=target,
                   passed=bool(target <= est.value + 3.0 * est.stderr))
    elif compare == "wx0":
        # deterministic quadrature form for constant K, sigma = 0
        K = float(entry.get("K_field", M.K))
        ints = clocks_mod.clock_integrals(clock, K)
        state = solve_heat(M, datum, t, grid_size=entry.get("grid_size"),
                           scheme=entry.get("pde_scheme", "spectral"))
        i = state.index_of(x0)
        target = (0.5 * M.n * ints["deriv_sq"] * float(state.u[i])
                  - ints["sq_prime"] * float(state.Lu[i]))
        row.update(target=target,
                   passed=bool(abs(est.value - target) <= 3.0 * est.stderr))
    else:
        row.update(passed=None)
    return row


def run_experiment(config: ExperimentConfig) -> Report:
    """Solve once per time, evaluate all bounds on the grid, run MC rows.

    Module errors are captured per row, never fatal to the run.
    """
    M = manifold_from_dict(config.manifold)
    datum = initial_datum(config.initial_datum["id"],
                          config.initial_datum.get("params", {}))
    solver_rows, bound_rows, mc_rows = [], [], []
    states: dict[float, HeatState] = {}
    for t in config.times:
        try:
            state = solve_heat(M, datum, float(t), grid_size=config.grid_size,
                               scheme=config.scheme)
            states[t] = state
            solver_rows.append({"t": t, "scheme": state.scheme,
                                "grid_size": int(state.grid.size),
                                "min_u": float(np.min(state.u)),
                                "max_u": float(np.max(state.u)),
                                "mass": state.mass(), "error": None})
        except Exception as exc:  # captured per row
            solver_rows.append({"t": t, "error": f"{type(exc).__name__}: {exc}"})
    for entry in config.bounds:
        for params in _expand_params(entry.get("params", {})):
            for t, state in states.items():
                try:
                    bound_rows.extend(_bound_rows_for_state(
                        state, entry["id"], params, config.tol))
                except Exception as exc:
                    bound_rows.append({
                        "bound_id": entry["id"], "family": M.family,
                        "m": M.m, "n": M.n, "K": M.K, "t": t, "x": None,
                        "alpha": params.get("alpha"), "eps": params.get("eps"),
                        "X": None, "Y": None, "gamma": None, "a": None,
                        "c": 0.0, "margin": None, "domain_ok": False,
                        "note": "", "error": f"{type(exc).__name__}: {exc}"})
    for entry in config.mc:
        try:
            mc_rows.append(_run_mc_entry(entry, M, datum, config.seed))
        except Exception as exc:
            mc_rows.append({"functional_id": entry.get("functional"),
                            "error": f"{type(exc).__name__}: {exc}",
                            "passed": False})
    meta = {"package": __version__, "numpy": np.__version__,
            "seed": config.seed}
    return Report(config=asdict(config), solver_rows=solver_rows,
                  bound_rows=bound_rows, mc_rows=mc_rows, meta=meta)


def emit_report(report: Report, out_dir, fmt: str = "csv") -> list:
    """Write report files; returns the paths written.

    csv: fixed documented columns; json: the lossless superset; plus a
    margin-vs-t series per bound id as plot-ready CSV.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    written = []
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    if fmt == "json":
        path = out / "report.json"
        path.write_text(json.dumps(report.to_dict(), indent=1, sort_keys=True))
        written.append(path)
    else:
        path = out / "report.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in report.bound_rows:
                writer.writerow([_cell(row.get(col)) for col in CSV_COLUMNS])
        written.append(path)
        mc_path = out / "mc.csv"
        with mc_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            cols = ("functional_id", "family", "t", "x0", "n_paths", "dt",
                    "seed", "value", "stderr", "target", "passed")
            writer.writerow(cols)
            for row in report.mc_rows:
                writer.writerow([_cell(row.get(c)) for c in cols])
        written.append(mc_path)
    # plot data: worst margin per (bound, t)
    series: dict[str, dict[float, float]] = {}
    for row in report.bound_rows:
        if not row["domain_ok"] or row.get("error") or row["margin"] is None:
            continue
        per_t = series.setdefault(row["bound_id"], {})
        t = row["t"]
        per_t[t] = min(per_t.get(t, math.inf), row["margin"])
    plot_path = out / "margin_vs_t.csv"
    with plot_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("bound_id", "t", "min_margin"))
        for bid in sorted(series):
            for t in sorted(series[bid]):
                writer.writerow((bid, _cell(t), _cell(series[bid][t])))
    written.append(plot_path)
    return written


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def load_report(path) -> Report:
    doc = json.loads(Path(path).read_text())
    return Report(config=doc["config"], solver_rows=doc["solver"],
                  bound_rows=doc["bounds"], mc_rows=doc["mc"],
                  meta=doc["meta"])
