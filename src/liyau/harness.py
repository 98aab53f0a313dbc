"""Experiment driver: declarative configs -> solver/bound/MC reports.

A config is one JSON document (no environment-variable configuration, so
a config plus its seeds pins the run byte for byte).  Margins are
reported in units of 1/time; a bound row passes when

    margin >= -tol * (1 + |c|),

tol defaulting to 1e-6.  MC rows pass at three standard errors.  MC rows
that share an ensemble (x0, n_paths, dt, seed) share one pass of paths.
The passes are launched on forked worker processes before the first grid
solve and collected after the bound rows, so they overlap the solves and
bound evaluation; no row depends on the number of workers.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import clocks as clocks_mod
from . import stochastic as stoch
from .geometry import MANIFOLD_KEYS, ModelManifold, manifold_from_dict
from .heatflow import (DATUM_PARAMS, HeatState, default_grid_size,
                       initial_datum, solve_heat)

CSV_COLUMNS = ("bound_id", "family", "m", "n", "K", "t", "x", "alpha", "eps",
               "X", "Y", "gamma", "a", "c", "margin", "domain_ok")

_GRID_KEYS = ("alpha", "eps", "K_prime", "R", "K_region")
_BOUND_KEYS = ("id", "params")
# every key _plan_mc_row and _finish_mc_row read
_MC_KEYS = ("functional", "t", "x0", "n_paths", "dt", "seed", "p", "target",
            "grid_size", "pde_scheme", "clock", "compare", "K_field", "alpha")
# every MC functional id and the compare modes its rows admit
_COMPARE = {"harnack_rhs": ("state", "wx0"), "harnack_alpha_rhs": (),
            "gradient_rhs": ("state",), "local_time_moment": (),
            "expected_local_time": (), "expected_value": ()}


def _reject_unknown(entry: dict, known: tuple, what: str) -> None:
    unknown = sorted(set(entry) - set(known))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {what}; known: {known}")


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

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if not self.times or any(t <= 0 for t in self.times):
            raise ValueError("time grid must be strictly positive")
        _reject_unknown(self.manifold, MANIFOLD_KEYS, "the manifold")
        M = manifold_from_dict(self.manifold)   # a bad family, m, n or K fails
        _reject_unknown(self.initial_datum, ("id", "params"), "the datum")
        expr = self.initial_datum["id"]
        if expr not in DATUM_PARAMS:
            raise ValueError(f"unknown datum {expr!r}")
        _reject_unknown(self.initial_datum.get("params") or {},
                        DATUM_PARAMS[expr], f"the params of datum {expr!r}")
        for entry in self.bounds:
            if entry["id"] not in bounds_mod.BOUND_IDS:
                raise ValueError(f"unknown bound id {entry['id']!r}")
            _reject_unknown(entry, _BOUND_KEYS, f"bound {entry['id']!r}")
            _reject_unknown(entry.get("params", {}), _GRID_KEYS,
                            f"the parameters of bound {entry['id']!r}")
        for entry in self.mc:
            _reject_unknown(entry, _MC_KEYS, "an mc entry")
            fid = entry["functional"]
            if fid not in _COMPARE:
                raise ValueError(f"unknown functional {fid!r}")
            if "compare" in entry and entry["compare"] not in _COMPARE[fid]:
                raise ValueError(f"{fid} rows admit compare modes "
                                 f"{_COMPARE[fid]}, not {entry['compare']!r}")
            if entry.get("compare") == "wx0" and M.sigma:
                raise ValueError("compare 'wx0' is the quadrature form of "
                                 "convex walls: it needs sigma = 0")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        doc = json.loads(Path(path).read_text())
        return cls(**doc)


@dataclass
class BoundBlock:
    """The bound rows of one (bound id, params, t), held as columns.

    head holds the cells every row of the block shares.  Without nodes it
    is the block's only row: a skip, an error, or a row read back from
    JSON.  Otherwise nodes is the solved state's (x, X, Y), the same
    arrays for every block at that time, and margins the bound's verdicts
    at those nodes.
    """

    head: dict
    nodes: tuple | None = None
    margins: bounds_mod.Margins | None = None

    @property
    def size(self) -> int:
        return 1 if self.nodes is None else self.nodes[0].size

    def rows(self, where=None) -> list:
        """The block as row dicts; with a boolean mask, only those nodes."""
        if self.nodes is None:
            return [dict(self.head)]
        m = self.margins
        grid, X, Y = self.nodes
        # a shared c keeps one float object for all rows of a node-free form
        cs = m.c.tolist() if np.ndim(m.c) else [m.c] * grid.size
        cols = zip(grid.tolist(), X.tolist(), Y.tolist(), cs,
                   m.margin.tolist(), m.domain_ok.tolist(), m.note.tolist())
        if where is not None:
            cols = itertools.compress(cols, where.tolist())
        # in-domain rows carry no note, not even the form's remark
        return [dict(self.head, x=x, X=Xi, Y=Yi, gamma=m.gamma if ok else None,
                     a=m.a if ok else None, c=c, margin=margin if ok else None,
                     domain_ok=ok, note="" if ok else note)
                for x, Xi, Yi, c, margin, ok, note in cols]

    def worst(self) -> float | None:
        """Least margin over rows in domain and without error; None if none."""
        if self.nodes is None:
            row = self.head
            if (not row["domain_ok"] or row.get("error")
                    or row["margin"] is None):
                return None
            return row["margin"]
        m = self.margins
        return float(m.margin[m.domain_ok].min()) if m.domain_ok.any() else None

    def failing(self, tol: float) -> list:
        """Rows with an error, or in domain with margin < -tol (1 + |c|)."""
        if self.nodes is None:
            row = self.head
            bad = row.get("error") or (
                row["domain_ok"] and row["margin"] < -tol * (1.0 + abs(row["c"])))
            return [dict(row)] if bad else []
        m = self.margins
        bad = m.domain_ok & (m.margin < -tol * (1.0 + np.abs(m.c)))
        return self.rows(bad) if bad.any() else []


@dataclass
class Report:
    config: dict
    solver_rows: list
    bound_blocks: list   # BoundBlock per (bound, params, t), in row order
    mc_rows: list
    meta: dict

    @property
    def bound_rows(self) -> list:
        """Every bound row as a dict, in report order (the JSON form)."""
        return [row for block in self.bound_blocks for row in block.rows()]

    @property
    def n_bound_rows(self) -> int:
        return sum(block.size for block in self.bound_blocks)

    def failures(self, tol: float | None = None) -> list:
        """Failing rows: solver and bound errors, violated margins, MC misses.

        A bound row outside its domain without an error is a skip, not a
        failure.
        """
        tol = self.config.get("tol", 1e-6) if tol is None else tol
        out = [row for row in self.solver_rows if row.get("error")]
        for block in self.bound_blocks:
            out.extend(block.failing(tol))
        out.extend(r for r in self.mc_rows if r.get("passed") is False)
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.failures() else 0

    def worst_margin(self) -> float:
        vals = [w for w in map(BoundBlock.worst, self.bound_blocks)
                if w is not None]
        return min(vals) if vals else math.inf

    def checked(self) -> bool:
        """Whether a bound row was in domain or an MC row reached a verdict."""
        return (any(block.worst() is not None for block in self.bound_blocks)
                or any(r.get("passed") is not None and not r.get("error")
                       for r in self.mc_rows))

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


def _empty_bound_row(M: ModelManifold, t, bound_id: str, params: dict) -> dict:
    """A bound row without a node: a skip, or with an error a failure."""
    return {"bound_id": bound_id, "family": M.family, "m": M.m, "n": M.n,
            "K": M.K, "t": t, "x": None, "alpha": params.get("alpha"),
            "eps": params.get("eps"), "X": None, "Y": None, "gamma": None,
            "a": None, "c": 0.0, "margin": None, "domain_ok": False,
            "note": ""}


def _bound_block(state: HeatState, nodes: tuple, bound_id: str,
                 params: dict) -> BoundBlock:
    """One bound at one state; nodes is the state's (x, X, Y)."""
    M = state.manifold
    head = _empty_bound_row(M, state.t, bound_id, params)
    if M.drift_id != "none" and bound_id in bounds_mod.DRIFTLESS_ONLY:
        return BoundBlock(dict(head,
                               note="stated for Z = 0, skipped on a drift model"))
    full = dict(params, n=M.n, t=state.t, K=M.K)
    m = bounds_mod.bound_margins(bound_id, full, nodes[1], nodes[2], state.W())
    if m.skip_all:
        return BoundBlock(dict(head, note=str(m.note.flat[0])))
    return BoundBlock(head, nodes, m)


@dataclass
class _McRow:
    """One mc entry planned: its report head, ensemble and accumulator."""

    entry: dict
    row: dict
    ensemble: stoch.Ensemble
    accumulator: stoch.Accumulator
    clock: clocks_mod.Clock | None


def _plan_mc_row(entry: dict, M: ModelManifold, datum, seed: int) -> _McRow:
    fid = entry["functional"]
    t = float(entry["t"])
    dt = float(entry.get("dt", 1e-3))
    n_paths = int(entry.get("n_paths", 20000))
    x0 = float(entry.get("x0", 0.5))
    seed = int(entry.get("seed", seed))
    row = {"functional_id": fid, "family": M.family, "t": t, "x0": x0,
           "dt": dt, "n_paths": n_paths, "seed": seed}
    ens = stoch.Ensemble(M, x0, n_paths, dt, seed)
    clock = None
    if fid == "local_time_moment":
        acc = stoch.local_time_accumulator(ens, t, float(entry.get("p", 1.0)))
    elif fid == "expected_local_time":
        acc = stoch.local_time_accumulator(ens, t)
    elif fid == "expected_value":
        acc = stoch.value_accumulator(ens, datum, t)
    else:
        if fid != "gradient_rhs":
            cspec = entry.get("clock", {"family": "linear"})
            clock = clocks_mod.make_clock(cspec["family"],
                                          cspec.get("params", {}), t)
        acc = stoch.functional_accumulator(
            ens, datum, t, clock, fid, K_field=entry.get("K_field"),
            alpha=entry.get("alpha"))
    return _McRow(entry, row, ens, acc, clock)


@contextlib.contextmanager
def _run_ensembles(plans: list):
    """Launch one pass per ensemble; yields collect() -> each plan's
    estimate or exception, by id(plan).

    With two ensembles or more and two usable cores, the passes start at
    once on min(#ensembles, cores) forked worker processes, largest
    (n_paths x longest horizon) first, and the caller goes on while they
    run: a thread pool barely scaled, as each step makes some 30 small
    numpy calls that hand the GIL over.  The workers inherit the passes by
    fork; only a pass index goes in and the outcomes come back pickled.
    Otherwise, or without the fork start method, collect runs the passes
    in-process.  Each pass has its own seeded generator, so no estimate
    depends on where it ran, and no worker outlives the with block.
    """
    groups: dict[stoch.Ensemble, list] = {}
    for plan in plans:
        groups.setdefault(plan.ensemble, []).append(plan)
    order = sorted(groups, key=lambda ens: -ens.n_paths * max(
        plan.accumulator.steps for plan in groups[ens]))
    members = [groups[ens] for ens in order]
    runs = [functools.partial(_run_pass, ens, [p.accumulator for p in group])
            for ens, group in zip(order, members)]
    workers, pool = min(len(runs), _cores()), None
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt_passes, initargs=(runs,))
    try:
        if pool is None:   # lazily: the passes run when collected
            passes = (run() for run in runs)
        else:
            futures = [pool.submit(_run_adopted, i) for i in range(len(runs))]
            passes = (_outcomes(future, len(group))
                      for future, group in zip(futures, members))
        yield lambda: {id(plan): out
                       for group, outcomes in zip(members, passes)
                       for plan, out in zip(group, outcomes)}
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _run_pass(ens: stoch.Ensemble, accumulators: list) -> list:
    try:
        return stoch.run_ensemble(ens, accumulators)
    except Exception as exc:  # a pass that cannot start fails its rows
        return [exc] * len(accumulators)


_ADOPTED: list = []   # in a worker process: the passes it inherited


def _adopt_passes(runs: list) -> None:
    _ADOPTED[:] = runs


def _run_adopted(index: int) -> list:
    return _ADOPTED[index]()


def _outcomes(future, size: int) -> list:
    """A worker's pass outcomes; a lost worker fails all its rows."""
    try:
        return future.result()
    except Exception as exc:
        return [exc] * size


def _cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _finish_mc_row(plan: _McRow, est: stoch.Estimate, target_state) -> dict:
    """The report row of one estimate, with its target where it has one."""
    entry, row, M = plan.entry, plan.row, plan.ensemble.M
    fid, x0, compare = row["functional_id"], row["x0"], entry.get("compare")
    row.update(value=est.value, stderr=est.stderr, passed=None)
    if fid == "expected_local_time" and "target" in entry:
        # e.g. 2/sqrt(pi) for the flat wall at t = 1
        target = float(entry["target"])
    elif fid == "expected_value":
        state = target_state(entry)
        target = float(np.interp(x0, state.grid, state.u))
    elif compare == "state":
        state = target_state(entry)
        i = state.index_of(x0)
        if fid == "harnack_rhs":
            target = float(state.W()[i])
        else:
            target = float(abs(state.grad_u[i]))
    elif compare == "wx0":
        # deterministic quadrature form of harnack_rhs for constant K,
        # sigma = 0
        K = float(entry.get("K_field", M.K))
        ints = clocks_mod.clock_integrals(plan.clock, K)
        state = target_state(entry)
        i = state.index_of(x0)
        target = (0.5 * M.n * ints["deriv_sq"] * float(state.u[i])
                  - ints["sq_prime"] * float(state.Lu[i]))
    else:
        return row
    # within three standard errors; a "state" target is a lower bound
    slack = 3.0 * est.stderr
    passed = (target <= est.value + slack if compare == "state"
              else abs(est.value - target) <= slack)
    row.update(target=target, passed=bool(passed))
    return row


def _state_solver(M: ModelManifold, datum):
    """solve(t, grid_size, scheme): the state of datum on M, each (t,
    resolved grid size, scheme) solved once per run; a failed solve raises
    its error again.  Grid rows and MC targets share it."""
    solved: dict[tuple, object] = {}

    def solve(t, grid_size, scheme):
        key = (float(t), default_grid_size(M) if grid_size is None
               else grid_size, scheme)
        if key not in solved:
            try:
                solved[key] = solve_heat(M, datum, key[0], grid_size=grid_size,
                                         scheme=scheme)
            except Exception as exc:
                solved[key] = exc
        if isinstance(solved[key], Exception):
            raise solved[key]
        return solved[key]

    return solve


@contextlib.contextmanager
def _start_mc(entries: list, M: ModelManifold, datum, seed: int):
    """Plan the MC rows and launch their passes (_run_ensembles); yields
    finish(solve) -> the rows in config order.  Errors are captured per
    row."""
    planned = []   # each entry's plan, or the error that stopped it
    for entry in entries:
        try:
            planned.append(_plan_mc_row(entry, M, datum, seed))
        except Exception as exc:
            planned.append(exc)
    plans = [plan for plan in planned if isinstance(plan, _McRow)]
    with _run_ensembles(plans) as collect:
        yield functools.partial(_finish_mc, entries, planned, collect)


def _finish_mc(entries: list, planned: list, collect, solve) -> list:
    """Collect the estimates and compare each with its target state from
    solve (see _state_solver)."""
    estimates = collect()

    def target_state(entry):
        return solve(entry["t"], entry.get("grid_size"),
                     entry.get("pde_scheme", "spectral"))

    rows = []
    for entry, plan in zip(entries, planned):
        est = estimates.get(id(plan), plan)
        try:
            if isinstance(est, Exception):
                raise est
            rows.append(_finish_mc_row(plan, est, target_state))
        except Exception as exc:
            rows.append({"functional_id": entry.get("functional"),
                         "error": f"{type(exc).__name__}: {exc}",
                         "passed": False})
    return rows


def _grid_rows(config: ExperimentConfig, M: ModelManifold, solve):
    """The solver rows and the bound blocks of the config's time grid."""
    solver_rows, bound_blocks = [], []
    states: dict[float, HeatState] = {}
    for t in map(float, config.times):  # one spelling of t in every row
        try:
            state = solve(t, config.grid_size, config.scheme)
            states[t] = state
            solver_rows.append({"t": t, "scheme": state.scheme,
                                "grid_size": int(state.grid.size),
                                "min_u": float(np.min(state.u)),
                                "max_u": float(np.max(state.u)),
                                "mass": state.mass(), "error": None})
        except Exception as exc:  # captured per row
            solver_rows.append({"t": t, "error": f"{type(exc).__name__}: {exc}"})
    nodes = {t: (s.grid, s.X(), s.Y()) for t, s in states.items()}
    for entry in config.bounds:
        for params in _expand_params(entry.get("params", {})):
            for t, state in states.items():
                try:
                    bound_blocks.append(_bound_block(state, nodes[t],
                                                     entry["id"], params))
                except Exception as exc:
                    bound_blocks.append(BoundBlock(dict(
                        _empty_bound_row(M, t, entry["id"], params),
                        error=f"{type(exc).__name__}: {exc}")))
    return solver_rows, bound_blocks


def run_experiment(config: ExperimentConfig) -> Report:
    """Solve once per time, evaluate all bounds on the grid, run MC rows.

    Module errors are captured per row, never fatal to the run.
    """
    M = manifold_from_dict(config.manifold)
    datum = initial_datum(config.initial_datum["id"],
                          config.initial_datum.get("params", {}))
    solve = _state_solver(M, datum)
    with _start_mc(config.mc, M, datum, config.seed) as finish_mc:
        # the MC passes run from here on, beside the solves and bounds
        solver_rows, bound_blocks = _grid_rows(config, M, solve)
        mc_rows = finish_mc(solve)
    meta = {"package": __version__, "numpy": np.__version__,
            "seed": config.seed}
    return Report(config=asdict(config), solver_rows=solver_rows,
                  bound_blocks=bound_blocks, mc_rows=mc_rows, meta=meta)


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
            _write_bound_csv(fh, report.bound_blocks)
        written.append(path)
        mc_path = out / "mc.csv"
        with mc_path.open("w", newline="") as fh:
            cols = ("functional_id", "family", "t", "x0", "n_paths", "dt",
                    "seed", "value", "stderr", "target", "passed")
            fh.write(_line(cols))
            for row in report.mc_rows:
                fh.write(_line(_cell(row.get(c)) for c in cols))
        written.append(mc_path)
    # plot data: worst margin per (bound, t)
    series: dict[str, dict[float, float]] = {}
    for block in report.bound_blocks:
        worst = block.worst()
        if worst is None:
            continue
        per_t = series.setdefault(block.head["bound_id"], {})
        t = block.head["t"]
        per_t[t] = min(per_t.get(t, math.inf), worst)
    plot_path = out / "margin_vs_t.csv"
    with plot_path.open("w", newline="") as fh:
        fh.write(_line(("bound_id", "t", "min_margin")))
        for bid in sorted(series):
            for t in sorted(series[bid]):
                fh.write(_line((_cell(bid), _cell(t), _cell(series[bid][t]))))
    written.append(plot_path)
    return written


def _write_bound_csv(fh, blocks) -> None:
    """report.csv from the blocks' columns, one line per row in CSV_COLUMNS.

    The cells a block shares are formatted once per block, x, X and Y once
    per solved state; only margin (and a per-node c) once per row.
    """
    fh.write(_line(CSV_COLUMNS))
    node_cells = {}
    for block in blocks:
        h = block.head
        if block.nodes is None:
            fh.write(_line(_cell(h.get(col)) for col in CSV_COLUMNS))
            continue
        key = id(block.nodes)
        if key not in node_cells:
            grid, X, Y = block.nodes
            node_cells[key] = ([repr(x) for x in grid.tolist()],
                               [f"{Xi!r},{Yi!r}" for Xi, Yi
                                in zip(X.tolist(), Y.tolist())])
        xs, XYs = node_cells[key]
        m = block.margins
        # bound_id .. t | x | alpha, eps | X, Y | gamma, a, c, margin, domain_ok
        lead = ",".join(_cell(h[col]) for col in CSV_COLUMNS[:6])
        params = f"{_cell(h['alpha'])},{_cell(h['eps'])}"
        form = f"{_cell(m.gamma)},{_cell(m.a)}"
        cs = ([repr(c) for c in m.c.tolist()] if np.ndim(m.c)
              else itertools.repeat(_cell(m.c)))
        fh.write("".join(
            f"{lead},{x},{params},{XY},{form},{c},{margin!r},true\r\n" if ok
            else f"{lead},{x},{params},{XY},,,{c},,false\r\n"
            for x, XY, c, margin, ok in zip(xs, XYs, cs, m.margin.tolist(),
                                            m.domain_ok.tolist())))


def _line(cells) -> str:
    return ",".join(cells) + "\r\n"


def _cell(value) -> str:
    """One CSV field as csv.writer (QUOTE_MINIMAL) writes it; floats by repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def load_report(path) -> Report:
    doc = json.loads(Path(path).read_text())
    return Report(config=doc["config"], solver_rows=doc["solver"],
                  bound_blocks=[BoundBlock(row) for row in doc["bounds"]],
                  mc_rows=doc["mc"], meta=doc["meta"])
