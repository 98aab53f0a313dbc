"""Experiment driver: declarative configs -> solver/bound/MC reports.

A config is one JSON document (no environment-variable configuration, so
a config plus its seeds pins the run byte for byte).  Margins are
reported in units of 1/time; a bound row passes when

    margin >= -tol * (1 + |c|),

tol defaulting to 1e-6.  MC rows pass at three standard errors.  Each mc
entry is a task of `stochastic.run_passes`, which owns the worker pool and
starts one pass per ensemble (x0, n_paths, dt, seed) before the first grid
solve, so the passes overlap the solves and bound evaluation; no row
depends on where its pass ran.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import stochastic as stoch
from .geometry import MANIFOLD_KEYS, ModelManifold, manifold_from_dict
from .heatflow import HeatState, initial_datum, solve_heat
from .numerics import check_real, reject_unknown

CSV_COLUMNS = ("bound_id", "family", "m", "n", "K", "t", "x", "alpha", "eps",
               "X", "Y", "gamma", "a", "c", "margin", "domain_ok")


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
        resolve(self)   # a malformed config fails here, before any solve

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        doc = json.loads(Path(path).read_text())
        return cls(**doc)


def resolve(config: ExperimentConfig) -> tuple:
    """(model, datum, each bound entry's (id, parameter sets), each mc
    entry's (ensemble, clock)), each entry checked by its own module.  Load
    and run both call it, so the config keeps nothing resolved."""
    check_real(config.seed, "the seed", integral=True)
    if config.grid_size is not None:
        check_real(config.grid_size, "the grid size", integral=True)
    if config.tol <= 0:
        raise ValueError("tolerance must be positive")
    if not config.times or any(t <= 0 for t in config.times):
        raise ValueError("time grid must be strictly positive")
    reject_unknown(config.manifold, MANIFOLD_KEYS, "the manifold")
    M = manifold_from_dict(config.manifold)   # a bad family, m, n or K fails
    reject_unknown(config.initial_datum, ("id", "params"), "the datum")
    datum = initial_datum(config.initial_datum["id"],
                          config.initial_datum.get("params"))
    sweeps = [bounds_mod.sweep(entry) for entry in config.bounds]
    entries = [stoch.resolve_entry(e, M, config.seed, datum)
               for e in config.mc]
    # after the entries, whose grid sizes are then whole numbers: the datum
    # on the smallest grid of a solve, the config's or an mc entry's own
    sizes = [config.grid_size, *(e.get("grid_size") for e in config.mc)]
    datum.check(M, min(M.spec.grid_size if size is None else int(size)
                       for size in sizes))
    return M, datum, sweeps, entries


@dataclass
class BoundBlock:
    """The bound rows of one (bound id, params, t), held as columns.

    head holds the cells every row of the block shares.  Without nodes it
    is the block's only row: a skip, an error, or a row read back from
    JSON.  Otherwise nodes is the solved state's (x, X, Y, W), the same
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
        grid, X, Y, _ = self.nodes
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
            ok = self.head["domain_ok"] and not self.head.get("error")
            return self.head["margin"] if ok else None
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

    def failures(self) -> list:
        """Failing rows: solver and bound errors, violated margins, MC misses.

        A bound row outside its domain without an error is a skip, not a
        failure.
        """
        tol = self.config["tol"]
        out = [row for row in self.solver_rows if row.get("error")]
        for block in self.bound_blocks:
            out.extend(block.failing(tol))
        out.extend(r for r in self.mc_rows if r.get("passed") is False)
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.failures() else 0

    def worst_margin(self) -> float:
        return min((w for w in map(BoundBlock.worst, self.bound_blocks)
                    if w is not None), default=math.inf)

    def checked(self) -> bool:
        """Whether a bound row was in domain or an MC row reached a verdict."""
        return (any(block.worst() is not None for block in self.bound_blocks)
                or any(r.get("passed") is not None and not r.get("error")
                       for r in self.mc_rows))

    def to_dict(self) -> dict:
        return {"config": self.config, "solver": self.solver_rows,
                "bounds": self.bound_rows, "mc": self.mc_rows,
                "meta": self.meta}


def _empty_bound_row(M: ModelManifold, t, bound_id: str, params: dict) -> dict:
    """A bound row without a node: a skip, or with an error a failure."""
    return {"bound_id": bound_id, "family": M.family, "m": M.m, "n": M.n,
            "K": M.K, "t": t, "x": None, "alpha": params.get("alpha"),
            "eps": params.get("eps"), "X": None, "Y": None, "gamma": None,
            "a": None, "c": 0.0, "margin": None, "domain_ok": False,
            "note": "",
            # the swept params that CSV_COLUMNS has no column for
            **{key: v for key, v in params.items() if key not in CSV_COLUMNS}}


def _bound_block(state: HeatState, nodes: tuple, bound_id: str,
                 params: dict) -> BoundBlock:
    """One bound at one state; nodes is the state's (x, X, Y, W)."""
    M = state.manifold
    head = _empty_bound_row(M, state.t, bound_id, params)
    if M.drift_id != "none" and bounds_mod.BOUNDS[bound_id].driftless:
        return BoundBlock(dict(head,
                               note="stated for Z = 0, skipped on a drift model"))
    full = dict(params, n=M.n, t=state.t, K=M.K)
    m = bounds_mod.bound_margins(bound_id, full, *nodes[1:])
    if m.skip_all:
        return BoundBlock(dict(head, note=str(m.note.flat[0])))
    return BoundBlock(head, nodes, m)


def _mc_row(entry: dict, ens: stoch.Ensemble, clock, outcome, solve) -> dict:
    """The report row of one mc entry: its estimate against its target
    (the entry's own, or its functional's from the state that solve gives,
    see _state_solver), or the error that stopped it."""
    try:
        if isinstance(outcome, Exception):
            raise outcome
        fn = stoch.FUNCTIONALS[entry["functional"]]
        compare = entry.get("compare")
        row = {"functional_id": entry["functional"], "family": ens.M.family,
               "t": float(entry["t"]), "x0": ens.x0, "dt": ens.dt,
               "n_paths": ens.n_paths, "seed": ens.seed,
               "value": outcome.value, "stderr": outcome.stderr,
               "passed": None}
        if "target" in entry:
            target = float(entry["target"])
        elif compare in fn.targets:
            state = solve(entry["t"], entry.get("grid_size"),
                          entry.get("pde_scheme", "spectral"))
            target = fn.targets[compare](state, ens, entry, clock)
        else:
            return row
        # |value - target| <= 3 se, or target <= value + 3 se if one-sided
        slack = 3.0 * outcome.stderr
        passed = (target <= outcome.value + slack if compare in fn.one_sided
                  else abs(outcome.value - target) <= slack)
        return dict(row, target=target, passed=bool(passed))
    except Exception as exc:
        return {"functional_id": entry.get("functional"),
                "error": f"{type(exc).__name__}: {exc}", "passed": False}


def _state_solver(M: ModelManifold, datum):
    """solve(t, grid_size, scheme): the state of datum on M, each (t,
    resolved grid size, scheme) solved once per run; a failed solve raises
    its error again.  Grid rows and MC targets share it."""
    solved: dict[tuple, object] = {}

    def solve(t, grid_size, scheme):
        key = (float(t), M.spec.grid_size if grid_size is None
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


def _grid_rows(config: ExperimentConfig, M: ModelManifold, sweeps: list,
               solve):
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
    nodes = {t: (s.grid, s.X(), s.Y(), s.W()) for t, s in states.items()}
    for bound_id, param_sets in sweeps:
        for params in param_sets:
            for t, state in states.items():
                try:
                    bound_blocks.append(_bound_block(state, nodes[t],
                                                     bound_id, params))
                except Exception as exc:
                    bound_blocks.append(BoundBlock(dict(
                        _empty_bound_row(M, t, bound_id, params),
                        error=f"{type(exc).__name__}: {exc}")))
    return solver_rows, bound_blocks


def run_experiment(config: ExperimentConfig) -> Report:
    """Solve once per time, evaluate all bounds on the grid, run MC rows.

    Module errors are captured per row, never fatal to the run.
    """
    M, datum, sweeps, entries = resolve(config)
    solve = _state_solver(M, datum)
    accs = []   # each mc entry's accumulator, or the error that stopped it
    for entry, (ens, clock) in zip(config.mc, entries):
        try:
            accs.append(stoch.FUNCTIONALS[entry["functional"]].accumulator(
                ens, entry, datum, clock))
        except Exception as exc:
            accs.append(exc)
    with stoch.run_passes([(ens, acc) for (ens, _), acc in zip(entries, accs)
                           if not isinstance(acc, Exception)]) as outcome:
        # the MC passes run from here on, beside the solves and bounds
        solver_rows, bound_blocks = _grid_rows(config, M, sweeps, solve)
        task = itertools.count()   # the built accumulators' task indices
        mc_rows = [_mc_row(entry, ens, clock, acc if isinstance(acc, Exception)
                           else outcome(next(task)), solve)
                   for entry, (ens, clock), acc in zip(config.mc, entries, accs)]
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
    # plot data: worst margin per (bound, t) over the bound's parameter sets
    series: dict[tuple, float] = {}
    for block in report.bound_blocks:
        worst = block.worst()
        if worst is not None:
            key = (block.head["bound_id"], block.head["t"])
            series[key] = min(series.get(key, math.inf), worst)
    plot_path = out / "margin_vs_t.csv"
    with plot_path.open("w", newline="") as fh:
        fh.write(_line(("bound_id", "t", "min_margin")))
        for (bid, t), worst in sorted(series.items()):
            fh.write(_line((_cell(bid), _cell(t), _cell(worst))))
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
            grid, X, Y, _ = block.nodes
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
