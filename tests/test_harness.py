import csv
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import liyau
from liyau import (HeatState, check_inequality, eval_bound, harness,
                   initial_datum, make_clock, manifold_from_dict, solve_heat,
                   stochastic)
from liyau.cli import main
from liyau.geometry import register_drift
from liyau.harness import (CSV_COLUMNS, BoundBlock, ExperimentConfig,
                           Report, _bound_block, emit_report, load_report,
                           run_experiment)


def register_ou_drift():
    try:
        register_drift("harness-ou", lambda x: -0.2 * x)
    except ValueError:
        pass  # already registered by an earlier test


def minimal_config(**overrides):
    doc = dict(
        manifold={"family": "circle", "m": 1, "n": 1},
        initial_datum={"id": "eigen", "params": {"index": 1, "amp": 0.5}},
        times=[1.0],
        bounds=[{"id": "linear-alpha", "params": {"alpha": [1.0]}}],
        mc=[],
        grid_size=64,
        seed=7,
    )
    doc.update(overrides)
    return ExperimentConfig(**doc)


class TestRunExperiment:
    def test_minimal_run_passes(self):
        report = run_experiment(minimal_config())
        assert report.exit_code == 0
        assert len(report.bound_rows) == 64
        assert report.worst_margin() >= -1e-6

    def test_empty_bound_list_keeps_solver_rows(self):
        report = run_experiment(minimal_config(bounds=[]))
        assert report.bound_rows == []
        assert len(report.solver_rows) == 1
        assert report.solver_rows[0]["error"] is None

    def test_out_of_domain_rows_marked_not_fatal(self):
        report = run_experiment(minimal_config(
            bounds=[{"id": "trig-alpha", "params": {"alpha": [2.0]}}]))
        assert report.exit_code == 0
        assert all(not r["domain_ok"] for r in report.bound_rows)
        assert all(r["note"] for r in report.bound_rows)

    def test_row_coverage(self):
        cfg = minimal_config(times=[0.5, 1.0],
                             bounds=[{"id": "davies",
                                      "params": {"alpha": [1.5, 2.0]}},
                                     {"id": "bakry-qian"}])
        report = run_experiment(cfg)
        # (2 alphas + 1) combos x 2 times x 64 grid points
        assert len(report.bound_rows) == 3 * 2 * 64

    def test_solver_error_captured_per_row(self):
        cfg = minimal_config(
            initial_datum={"id": "cosine", "params": {"k": 1, "amp": 2.0}})
        report = run_experiment(cfg)
        assert report.solver_rows[0]["error"] is not None
        assert report.bound_rows == []  # nothing to evaluate, run not fatal

    def test_mc_rows(self):
        cfg = minimal_config(mc=[
            {"functional": "expected_value", "t": 0.25, "x0": 2.0,
             "n_paths": 2000, "dt": 1e-3},
            {"functional": "harnack_rhs", "t": 0.5, "x0": 2.0,
             "n_paths": 2000, "dt": 1e-3, "clock": {"family": "linear"},
             "compare": "wx0"},
        ])
        report = run_experiment(cfg)
        assert [r["passed"] for r in report.mc_rows] == [True, True]

    def test_mc_state_comparisons(self):
        cfg = minimal_config(
            manifold={"family": "interval-neumann", "m": 1, "n": 1},
            initial_datum={"id": "cosine", "params": {"k": 1, "amp": 0.5}},
            mc=[
                {"functional": "harnack_rhs", "t": 0.4, "x0": 1.0,
                 "n_paths": 4000, "dt": 1e-3, "clock": {"family": "linear"},
                 "compare": "state"},
                {"functional": "gradient_rhs", "t": 0.4, "x0": 1.0,
                 "n_paths": 4000, "dt": 1e-3, "compare": "state"},
            ])
        report = run_experiment(cfg)
        assert [r["passed"] for r in report.mc_rows] == [True, True]

    def test_mc_local_time_row_with_target(self):
        # single flat wall: E[L_1] from the wall equals 2/sqrt(pi)
        cfg = minimal_config(
            manifold={"family": "half-line-neumann", "m": 1, "n": 1},
            initial_datum={"id": "gaussian", "params": {"amp": 1.0,
                                                        "width": 0.3}},
            mc=[{"functional": "expected_local_time", "t": 1.0, "x0": 0.0,
                 "n_paths": 4000, "dt": 1e-3,
                 "target": 1.1283791670955126}])
        report = run_experiment(cfg)
        assert report.mc_rows[0]["passed"] is True

    def test_validation(self):
        with pytest.raises(ValueError):
            minimal_config(times=[])
        with pytest.raises(ValueError):
            minimal_config(times=[0.0, 1.0])
        with pytest.raises(ValueError):
            minimal_config(tol=-1.0)
        with pytest.raises(ValueError):
            minimal_config(bounds=[{"id": "nope"}])
        with pytest.raises(ValueError):
            minimal_config(mc=[{"functional": "nope"}])
        with pytest.raises(ValueError):
            minimal_config(bounds=[{"id": "davies",
                                    "params": {"alpha": [2.0],
                                               "typo_key": [1.0]}}])
        with pytest.raises(ValueError, match="parms"):
            minimal_config(bounds=[{"id": "davies", "parms": {"alpha": [2.0]}}])
        for typo in ("n_path", "x_0"):
            with pytest.raises(ValueError, match=typo):
                minimal_config(mc=[{"functional": "expected_value", "t": 0.25,
                                    typo: 1.0}])
        # malformed manifolds and data fail at load, before any solve
        for manifold, match in (
                ({"family": "interval-neumann", "N": 3}, "'N'"),
                ({"family": "torus"}, "torus"),
                ({"family": "circle", "m": 0}, "m must be"),
                ({"family": "sphere-radial", "m": 2.5}, "m must be"),
                ({"family": "sphere-radial", "m": 3, "n": 2}, "n=2"),
                ({"family": "sphere-radial", "m": 2, "K": 1.5}, "K=1.5")):
            with pytest.raises(ValueError, match=match):
                minimal_config(manifold=manifold)
        for datum, match in (
                ({"id": "cosine", "params": {"ampl": 0.1}}, "ampl"),
                ({"id": "gaussian", "params": {"k": 1}}, "'k'"),
                ({"id": "eigen", "parms": {"index": 1}}, "parms"),
                ({"id": "sine", "params": {}}, "sine")):
            with pytest.raises(ValueError, match=match):
                minimal_config(initial_datum=datum)

    def test_compare_modes(self):
        row = {"functional": "harnack_rhs", "t": 0.5, "x0": 2.0,
               "n_paths": 100, "dt": 1e-3, "clock": {"family": "linear"}}
        for fid, compare in (("harnack_rhs", "State"),
                             ("harnack_alpha_rhs", "wx0"),
                             ("gradient_rhs", "wx0"),
                             ("expected_value", "state")):
            with pytest.raises(ValueError, match=repr(compare)):
                minimal_config(mc=[dict(row, functional=fid,
                                        compare=compare)])
        for fid, compare in (("harnack_rhs", "state"), ("harnack_rhs", "wx0"),
                             ("gradient_rhs", "state")):
            minimal_config(mc=[dict(row, functional=fid, compare=compare)])
        # the wx0 target drops the sigma dL weight the estimate carries
        with pytest.raises(ValueError, match="sigma = 0"):
            minimal_config(manifold={"family": "interval-neumann",
                                     "sigma": -0.4},
                           initial_datum={"id": "cosine", "params": {"k": 1}},
                           mc=[dict(row, compare="wx0")])

    def test_failures_flag_synthetic_row(self):
        report = run_experiment(minimal_config())
        block = report.bound_blocks[0]
        margin = block.margins.margin.copy()
        margin[0] = -1.0
        block.margins = replace(block.margins, margin=margin)
        assert report.exit_code == 1
        assert [r["margin"] for r in report.failures()] == [-1.0]

    def test_classical_bounds_skipped_on_drift_models(self):
        register_ou_drift()
        cfg = minimal_config(
            manifold={"family": "euclidean-line", "m": 1, "n": 2,
                      "K": -0.5, "drift": "harness-ou"},
            initial_datum={"id": "gaussian",
                           "params": {"amp": 1.0, "width": 0.3}},
            bounds=[{"id": "davies", "params": {"alpha": [2.0]}}],
            scheme="crank-nicolson-fd",
            times=[0.5])
        report = run_experiment(cfg)
        assert report.exit_code == 0
        assert all(not r["domain_ok"] for r in report.bound_rows)
        assert "Z = 0" in report.bound_rows[0]["note"]


def interval_mc_config():
    """configs/interval_mc.json at reduced size, plus the functionals it
    leaves out: rows 1, 3, 4 and 7 share one ensemble, rows 6 and 8
    another, and rows 2 and 5 run alone."""
    mc = [
        {"functional": "expected_value", "t": 0.25, "x0": 1.0,
         "n_paths": 1500, "dt": 0.001},
        {"functional": "harnack_rhs", "t": 0.5, "x0": 1.0, "n_paths": 2500,
         "dt": 0.001, "clock": {"family": "linear"}, "compare": "wx0"},
        {"functional": "harnack_rhs", "t": 0.4, "x0": 1.0, "n_paths": 1500,
         "dt": 0.001, "clock": {"family": "linear"}, "compare": "state"},
        {"functional": "gradient_rhs", "t": 0.4, "x0": 1.0, "n_paths": 1500,
         "dt": 0.001, "compare": "state"},
        {"functional": "harnack_alpha_rhs", "t": 0.3, "x0": 1.0,
         "n_paths": 1500, "dt": 0.001, "alpha": 2.0,
         "clock": {"family": "exp-integral",
                   "params": {"K": 0.0, "alpha": 2.0}}, "seed": 5},
        {"functional": "local_time_moment", "t": 0.6, "x0": 0.0, "p": 1.0,
         "n_paths": 1500, "dt": 0.001},
        {"functional": "expected_value", "t": 0.1, "x0": 1.0,
         "n_paths": 1500, "dt": 0.001},
        {"functional": "expected_local_time", "t": 0.3, "x0": 0.0,
         "n_paths": 1500, "dt": 0.001},
    ]
    doc = dict(manifold={"family": "interval-neumann", "m": 1, "n": 1},
               initial_datum={"id": "cosine", "params": {"k": 1, "amp": 0.5}},
               times=[0.5], bounds=[{"id": "davies", "params": {"alpha": 2.0}}],
               mc=mc, grid_size=65, seed=42)
    return ExperimentConfig(**doc)


def estimate_alone(M, datum, entry, seed):
    """An mc entry's estimate from the public estimator, run on its own."""
    fid, t = entry["functional"], entry["t"]
    x0, n, dt = entry["x0"], entry["n_paths"], entry["dt"]
    seed = entry.get("seed", seed)
    if fid == "local_time_moment":
        return stochastic.local_time_moment(M, x0, t, entry["p"], n, dt, seed)
    if fid == "expected_local_time":
        return stochastic.expected_local_time(M, x0, t, n, dt, seed)
    if fid == "expected_value":
        return stochastic.expected_value_at(M, datum, x0, t, n, dt, seed)
    clock = None
    if "clock" in entry:
        clock = make_clock(entry["clock"]["family"],
                           entry["clock"].get("params", {}), t)
    return stochastic.estimate_functional(M, datum, x0, t, clock, fid, n, dt,
                                          seed, alpha=entry.get("alpha"))


class TestEnsemblePlan:
    """MC rows that share (x0, n_paths, dt, seed) share one pass, and the
    passes run on forked workers, without changing a bit of any row."""

    @pytest.mark.parametrize("sigma", [None, -0.4])
    def test_rows_match_the_estimators_run_one_at_a_time(self, sigma):
        cfg = interval_mc_config()
        cfg.manifold["sigma"] = sigma   # -0.4: pathwise weights, per-step work
        M = manifold_from_dict(cfg.manifold)
        datum = initial_datum("cosine", {"k": 1, "amp": 0.5})
        rows = run_experiment(cfg).mc_rows
        assert len(rows) == len(cfg.mc)
        for entry, row in zip(cfg.mc, rows):
            try:
                est = estimate_alone(M, datum, entry, cfg.seed)
            except ValueError as exc:   # the alpha form on a sigma wall
                assert row["error"] == f"ValueError: {exc}"
                continue
            assert row["functional_id"] == entry["functional"]
            assert (row["value"], row["stderr"]) == (est.value, est.stderr)
        assert sum("error" in row for row in rows) == (sigma is not None)

    def test_report_bytes_do_not_depend_on_the_worker_count(
            self, tmp_path, monkeypatch):
        cfg = interval_mc_config()
        paths = {}
        for workers in (1, None, 4):
            if workers is not None:
                monkeypatch.setattr(harness, "_cores", lambda: workers)
            report = run_experiment(cfg)
            assert multiprocessing.active_children() == []   # none outlives
            paths[workers] = emit_report(report, tmp_path / str(workers))
            monkeypatch.undo()
        for a, b, c in zip(*paths.values()):
            assert a.read_bytes() == b.read_bytes() == c.read_bytes(), a.name

    def test_each_target_state_is_solved_once(self, monkeypatch):
        solved = []

        def counting_solve(M, datum, t, **kwargs):
            solved.append((t, kwargs.get("grid_size"), kwargs.get("scheme")))
            return solve_heat(M, datum, t, **kwargs)

        monkeypatch.setattr(harness, "solve_heat", counting_solve)
        run_experiment(interval_mc_config())
        # the grid solve at t = 0.5, then the MC targets: t = 0.4 once
        assert solved == [(0.5, 65, "spectral"), (0.25, None, "spectral"),
                          (0.5, None, "spectral"), (0.4, None, "spectral"),
                          (0.1, None, "spectral")]

    def test_grid_and_mc_states_share_one_cache(self, monkeypatch):
        # configs/interval_mc.json: the MC targets leave grid_size unset,
        # which resolves to the config's 257, so (0.5, 257, spectral) is
        # solved once; fewer paths leave the solves as they are
        solved = []

        def counting_solve(M, datum, t, **kwargs):
            solved.append(t)
            return solve_heat(M, datum, t, **kwargs)

        cfg = ExperimentConfig.from_json(
            Path(liyau.__file__).parents[2] / "configs" / "interval_mc.json")
        assert cfg.grid_size == 257
        cfg = replace(cfg, mc=[dict(e, n_paths=200) for e in cfg.mc])
        monkeypatch.setattr(harness, "solve_heat", counting_solve)
        report = run_experiment(cfg)
        assert sorted(solved) == [0.1, 0.25, 0.4, 0.5, 1.0]
        assert all("error" not in row for row in report.mc_rows)

    def test_a_raising_accumulator_fails_only_its_row(self, monkeypatch):
        cfg = interval_mc_config()
        before = run_experiment(cfg).mc_rows
        build = stochastic.value_accumulator
        raised_in = []   # a worker's appends stay in the worker

        def failing(ens, u0, t):
            acc = build(ens, u0, t)
            if t != 0.25:
                return acc

            def finish(x, rejected):
                raised_in.append(os.getpid())
                raise FloatingPointError("datum overflow")

            return stochastic.Accumulator(acc.steps, finish, acc.work)

        monkeypatch.setattr(stochastic, "value_accumulator", failing)
        for workers in (1, 2):   # in-process, then on forked workers
            monkeypatch.setattr(harness, "_cores", lambda: workers)
            raised_in.clear()
            after = run_experiment(cfg).mc_rows
            assert raised_in == ([os.getpid()] if workers == 1 else [])
            assert after[0] == {"functional_id": "expected_value",
                                "error": "FloatingPointError: datum overflow",
                                "passed": False}
            # its ensemble siblings (rows 3, 4 and 7) and every other row
            # stand
            assert after[1:] == before[1:]
            assert all(row.get("value") is not None for row in after[1:])

    def test_a_lost_worker_fails_its_rows_and_verify(self, tmp_path,
                                                     monkeypatch):
        # os._exit in a pass stands in for a worker the OOM killer ends
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the workers need the fork start method")
        monkeypatch.setattr(harness, "_cores", lambda: 2)
        parent = os.getpid()
        build = stochastic.local_time_accumulator

        def dying(ens, t, p=None):
            acc = build(ens, t, p)

            def finish(x, rejected):
                if os.getpid() == parent:
                    raise AssertionError("the pass ran in-process")
                os._exit(3)

            return stochastic.Accumulator(acc.steps, finish, acc.work)

        monkeypatch.setattr(stochastic, "local_time_accumulator", dying)
        doc = asdict(interval_mc_config())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["verify", "--config", str(path),
                                        "--format", "json", "--out",
                                        str(tmp_path / "out")])
        assert res.exit_code == 1, res.output
        rows = load_report(tmp_path / "out" / "report.json").mc_rows
        lost = [row for row in rows if "error" in row]
        # rows 6 and 8 share the dying pass; passes the pool had not
        # finished when it broke fail too
        assert rows[5] in lost and rows[7] in lost
        for row in lost:
            assert row["error"].startswith("BrokenProcessPool: "), row
            assert row["passed"] is False
        assert all(row.get("value") is not None
                   for row in rows if row not in lost)
        assert multiprocessing.active_children() == []


class TestPerNodeBoundRows:
    """yau, bakry-qian-sqrt and bbg rows match the scalar checks bitwise."""

    TIMES = [0.1, 1.0]
    DATUM = {"id": "eigen", "params": {"index": 1, "amp": 0.5}}

    def run(self, family, ids):
        manifold = {"family": family, "m": 2, "n": 2}
        report = run_experiment(minimal_config(
            manifold=manifold, initial_datum=self.DATUM, times=self.TIMES,
            bounds=[{"id": bid} for bid in ids], grid_size=101))
        M = manifold_from_dict(manifold)
        datum = initial_datum(self.DATUM["id"], self.DATUM["params"])
        states = {t: solve_heat(M, datum, t, grid_size=101)
                  for t in self.TIMES}
        return M, report, states

    @staticmethod
    def node(state, row):
        i = state.index_of(row["x"])
        X, Y, W = (float(v[i]) for v in (state.X(), state.Y(), state.W()))
        assert (row["x"], row["X"], row["Y"]) == (float(state.grid[i]), X, Y)
        return X, Y, W

    def test_square_root_rows_on_hyperbolic(self):
        # K < 0 keeps the square-root terms of both bounds nonzero
        M, report, states = self.run("hyperbolic-radial",
                                     ["yau", "bakry-qian-sqrt", "bbg"])
        assert M.K < 0
        rows = [r for r in report.bound_rows if r["bound_id"] != "bbg"]
        assert len(rows) == 2 * len(self.TIMES) * 101
        n, Km = M.n, -M.K
        for row in rows:
            t = row["t"]
            X, Y, W = self.node(states[t], row)
            res = check_inequality(row["bound_id"],
                                   {"n": n, "t": t, "K": M.K, "W": W}, X, Y)
            # the scalar formulas as stated, in the order the rows use
            if row["bound_id"] == "yau":
                ref = (Y + math.sqrt(2.0 * n * Km)
                       * math.sqrt(W + n / (2.0 * t) + 2.0 * n * Km)
                       + n / (2.0 * t) - X)
            else:
                ref = (Y + math.sqrt(n * Km)
                       * math.sqrt(X + n / (2.0 * t) + n * Km / 4.0)
                       + n / (2.0 * t) - X)
            assert row["margin"].hex() == res.margin.hex() == ref.hex()
            assert (row["gamma"], row["a"], row["c"]) == (None, None, 0.0)
            assert row["domain_ok"] is True and row["note"] == ""
        # bbg needs K > 0 whatever the state: one skip row per time
        skips = [r for r in report.bound_rows if r["bound_id"] == "bbg"]
        assert [(r["x"], r["domain_ok"], r["note"]) for r in skips] == (
            [(None, False, "needs K > 0")] * len(self.TIMES))

    def test_bbg_rows_on_sphere(self):
        M, report, states = self.run("sphere-radial", ["bbg"])
        assert len(report.bound_rows) == len(self.TIMES) * 101
        for row in report.bound_rows:
            t = row["t"]
            X, Y, _ = self.node(states[t], row)
            params = {"n": M.n, "t": t, "K": M.K}
            res = check_inequality("bbg", params, X, Y)
            form = eval_bound("bbg", dict(params, Y=Y))
            assert row["domain_ok"] is res.ok is form.domain_ok is True
            assert (row["margin"].hex() == res.margin.hex()
                    == form.margin(X, Y).hex())
            assert row["c"].hex() == form.c.hex()
            assert (row["gamma"], row["a"]) == (form.gamma, form.a)


def _dict_cell(value):
    """The cell rule of the row-by-row writer, for csv.writer."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def mixed_report() -> Report:
    """Blocks of every kind: in domain, per-node and whole-bound skips,
    drift skips and errors, integer times and None parameters."""
    sphere = run_experiment(minimal_config(
        manifold={"family": "sphere-radial", "m": 2}, times=[1, 2],
        grid_size=21,
        bounds=[{"id": "davies", "params": {"alpha": [1.5, 4.0, "a,b"]}},
                {"id": "bakry-qian", "params": {"alpha": [None],
                                                "eps": [None]}},
                {"id": "bbg"}, {"id": "yau"},
                {"id": "local-grad", "params": {"eps": [None]}}]))
    hyperbolic = run_experiment(minimal_config(
        manifold={"family": "hyperbolic-radial", "m": 2}, times=[1, 2],
        grid_size=21, bounds=[{"id": "bbg"}]))
    register_ou_drift()
    drift = run_experiment(minimal_config(
        manifold={"family": "euclidean-line", "m": 1, "n": 2, "K": -0.5,
                  "drift": "harness-ou"},
        initial_datum={"id": "gaussian", "params": {"amp": 1.0,
                                                    "width": 0.3}},
        scheme="crank-nicolson-fd", times=[0.5], grid_size=21,
        bounds=[{"id": "davies", "params": {"alpha": [2.0]}}]))
    # bbg leaves its window where Y >= (n K / 4)(1 + pi^2 / (K t)^2)
    M = manifold_from_dict({"family": "sphere-radial", "m": 2})
    grid = M.grid(11)
    state = HeatState(M, 1.0, grid, np.ones(11), np.full(11, 0.1),
                      np.linspace(0.0, 10.0, 11))
    window = _bound_block(state, (grid, state.X(), state.Y()), "bbg", {})
    assert 0 < window.margins.domain_ok.sum() < 11
    blocks = (sphere.bound_blocks + hyperbolic.bound_blocks
              + drift.bound_blocks + [window])
    return Report(config=sphere.config, solver_rows=[], bound_blocks=blocks,
                  mc_rows=[], meta={})


class TestEmit:
    def test_columnar_writer_matches_row_writer(self, tmp_path):
        report = mixed_report()
        rows = report.bound_rows
        kinds = {(r["x"] is not None, r["domain_ok"], bool(r["note"]),
                  "error" in r) for r in rows}
        assert kinds == {(True, True, False, False), (True, False, True, False),
                         (False, False, True, False),
                         (False, False, False, True)}
        assert {r["t"] for r in rows} >= {1, 2, 0.5}
        assert None in {r["alpha"] for r in rows if r["domain_ok"]}
        assert {"needs K > 0", "stated for Z = 0, skipped on a drift model",
                "Y outside the admissible window"} <= {r["note"] for r in rows}
        paths = emit_report(report, tmp_path, "csv")

        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_dict_cell(row.get(col)) for col in CSV_COLUMNS])
        assert paths[0].read_bytes() == buf.getvalue().encode()

        series = {}
        for row in rows:
            if row["domain_ok"] and not row.get("error"):
                key = (row["bound_id"], row["t"])
                series[key] = min(series.get(key, math.inf), row["margin"])
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(("bound_id", "t", "min_margin"))
        for bid, t in sorted(series):
            writer.writerow((bid, _dict_cell(t), _dict_cell(series[bid, t])))
        assert paths[-1].read_bytes() == buf.getvalue().encode()

        tol = report.config["tol"]
        bad = [r for r in rows if r.get("error") or (
            r["domain_ok"] and r["margin"] < -tol * (1.0 + abs(r["c"])))]
        assert report.failures() == bad
        assert {"error" in r for r in bad} == {True, False}
        assert report.worst_margin() == min(v for _, v in series.items())
        assert report.n_bound_rows == len(rows)

    def test_times_have_one_spelling(self, tmp_path):
        # integer times; local-grad without R gives error rows beside the
        # node and skip rows of the same times
        report = run_experiment(minimal_config(
            manifold={"family": "sphere-radial", "m": 2}, times=[1, 2],
            grid_size=21, bounds=[{"id": "davies", "params": {"alpha": [2.0]}},
                                  {"id": "local-grad",
                                   "params": {"eps": [1.0]}}]))
        assert {("error" in r, r["x"] is None)
                for r in report.bound_rows} == {(False, False), (True, True)}
        emit_report(report, tmp_path, "csv")
        with (tmp_path / "report.csv").open(newline="") as fh:
            assert {r["t"] for r in csv.DictReader(fh)} == {"1.0", "2.0"}
        series = (tmp_path / "margin_vs_t.csv").read_text().splitlines()[1:]
        assert {line.split(",")[1] for line in series} == {"1.0", "2.0"}
        assert {type(r["t"]) for r in report.solver_rows} == {float}

    def test_csv_columns_fixed(self, tmp_path):
        report = run_experiment(minimal_config())
        paths = emit_report(report, tmp_path, "csv")
        header = paths[0].read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_reports_are_byte_identical(self, tmp_path):
        cfg = minimal_config(mc=[{"functional": "expected_value", "t": 0.25,
                                  "x0": 2.0, "n_paths": 500, "dt": 1e-3}])
        a = emit_report(run_experiment(cfg), tmp_path / "a", "csv")
        b = emit_report(run_experiment(cfg), tmp_path / "b", "csv")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_json_round_trip(self, tmp_path):
        report = run_experiment(minimal_config())
        paths = emit_report(report, tmp_path, "json")
        loaded = load_report(paths[0])
        assert loaded.to_dict() == report.to_dict()

    def test_plot_series_emitted(self, tmp_path):
        cfg = minimal_config(times=[0.5, 1.0, 2.0])
        paths = emit_report(run_experiment(cfg), tmp_path, "csv")
        lines = paths[-1].read_text().splitlines()
        assert lines[0] == "bound_id,t,min_margin"
        assert len(lines) == 1 + 3  # one series, three times

    def test_single_row_report(self, tmp_path):
        cfg = minimal_config(grid_size=8)
        # circle spectral solve needs an even grid; 8 nodes is fine
        report = run_experiment(cfg)
        paths = emit_report(report, tmp_path, "csv")
        assert len(paths[0].read_text().splitlines()) == 1 + 8

    def test_y_range_margin_series_is_monotone_on_sphere(self, tmp_path):
        cfg = ExperimentConfig(
            manifold={"family": "sphere-radial", "m": 2, "n": 2},
            initial_datum={"id": "eigen", "params": {"index": 1, "amp": 0.5}},
            times=[0.05, 0.1, 0.5, 1.0, 2.0],
            bounds=[{"id": "lu-range"}],
            grid_size=201, seed=3)
        paths = emit_report(run_experiment(cfg), tmp_path, "csv")
        rows = [line.split(",") for line
                in paths[-1].read_text().splitlines()[1:]]
        series = [(float(t), float(m)) for _, t, m in rows]
        series.sort()
        margins = [m for _, m in series]
        decreasing = all(a >= b for a, b in zip(margins, margins[1:]))
        increasing = all(a <= b for a, b in zip(margins, margins[1:]))
        assert decreasing or increasing  # direction recorded by the sweep
        assert decreasing  # upper Y bound tightens as t grows on the sphere


class TestCli:
    def write_config(self, tmp_path):
        doc = {
            "manifold": {"family": "circle", "m": 1, "n": 1},
            "initial_datum": {"id": "eigen", "params": {"index": 1,
                                                        "amp": 0.5}},
            "times": [1.0],
            "bounds": [{"id": "linear-alpha", "params": {"alpha": [1.0]}}],
            "mc": [],
            "grid_size": 64,
            "seed": 7,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_verify_exit_zero(self, tmp_path, monkeypatch):
        # the CSV path reads the columns and never builds the row dicts
        def no_rows(self, where=None):
            raise AssertionError("row dicts built")
        monkeypatch.setattr(BoundBlock, "rows", no_rows)
        runner = CliRunner()
        res = runner.invoke(main, ["verify", "--config",
                                   str(self.write_config(tmp_path)),
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "out" / "report.csv").exists()

    def verify(self, tmp_path, **doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return CliRunner().invoke(main, ["verify", "--config", str(path)])

    def test_verify_fails_on_bound_errors(self, tmp_path):
        # local-grad needs a radius R: its row is a captured KeyError
        res = self.verify(
            tmp_path, manifold={"family": "sphere-radial", "m": 2},
            initial_datum={"id": "legendre",
                           "params": {"index": 1, "amp": 0.4}},
            times=[0.5], bounds=[{"id": "local-grad"}], grid_size=101)
        assert res.exit_code == 1, res.output
        assert "bounds=1 mc=0 worst_margin=inf failures=1" in res.output

    def test_verify_fails_on_solver_errors(self, tmp_path):
        # the gaussian datum lives on the flat families: every solve raises
        res = self.verify(
            tmp_path, manifold={"family": "hyperbolic-radial", "m": 2},
            initial_datum={"id": "gaussian",
                           "params": {"amp": 1.0, "width": 0.3}},
            times=[0.5, 1.0],
            bounds=[{"id": "davies", "params": {"alpha": [2.0]}}],
            grid_size=101)
        assert res.exit_code == 1, res.output
        assert "bounds=0 mc=0 worst_margin=inf failures=2" in res.output

    def test_verify_warns_when_nothing_is_checked(self, tmp_path):
        # trig-alpha with alpha = 2 has no constants on the circle: one skip
        doc = dict(manifold={"family": "circle", "m": 1, "n": 1},
                   initial_datum={"id": "eigen",
                                  "params": {"index": 1, "amp": 0.5}},
                   times=[1.0], grid_size=64,
                   bounds=[{"id": "trig-alpha", "params": {"alpha": [2.0]}}])
        res = self.verify(tmp_path, **doc)
        assert res.exit_code == 0, res.output
        assert res.stdout.splitlines() == [
            "rows: bounds=1 mc=0 worst_margin=inf failures=0"]
        assert res.stderr == "warning: no bound or MC row was checked\n"
        doc["bounds"][0]["id"] = "linear-alpha"
        res = self.verify(tmp_path, **doc)
        assert res.exit_code == 0 and res.stderr == "", res.output

    def test_cli_import_leaves_quadrature_out(self):
        # scipy modules that start-up, and a verify of each shipped config,
        # must not load: only the collar constants use quad, only radial
        # and Crank-Nicolson solves use scipy.linalg, and an interval run
        # loads no scipy at all
        src = Path(liyau.__file__).parents[1]
        code = ("import sys, liyau.cli\n"
                "if sys.argv[1:]:\n"
                "    try:\n"
                "        liyau.cli.main(['verify', '--config', sys.argv[1]])\n"
                "    except SystemExit as exc:\n"
                "        assert exc.code == 0, exc.code\n"
                "print(*(m for m in sys.modules if m.startswith('scipy')))\n")
        configs = src.parent / "configs"
        for args, banned in (
                ([], ("scipy",)),
                ([configs / "sphere.json"], ("scipy.integrate",)),
                ([configs / "interval_mc.json"], ("scipy",))):
            out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                                 check=True, capture_output=True, text=True,
                                 env=dict(os.environ, PYTHONPATH=str(src)))
            loaded = out.stdout.splitlines()[-1].split()
            assert not [m for m in loaded for b in banned
                        if m == b or m.startswith(b + ".")], (args, loaded)

    def test_cli_import_leaves_the_thread_pool_out(self):
        # the MC worker pool is imported by the first run with two
        # ensembles on two cores
        src = Path(liyau.__file__).parents[1]
        code = ("import sys, liyau.cli\n"
                "print('concurrent.futures' in sys.modules,"
                " 'multiprocessing' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.split() == ["False", "False"]

    def test_command_line_values_are_checked(self, tmp_path):
        res = CliRunner().invoke(main, ["verify", "--config",
                                        str(self.write_config(tmp_path)),
                                        "--tol", "-1"])
        # a config the checks reject is a usage error: one Error: line
        assert res.exit_code == 2, res.output
        assert res.output.splitlines()[-1].startswith("Error: invalid config")
        assert "tolerance must be positive" in res.output
        assert [line.startswith("Error:")
                for line in res.output.splitlines()].count(True) == 1

    def test_unknown_manifold_key_is_a_usage_error(self, tmp_path):
        res = self.verify(tmp_path, manifold={"family": "circle", "m": 1,
                                              "curvature": 1.0},
                          initial_datum={"id": "constant"}, times=[1.0])
        assert res.exit_code == 2, res.output
        assert "unknown keys ['curvature'] in the manifold" in res.output
        assert not isinstance(res.exception, ValueError)

    def test_json_report_does_not_depend_on_the_out_directory(self, tmp_path):
        cfg = str(self.write_config(tmp_path))
        for out in ("a", "b/c"):
            res = CliRunner().invoke(main, ["verify", "--config", cfg,
                                            "--out", str(tmp_path / out),
                                            "--format", "json"])
            assert res.exit_code == 0, res.output
        a, b = (tmp_path / out / "report.json" for out in ("a", "b/c"))
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_writes_plot_data(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["sweep", "--config",
                                   str(self.write_config(tmp_path)),
                                   "--out", str(tmp_path / "out2")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "out2" / "margin_vs_t.csv").exists()

    def test_bounds_command(self):
        runner = CliRunner()
        res = runner.invoke(main, ["bounds", "--id", "davies", "--params",
                                   '{"n": 2, "t": 1, "K": 0, "alpha": 2}'])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["c"] == 4.0

    def test_kernel_command(self):
        runner = CliRunner()
        t = 1.0 / (4.0 * math.pi)
        res = runner.invoke(main, ["kernel", "--family", "euclidean-line",
                                   "--t", str(t), "--x", "0.0", "--y", "0.0"])
        assert res.exit_code == 0
        assert float(res.output) == pytest.approx(1.0, abs=1e-12)
