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
from liyau import (HeatState, bound_margins, bounds, check_inequality, clocks,
                   eval_bound, gamma_integral, harness, heatflow,
                   initial_datum, make_clock, manifold_from_dict, solve_heat,
                   stochastic)
from liyau.cli import main
from liyau.geometry import register_drift
from liyau.heatflow import SolverError
from liyau.harness import (CSV_COLUMNS, BoundBlock, ExperimentConfig,
                           Report, _bound_block, emit_report, load_report,
                           run_experiment)


CONFIGS = Path(liyau.__file__).parents[2] / "configs"
PERFBENCH_CONFIGS = Path(liyau.__file__).parents[2] / "perfbench" / "configs"


def error_lines(output: str) -> list:
    return [line for line in output.splitlines() if line.startswith("Error:")]


def register_ou_drift():
    try:
        register_drift("harness-ou", lambda x: -0.2 * x)
    except ValueError:
        pass  # already registered by an earlier test


SOLVE_ERROR = "SolverError: u(0.0) = -0.5 below positivity floor"


def failing_solve(*args, **kwargs):
    """A solve that fails at run time, as solve_heat fails a bad state."""
    raise SolverError(SOLVE_ERROR.split(": ", 1)[1])


def failing_bound(bound_id):
    """bound_margins, but raising for bound_id as a bound that fails at
    run time."""
    real = bounds.bound_margins

    def margins(bid, *args, **kwargs):
        if bid == bound_id:
            raise FloatingPointError(f"{bid} overflowed")
        return real(bid, *args, **kwargs)

    return margins


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

    def test_solver_error_captured_per_row(self, monkeypatch):
        monkeypatch.setattr(harness, "solve_heat", failing_solve)
        report = run_experiment(minimal_config())
        assert report.solver_rows == [{"t": 1.0, "error": SOLVE_ERROR}]
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

    def test_x0_may_sit_on_a_wall_but_not_past_the_domain(self):
        for manifold, x0, inside in (
                ({"family": "interval-neumann"}, 0.0, True),
                ({"family": "interval-neumann"}, math.pi, True),
                ({"family": "half-line-neumann"}, -1e-9, False),
                ({"family": "circle"}, 0.0, True),
                ({"family": "circle"}, 2.0 * math.pi, False),
                ({"family": "sphere-radial", "m": 2}, 1e-3, True),
                ({"family": "sphere-radial", "m": 2}, math.pi, False)):
            cfg = dict(manifold=manifold,
                       initial_datum={"id": "constant"},
                       mc=[{"functional": "expected_value", "t": 0.1,
                            "x0": x0, "n_paths": 10}])
            if inside:
                minimal_config(**cfg)
            else:
                with pytest.raises(ValueError, match="outside the domain"):
                    minimal_config(**cfg)

    def test_shipped_configs_load(self):
        for path in sorted([*CONFIGS.glob("*.json"),
                            *PERFBENCH_CONFIGS.glob("*.json")]):
            ExperimentConfig.from_json(path)

    def test_a_run_resolves_its_config_through_the_loader(self, monkeypatch):
        # run_experiment builds the model, the ensembles and the clocks only
        # through resolve, which also checks a config at load: each is
        # built once at load and once per run
        cfg = interval_mc_config()
        inside, calls = [], []
        real_resolve = harness.resolve

        def resolve(config):
            inside.append(True)
            try:
                return real_resolve(config)
            finally:
                inside.pop()

        def spy(name, fn):
            def call(*args, **kwargs):
                assert inside, f"{name} called outside resolve"
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(harness, "resolve", resolve)
        monkeypatch.setattr(harness, "manifold_from_dict",
                            spy("manifold", manifold_from_dict))
        monkeypatch.setattr(stochastic, "Ensemble",
                            spy("ensemble", stochastic.Ensemble))
        monkeypatch.setattr(clocks, "make_clock",
                            spy("clock", clocks.make_clock))
        cfg = replace(cfg)
        at_load = sorted(calls)
        assert at_load.count("manifold") == 1
        assert at_load.count("ensemble") == len(cfg.mc)
        assert at_load.count("clock") == 3   # the rows that run on a clock
        calls.clear()
        run_experiment(cfg)
        assert sorted(calls) == at_load

    def test_swept_rows_record_their_parameters(self, tmp_path):
        # configs/local_bounds.json sweeps the ball radius R of two bounds:
        # each JSON row records the R (and K_region) it was computed at,
        # while report.csv keeps its columns
        cfg = replace(ExperimentConfig.from_json(CONFIGS / "local_bounds.json"),
                      times=[0.5])
        report = run_experiment(cfg)
        emit_report(report, tmp_path, "json")
        emit_report(report, tmp_path, "csv")
        with (tmp_path / "report.csv").open() as fh:
            assert tuple(next(csv.reader(fh))) == CSV_COLUMNS
        rows = load_report(tmp_path / "report.json").bound_rows
        radii = (0.4, 0.8, 1.2, 1.5)
        assert sorted({(r["bound_id"], r["R"]) for r in rows}) == sorted(
            (bid, R) for bid in ("local-alpha", "local-grad") for R in radii)
        assert all(r["K_region"] == 0.0 and "K_prime" not in r for r in rows)
        state = solve_heat(manifold_from_dict(cfg.manifold),
                           initial_datum("eigen", {"index": 1, "amp": 0.5}),
                           0.5)
        for R in radii:
            m = bound_margins("local-grad", {"eps": 1.0, "R": R,
                                             "K_region": 0.0, "n": 2,
                                             "t": 0.5, "K": 1.0},
                              state.X(), state.Y())
            assert min(r["margin"] for r in rows if r["R"] == R
                       and r["bound_id"] == "local-grad"
                       and r["domain_ok"]) == m.margin[m.domain_ok].min()
        # a config without these keys records none of them
        plain = run_experiment(minimal_config()).bound_rows
        assert not {"R", "K_prime", "K_region"} & set(plain[0])

    def test_compare_modes(self):
        # harnack_rhs reads the linear clock by default
        row = {"functional": "harnack_rhs", "t": 0.5, "x0": 2.0,
               "n_paths": 100, "dt": 1e-3}
        for fid, compare in (("harnack_rhs", "State"),
                             ("harnack_alpha_rhs", "wx0"),
                             ("gradient_rhs", "wx0"),
                             ("expected_value", "state")):
            with pytest.raises(ValueError, match=repr(compare)):
                minimal_config(mc=[dict(row, functional=fid,
                                        compare=compare)])
        for fid, compare in (("harnack_rhs", "state"), ("harnack_rhs", "wx0"),
                             ("harnack_alpha_rhs", "state"),
                             ("gradient_rhs", "state")):
            extra = {"alpha": 2.0} if fid == "harnack_alpha_rhs" else {}
            minimal_config(mc=[dict(row, functional=fid, compare=compare,
                                    **extra)])
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
                   "params": {"K": 0.0, "alpha": 2.0}}, "seed": 5,
         "compare": "state"},
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


class TestFunctionalTable:
    """stochastic.FUNCTIONALS is the one description of an mc entry: the
    keys it reads, its compare modes and its targets."""

    def test_every_target_reaches_a_verdict(self):
        cfg = interval_mc_config()
        # E[L_t] from a wall of the interval, whose other wall is pi away
        cfg.mc[7]["target"] = 2.0 * math.sqrt(0.3 / math.pi)
        cfg = replace(cfg)   # checked again
        rows = run_experiment(cfg).mc_rows
        verdicts = set()
        for entry, row in zip(cfg.mc, rows):
            fn = stochastic.FUNCTIONALS[entry["functional"]]
            mode = entry.get("compare")
            has_target = "target" in entry or mode in fn.targets
            assert (row["passed"] is not None) == has_target, row
            if has_target:
                assert row["passed"] is True, row
                verdicts.add((entry["functional"], mode))
        wanted = {(fid, mode) for fid, fn in stochastic.FUNCTIONALS.items()
                  for mode in fn.targets}
        wanted |= {(fid, None) for fid, fn in stochastic.FUNCTIONALS.items()
                   if "target" in fn.keys}
        assert verdicts == wanted
        # every functional has a row, the one without a target (the
        # moment of L_t) among them
        assert {row["functional_id"] for row in rows} == set(
            stochastic.FUNCTIONALS)

    def test_alpha_row_on_positive_curvature(self):
        # the sphere case of test_alpha_functional_on_positive_curvature as
        # a config row: the same paths, and the target (1 + gamma) W -
        # alpha Lu read from the solved state at the node nearest x0
        datum = {"id": "legendre", "params": {"index": 1, "amp": 0.4}}
        clock = {"family": "exp-integral", "params": {"K": 1.0, "alpha": 2.0}}
        entry = {"functional": "harnack_alpha_rhs", "t": 0.4, "x0": 1.2,
                 "n_paths": 10000, "dt": 5e-4, "seed": 58, "alpha": 2.0,
                 "clock": clock, "compare": "state"}
        cfg = minimal_config(manifold={"family": "sphere-radial", "m": 2},
                             initial_datum=datum, times=[0.4], bounds=[],
                             mc=[entry])
        row, = run_experiment(cfg).mc_rows
        M = manifold_from_dict(cfg.manifold)
        est = estimate_alone(M, initial_datum(datum["id"], datum["params"]),
                             entry, cfg.seed)
        assert (row["value"], row["stderr"]) == (est.value, est.stderr)
        # closed-form state u = 1 + a e^{-2t} cos r at the target's node
        grid = M.grid(401)
        x = grid[np.argmin(np.abs(grid - 1.2))]
        a_t = 0.4 * math.exp(-2 * 0.4)
        u = 1 + a_t * math.cos(x)
        W, Lu = (a_t * math.sin(x)) ** 2 / u, -2 * a_t * math.cos(x)
        gam = gamma_integral(make_clock("exp-integral", clock["params"], 0.4),
                             1.0, 2.0)
        assert row["target"] == pytest.approx((1 + gam) * W - 2.0 * Lu,
                                              abs=1e-4)
        assert row["passed"] is True

    def test_unread_keys_and_unlisted_modes_are_rejected(self):
        cfg = interval_mc_config()
        every_key = {key for fn in stochastic.FUNCTIONALS.values()
                     for key in fn.keys} | set(stochastic.SOLVE_KEYS)
        for entry in cfg.mc:
            fid = entry["functional"]
            fn = stochastic.FUNCTIONALS[fid]
            for key in sorted(every_key - set(fn.entry_keys(entry))):
                with pytest.raises(ValueError, match=f"'{key}'.*{fid}"):
                    replace(cfg, mc=[dict(entry, **{key: 1.0})])
            with pytest.raises(ValueError, match="'nope'"):
                replace(cfg, mc=[dict(entry, compare="nope")])
        # a solve key only on a row that solves for its target
        row = cfg.mc[2]   # harnack_rhs, compare state
        replace(cfg, mc=[dict(row, grid_size=65, pde_scheme="spectral")])
        without = {k: v for k, v in row.items() if k != "compare"}
        with pytest.raises(ValueError, match="'grid_size'"):
            replace(cfg, mc=[dict(without, grid_size=65)])

    def test_a_bad_clock_fails_at_load(self, monkeypatch):
        cfg = interval_mc_config()
        for key, value in (("family", "lineer"), ("params", {"alpha": 0.5})):
            spec = dict(cfg.mc[4]["clock"], **{key: value})
            with pytest.raises(ValueError, match="clock"):
                replace(cfg, mc=[dict(cfg.mc[4], clock=spec)])

        # building the clock at load builds no accumulator and no paths
        def no_plan(*args, **kwargs):
            raise AssertionError("an accumulator was built at load")

        for name in ("functional_accumulator", "value_accumulator",
                     "local_time_accumulator"):
            monkeypatch.setattr(stochastic, name, no_plan)
        replace(cfg)


class TestEnsemblePlan:
    """MC rows that share (x0, n_paths, dt, seed) share one pass, and the
    passes run on forked workers, without changing a bit of any row."""

    @pytest.mark.parametrize("sigma", [None, -0.4])
    def test_rows_match_the_estimators_run_one_at_a_time(self, sigma,
                                                         monkeypatch):
        cfg = interval_mc_config()
        # -0.4: pathwise weights, per-step work
        manifold = dict(cfg.manifold, sigma=sigma)
        if sigma is not None:
            # the wx0 target drops the sigma dL weight: that row keeps its
            # paths but not its target; the alpha row is stated for convex
            # walls, so load rejects it, and here its accumulator raises
            # that error at run time
            mc = [{k: v for k, v in entry.items() if v != "wx0"}
                  for entry in cfg.mc]
            with pytest.raises(ValueError, match="sigma = 0"):
                replace(cfg, manifold=manifold, mc=mc)
            alpha = stochastic.FUNCTIONALS["harnack_alpha_rhs"]
            monkeypatch.setitem(stochastic.FUNCTIONALS, "harnack_alpha_rhs",
                                replace(alpha, check=lambda *args: None))
            cfg = replace(cfg, mc=mc)
        cfg = replace(cfg, manifold=manifold)
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
                monkeypatch.setattr(stochastic, "_cores", lambda: workers)
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
                          (0.3, None, "spectral"), (0.1, None, "spectral")]

    def test_grid_and_mc_states_share_one_cache(self, monkeypatch):
        # configs/interval_mc.json: the MC targets leave grid_size unset,
        # which resolves to the config's 257, so (0.5, 257, spectral) is
        # solved once; fewer paths leave the solves as they are
        solved = []

        def counting_solve(M, datum, t, **kwargs):
            solved.append(t)
            return solve_heat(M, datum, t, **kwargs)

        cfg = ExperimentConfig.from_json(CONFIGS / "interval_mc.json")
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
            monkeypatch.setattr(stochastic, "_cores", lambda: workers)
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

    def test_every_pass_is_scheduled_by_stochastic(self, monkeypatch):
        # run_passes asks for the cores once per call: once per run, and
        # once per direct call of a public entry point
        calls = []
        monkeypatch.setattr(stochastic, "_cores",
                            lambda: calls.append(1) or 1)
        run_experiment(interval_mc_config())
        assert len(calls) == 1
        M = manifold_from_dict({"family": "interval-neumann"})
        datum = initial_datum("cosine", {"k": 1, "amp": 0.5})
        clock = make_clock("linear", t=0.1)
        entry_points = [
            lambda: stochastic.estimate_functional(
                M, datum, 1.0, 0.1, clock, "harnack_rhs", 50, 0.01, seed=1),
            lambda: stochastic.local_time_moment(M, 0.0, 0.1, 1.0, 50, 0.01,
                                                 seed=1),
            lambda: stochastic.expected_local_time(M, 0.0, 0.1, 50, 0.01,
                                                   seed=1),
            lambda: stochastic.expected_value_at(M, datum, 1.0, 0.1, 50,
                                                 0.01, seed=1),
            lambda: stochastic._run_alone(   # a recording accumulator
                stochastic.Ensemble(M, 1.0, 1, 0.01, seed=1),
                stochastic.Accumulator(10, lambda x, rejected: x.copy(),
                                       lambda k, x, dL: None)),
            lambda: stochastic.cutoff_growth_check(
                M, 1.0, lambda x: np.full_like(x, 0.5), [0.05], 0.1, 0.01,
                50, seed=1)]
        for call in entry_points:
            calls.clear()
            call()
            assert len(calls) == 1

    def test_a_lost_worker_fails_its_rows_and_verify(self, tmp_path,
                                                     monkeypatch):
        # os._exit in a pass stands in for a worker the OOM killer ends
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the workers need the fork start method")
        monkeypatch.setattr(stochastic, "_cores", lambda: 2)
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
    drift skips and errors (local-grad's, from a local_betas made to
    raise), integer times and None parameters."""
    def failing(*args, **kwargs):
        raise ValueError("local_betas raised")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "local_betas", failing)
        sphere = run_experiment(minimal_config(
            manifold={"family": "sphere-radial", "m": 2}, times=[1, 2],
            grid_size=21,
            bounds=[{"id": "davies", "params": {"alpha": [1.5, 4.0]}},
                    {"id": "bakry-qian"}, {"id": "bbg"}, {"id": "yau"},
                    {"id": "local-grad", "params": {"eps": [1.0],
                                                    "R": [1.5]}}]))
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
    window = _bound_block(state, (grid, state.X(), state.Y(), state.W()),
                          "bbg", {})
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

    def test_times_have_one_spelling(self, tmp_path, monkeypatch):
        # integer times; a local-grad that raises gives error rows beside
        # the node and skip rows of the same times
        monkeypatch.setattr(bounds, "bound_margins", failing_bound("local-grad"))
        report = run_experiment(minimal_config(
            manifold={"family": "sphere-radial", "m": 2}, times=[1, 2],
            grid_size=21, bounds=[{"id": "davies", "params": {"alpha": [2.0]}},
                                  {"id": "local-grad",
                                   "params": {"eps": [1.0], "R": [1.5]}}]))
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
        # the mixed report has failing, skipped and error rows; read back,
        # every block is one head row, and no verdict may move
        for name, report in (("minimal", run_experiment(minimal_config())),
                             ("mixed", mixed_report())):
            paths = emit_report(report, tmp_path / name, "json")
            loaded = load_report(paths[0])
            assert loaded.to_dict() == report.to_dict()
            assert loaded.failures() == report.failures()
            assert loaded.worst_margin() == report.worst_margin()
            assert loaded.exit_code == report.exit_code
            assert loaded.checked() == report.checked()
        assert report.exit_code == 1 and report.checked()
        assert all(block.nodes is None for block in loaded.bound_blocks)

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

    def test_verify_fails_on_bound_errors(self, tmp_path, monkeypatch):
        # a bound that raises at run time: its row is the captured error
        monkeypatch.setattr(bounds, "bound_margins", failing_bound("local-grad"))
        res = self.verify(
            tmp_path, manifold={"family": "sphere-radial", "m": 2},
            initial_datum={"id": "legendre",
                           "params": {"index": 1, "amp": 0.4}},
            times=[0.5], bounds=[{"id": "local-grad",
                                  "params": {"eps": 1.0, "R": 1.5}}],
            grid_size=101)
        assert res.exit_code == 1, res.output
        assert "bounds=1 mc=0 worst_margin=inf failures=1" in res.output

    def test_verify_fails_on_solver_errors(self, tmp_path, monkeypatch):
        # every solve raises at run time
        monkeypatch.setattr(harness, "solve_heat", failing_solve)
        res = self.verify(
            tmp_path, manifold={"family": "hyperbolic-radial", "m": 2},
            initial_datum={"id": "eigen", "params": {"index": 1, "amp": 0.5}},
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

    def test_no_run_loads_scipy(self):
        # start-up, a verify of each shipped config, the collar constants
        # and a 2401-node hyperbolic solve load no scipy module: the
        # package integrates with its own Gauss-Legendre rule and computes
        # every radial mode in numpy
        src = Path(liyau.__file__).parents[1]
        verify = ("try:\n"
                  "    liyau.cli.main(['verify', '--config', {!r}])\n"
                  "except SystemExit as exc:\n"
                  "    assert exc.code == 0, exc.code\n")
        collar = ("data = liyau.nonconvex_constants(k=0.5, theta=0.4,"
                  " sigma=-0.7, r0=0.6, d=3)\n"
                  "liyau.nonconvex_bound_rhs(data, liyau.make_clock("
                  "'linear', t=1.0), 1.0, eps=1.0, n=2.0, K=0.0)\n")
        hyperbolic = ("liyau.solve_heat(liyau.make_model_manifold("
                      "'hyperbolic-radial', m=2), liyau.initial_datum("
                      "'cosine', {'k': 1}), 0.5, grid_size=2401)\n")
        for run in ("", verify.format(str(CONFIGS / "sphere.json")),
                    verify.format(str(PERFBENCH_CONFIGS / "sphere_radial.json")),
                    verify.format(str(CONFIGS / "interval_mc.json")),
                    collar, hyperbolic):
            code = ("import sys, liyau, liyau.cli\n" + run
                    + "print('modules:', *(m for m in sys.modules"
                    " if m == 'scipy' or m.startswith('scipy.')))\n")
            out = subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True,
                                 env=dict(os.environ, PYTHONPATH=str(src)))
            assert out.stdout.splitlines()[-1] == "modules:", (run, out.stdout)

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

    def test_import_starts_openblas_with_one_thread(self):
        # unset, the variable is 1 after import liyau (on Linux, one thread
        # in the process); a caller's value is kept; with numpy loaded
        # first, whose pool already runs, it stays unset
        src = Path(liyau.__file__).parents[1]
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        code = ("import os, sys\n"
                "{}\n"
                "tasks = len(os.listdir('/proc/self/task'))"
                " if sys.platform == 'linux' else '-'\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks)\n")

        def run(imports, **extra):
            out = subprocess.run([sys.executable, "-c", code.format(imports)],
                                 check=True, capture_output=True, text=True,
                                 env=dict(env, PYTHONPATH=str(src), **extra))
            return out.stdout.split()

        assert run("import liyau") == [
            "1", "1" if sys.platform == "linux" else "-"]
        assert run("import liyau", OPENBLAS_NUM_THREADS="2")[0] == "2"
        assert run("import numpy, liyau")[0] == "None"

    def test_mc_runs_the_mc_rows_alone(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(interval_mc_config())))
        reports = {}
        for command in ("verify", "mc"):
            res = CliRunner().invoke(main, [command, "--config", str(path),
                                            "--format", "json", "--out",
                                            str(tmp_path / command)])
            reports[command] = load_report(tmp_path / command / "report.json")
            assert res.exit_code == reports[command].exit_code, res.output
        verify, mc = reports["verify"], reports["mc"]
        assert verify.n_bound_rows > 0 and mc.bound_rows == []
        assert mc.mc_rows == verify.mc_rows
        assert len(mc.mc_rows) == 8

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

    def test_mc_entries_are_checked_at_load(self, tmp_path):
        # an x0 past the walls would start the paths outside and read the
        # target at the clamped end node; a t that is no whole number of
        # steps, or fewer than two paths, used to fail its row at run time
        # only
        interval = dict(manifold={"family": "interval-neumann"},
                        initial_datum={"id": "cosine", "params": {"k": 1}},
                        times=[0.5])
        sphere = dict(manifold={"family": "sphere-radial", "m": 2},
                      initial_datum={"id": "legendre",
                                     "params": {"index": 1, "amp": 0.4}},
                      times=[0.5])
        row = {"functional": "expected_value", "t": 0.25, "x0": 1.0,
               "n_paths": 100, "dt": 1e-3}
        no_t = {k: v for k, v in row.items() if k != "t"}
        for doc, entry, message in (
                (interval, dict(row, x0=9.0), "x0 = 9.0 lies outside"),
                (sphere, dict(row, functional="gradient_rhs",
                              compare="state", x0=0.0),
                 "x0 = 0.0 lies outside"),
                # the defaults are the ones the run reads: x0 = 0.5, dt = 1e-3
                (dict(interval, manifold={"family": "interval-neumann",
                                          "length": 0.4}),
                 {"functional": "expected_value", "t": 0.25},
                 "x0 = 0.5 lies outside"),
                (interval, dict(no_t), "needs a horizon t"),
                (interval, dict(row, t=0.0), "need t > 0"),
                (interval, dict(row, t=-0.5), "need t > 0"),
                (interval, dict(row, t=0.2505), "not a multiple of dt"),
                (interval, dict(row, n_paths=0), "n_paths = 0: an mc entry"),
                (interval, dict(row, n_paths=1), "n_paths = 1: an mc entry"),
                (interval, dict(row, n_paths=-5), "n_paths = -5: an mc entry"),
                (interval, {"functional": "expected_value", "x0": 1.0,
                            "t": 0.0105}, "not a multiple of dt = 0.001")):
            res = self.verify(tmp_path, mc=[entry], **doc)
            assert res.exit_code == 2, res.output
            errors = error_lines(res.output)
            assert len(errors) == 1 and message in errors[0], res.output

    def test_shipped_mc_config_with_an_unread_key_or_bad_clock(
            self, tmp_path, monkeypatch):
        # a target on the local_time_moment row, which reads none, and a
        # misspelt clock family are usage errors before any solve or pass
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(harness, "solve_heat", no_solve)
        doc = json.loads((CONFIGS / "interval_mc.json").read_text())
        for i, key, value, message in (
                (4, "target", 5.0, "unknown keys ['target']"),
                (1, "clock", {"family": "lineer"},
                 "unknown clock family 'lineer'")):
            bad = json.loads(json.dumps(doc))
            bad["mc"][i][key] = value
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(bad))
            res = CliRunner().invoke(main, ["verify", "--config", str(path)])
            assert res.exit_code == 2, res.output
            errors = error_lines(res.output)
            assert len(errors) == 1 and message in errors[0], res.output

    def test_malformed_entries_are_usage_errors(self, tmp_path, monkeypatch):
        # a bound param the bound does not read or a missing required one,
        # a datum param its id does not read, a datum without a closed form
        # on the model or with negative values, and an alpha row that its
        # accumulator would refuse: each fails at load, before any solve,
        # eigenpair or accumulator
        def no_run(*args, **kwargs):
            raise AssertionError("a solve, eigenpair or accumulator ran")

        monkeypatch.setattr(harness, "solve_heat", no_run)
        monkeypatch.setattr(heatflow, "radial_eigenpair", no_run)
        monkeypatch.setattr(stochastic, "functional_accumulator", no_run)
        sphere = dict(manifold={"family": "sphere-radial", "m": 2},
                      initial_datum={"id": "eigen",
                                     "params": {"index": 1, "amp": 0.5}},
                      times=[0.5], grid_size=101)
        interval = dict(manifold={"family": "interval-neumann"},
                        initial_datum={"id": "cosine", "params": {"k": 1}},
                        times=[0.5])
        alpha_row = {"functional": "harnack_alpha_rhs", "t": 0.3, "x0": 1.0,
                     "n_paths": 100, "alpha": 1.0}
        for doc, message in (
                (dict(sphere, bounds=[{"id": "yau", "params": {"alpha": 3.0}}]),
                 "unknown keys ['alpha'] in the params of bound 'yau'"),
                (dict(sphere, bounds=[{"id": "davies"}]),
                 "bound 'davies' needs ['alpha']"),
                (dict(sphere, bounds=[{"id": "local-grad",
                                       "params": {"eps": 1.0}}]),
                 "needs ['R']"),
                (dict(sphere, initial_datum={"id": "cosine",
                                             "params": {"index": 3}}),
                 "unknown keys ['index'] in the params of datum 'cosine'"),
                (dict(sphere, initial_datum={"id": "eigen",
                                             "params": {"k": 2}}),
                 "unknown keys ['k'] in the params of datum 'eigen'"),
                (dict(interval, manifold={"family": "circle"},
                      initial_datum={"id": "legendre"}),
                 "legendre datum has no closed form on circle"),
                (dict(interval, initial_datum={"id": "cosine",
                                               "params": {"amp": 2}}),
                 "cosine datum must stay nonnegative"),
                (dict(interval, initial_datum={"id": "cosine",
                                               "params": {"k": 0.5}}),
                 "not Neumann compatible"),
                (dict(interval, mc=[alpha_row]), "needs alpha > 1"),
                (dict(interval, mc=[dict(alpha_row, alpha=2.0)],
                      manifold={"family": "interval-neumann", "sigma": -0.4}),
                 "stated for convex walls (sigma = 0)")):
            res = self.verify(tmp_path, **doc)
            assert res.exit_code == 2, res.output
            errors = error_lines(res.output)
            assert len(errors) == 1 and message in errors[0], res.output

    def test_mc_rows_their_model_or_datum_cannot_feed(self, tmp_path,
                                                      monkeypatch):
        # local time on a model without a wall, and a functional that reads
        # the datum's closed form beside the grid-only eigen datum, fail at
        # load with no solve, eigenpair or accumulator; with a wall, or a
        # cosine datum, the same rows load
        def no_run(*args, **kwargs):
            raise AssertionError("a solve, eigenpair or accumulator ran")

        for module, name in ((harness, "solve_heat"),
                             (heatflow, "_basis"),
                             (stochastic, "functional_accumulator"),
                             (stochastic, "value_accumulator"),
                             (stochastic, "local_time_accumulator")):
            monkeypatch.setattr(module, name, no_run)
        row = {"t": 0.3, "x0": 1.0, "n_paths": 100}
        circle = dict(manifold={"family": "circle"},
                      initial_datum={"id": "constant"}, times=[0.5])
        wall = {"manifold": {"family": "interval-neumann"}}
        cases = [(dict(circle, mc=[dict(row, functional=fid)]), wall,
                  "local time needs a boundary family")
                 for fid in ("expected_local_time", "local_time_moment")]
        cosine = {"initial_datum": {"id": "cosine"}}
        for family in ("sphere-radial", "hyperbolic-radial"):
            eigen = dict(manifold={"family": family, "m": 2},
                         initial_datum={"id": "eigen"}, times=[0.5],
                         grid_size=101)
            cases += [(dict(eigen, mc=[dict(row, functional=fid, **extra)]),
                       cosine, f"eigen datum has no closed form on {family}")
                      for fid, extra in (("expected_value", {}),
                                         ("harnack_rhs", {}),
                                         ("harnack_alpha_rhs", {"alpha": 2.0}),
                                         ("gradient_rhs", {}))]
        for doc, fix, message in cases:
            res = self.verify(tmp_path, **doc)
            assert res.exit_code == 2, res.output
            errors = error_lines(res.output)
            assert len(errors) == 1 and message in errors[0], res.output
            ExperimentConfig(**dict(doc, **fix))

    def assert_rejected_at_load(self, tmp_path, monkeypatch, cases):
        # each (doc, edit, mend, message): the edited doc fails at load with
        # one Error: line holding message, and no solve, eigenpair or
        # accumulator; the mended doc loads
        def no_run(*args, **kwargs):
            raise AssertionError("a solve, eigenpair or accumulator ran")

        for module, name in ((harness, "solve_heat"),
                             (heatflow, "_basis"),
                             (stochastic, "functional_accumulator"),
                             (stochastic, "value_accumulator"),
                             (stochastic, "local_time_accumulator")):
            monkeypatch.setattr(module, name, no_run)

        def changed(doc, edit):
            doc = json.loads(json.dumps(doc))
            edit(doc)
            return doc

        for doc, edit, mend, message in cases:
            res = self.verify(tmp_path, **changed(doc, edit))
            assert res.exit_code == 2, res.output
            errors = error_lines(res.output)
            assert len(errors) == 1 and message in errors[0], res.output
            ExperimentConfig(**changed(doc, mend))

    def test_param_values_and_clock_keys_are_checked_at_load(
            self, tmp_path, monkeypatch):
        # a bound, datum or clock param that is not a real number, a k or
        # index that is not whole, a clock key other than family and params,
        # and a clock param its family does not read
        sphere = json.loads((CONFIGS / "sphere.json").read_text())
        circle = json.loads((CONFIGS / "suite_circle.json").read_text())
        mc = json.loads((CONFIGS / "interval_mc.json").read_text())

        def bound_alpha(value):
            return lambda doc: doc["bounds"][0].update(params={"alpha": value})

        def datum(params, expr="cosine"):
            return lambda doc: doc.update(
                initial_datum={"id": expr, "params": params})

        def clock(spec):
            return lambda doc: doc["mc"][1].update(clock=spec)

        self.assert_rejected_at_load(tmp_path, monkeypatch, (
            (sphere, bound_alpha("2"), bound_alpha(2),
             "param 'alpha' of bound 'davies' must be a real number, not '2'"),
            (sphere, bound_alpha(True), bound_alpha(2.0),
             "param 'alpha' of bound 'davies' must be a real number"),
            (sphere, bound_alpha([1.5, None]), bound_alpha([1.5, 3]),
             "must be a real number, not None"),
            (circle, datum({"k": 1.5}), datum({"k": 1}),
             "param 'k' of datum 'cosine' must be a whole number, not 1.5"),
            (circle, datum({"k": "2"}), datum({"k": 2.0}),
             "param 'k' of datum 'cosine' must be a real number, not '2'"),
            (circle, datum({"amp": True}), datum({"amp": 1}),
             "param 'amp' of datum 'cosine' must be a real number"),
            (sphere, datum({"index": 1.7}, "eigen"), datum({"index": 2},
                                                           "eigen"),
             "param 'index' of datum 'eigen' must be a whole number, not 1.7"),
            (mc, clock({"family": "linear", "parms": {"K": 1}}),
             clock({"family": "linear", "params": {}}),
             "unknown keys ['parms'] in the clock of harnack_rhs"),
            (mc, clock({"family": "linear", "params": {"alpha": 2.0}}),
             clock({"family": "exp-linear", "params": {"alpha": 2.0}}),
             "unknown keys ['alpha'] in the params of clock 'linear'"),
            (mc, clock({"family": "trig", "params": {"a": "0.5"}}),
             clock({"family": "trig", "params": {"a": 0.5}}),
             "param 'a' of clock 'trig' must be a real number")))

    def test_entry_manifold_and_config_values_are_checked_at_load(
            self, tmp_path, monkeypatch):
        # an mc entry, manifold or config value that is not a real number,
        # a seed, n_paths or grid size that is not whole, and a bound that
        # sweeps an empty list
        circle = json.loads((CONFIGS / "suite_circle.json").read_text())
        interval = json.loads((CONFIGS / "suite_interval.json").read_text())
        mc = json.loads((CONFIGS / "interval_mc.json").read_text())

        def entry(**values):
            return lambda doc: doc["mc"][0].update(values)

        def manifold(**values):
            return lambda doc: doc["manifold"].update(values)

        def config(**values):
            return lambda doc: doc.update(values)

        def bound(params):
            return lambda doc: doc["bounds"][0].update(params=params)

        self.assert_rejected_at_load(tmp_path, monkeypatch, (
            (mc, entry(seed=1.7), entry(seed=2),
             "'seed' of an mc entry (expected_value) must be a whole number,"
             " not 1.7"),
            (mc, entry(x0="1.0"), entry(x0=1),
             "'x0' of an mc entry (expected_value) must be a real number, "
             "not '1.0'"),
            (mc, entry(n_paths=100.5), entry(n_paths=100.0),
             "'n_paths' of an mc entry (expected_value) must be a whole"),
            (mc, entry(dt=None), entry(dt=1e-3),
             "'dt' of an mc entry (expected_value) must be a real number, "
             "not None"),
            (interval, manifold(length="2"), manifold(length=2),
             "manifold key 'length' must be a real number, not '2'"),
            (interval, manifold(n=True), manifold(n=1.5),
             "manifold key 'n' must be a real number, not True"),
            (mc, config(seed=1.7), config(seed=7),
             "the seed must be a whole number, not 1.7"),
            (circle, config(grid_size="129"), config(grid_size=129),
             "the grid size must be a whole number"),
            (circle, bound({"alpha": []}), bound({"alpha": [2.0]}),
             "param 'alpha' of bound 'davies' sweeps an empty list")))

    def test_local_bound_radii_are_checked_at_load(self, tmp_path,
                                                   monkeypatch):
        # a local bound's ball radius R <= 0, or its curvature modulus
        # K_region < 0, fails at load in verify and in the bounds command
        local = json.loads((CONFIGS / "local_bounds.json").read_text())

        def params(i, **values):   # bounds[0] is local-grad, [1] local-alpha
            return lambda doc: doc["bounds"][i]["params"].update(values)

        self.assert_rejected_at_load(tmp_path, monkeypatch, (
            (local, params(0, R=-1), params(0, R=1),
             "param 'R' of bound 'local-grad' must be positive, not -1"),
            (local, params(0, R=[0.4, 0.0]), params(0, R=[0.4, 0.8]),
             "param 'R' of bound 'local-grad' must be positive, not 0.0"),
            (local, params(1, K_region=-0.5), params(1, K_region=0.5),
             "param 'K_region' of bound 'local-alpha' must be nonnegative, "
             "not -0.5")))
        for bound_id, extra, message in (
                ("local-grad", {"eps": 1, "R": -1}, "'R' of bound 'local-grad'"
                 " must be positive"),
                ("local-alpha", {"alpha": 2, "R": 1, "K_region": -0.5},
                 "'K_region' of bound 'local-alpha' must be nonnegative")):
            doc = dict(extra, n=2, t=1, K=0)
            res = CliRunner().invoke(main, ["bounds", "--id", bound_id,
                                            "--params", json.dumps(doc)])
            assert res.exit_code == 2, res.output
            errors = error_lines(res.output)
            assert len(errors) == 1 and message in errors[0], res.output

    def test_eigen_index_outside_the_grid_is_rejected_at_load(
            self, tmp_path, monkeypatch):
        # the grid of N nodes has the modes 0 to N - 1: a negative index,
        # or one not below the config's grid size or an mc entry's, fails
        # at load; the solve and radial_eigenpair refuse it too
        sphere = json.loads((CONFIGS / "sphere.json").read_text())

        def index(value):
            return lambda doc: doc["initial_datum"]["params"].update(
                index=value)

        # no shipped functional with a target solve runs beside the
        # grid-only datum, so one is made to here
        gradient = stochastic.FUNCTIONALS["gradient_rhs"]
        monkeypatch.setitem(stochastic.FUNCTIONALS, "gradient_rhs",
                            replace(gradient, reads_datum=False))
        row = {"functional": "gradient_rhs", "compare": "state", "t": 0.5,
               "x0": 1.0, "n_paths": 100, "grid_size": 101}
        with_row = dict(sphere, mc=[row])
        self.assert_rejected_at_load(tmp_path, monkeypatch, (
            (sphere, index(-1), index(0),
             "param 'index' of datum 'eigen' must be nonnegative, not -1"),
            (sphere, index(301), index(300),
             "param 'index' of datum 'eigen' must be below the grid size "
             "301, not 301"),
            (sphere, index(5000), index(3),
             "must be below the grid size 301, not 5000"),
            (with_row, index(101), index(100),
             "must be below the grid size 101, not 101")))
        M = manifold_from_dict(sphere["manifold"])
        for i in (-1, 101):
            with pytest.raises(ValueError, match="must be"):
                solve_heat(M, initial_datum("eigen", {"index": i}), 0.5,
                           grid_size=101)
            with pytest.raises(ValueError, match=f"has no mode {i}"):
                heatflow.radial_eigenpair(M, 101, i)

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

    def test_bounds_command_rejects_bad_params(self):
        for params in ('{bad', '{"t": 1, "K": 0, "alpha": 2}',
                       '{"n": 2, "t": 0, "K": 0, "alpha": 2}', '[1]'):
            res = CliRunner().invoke(main, ["bounds", "--id", "davies",
                                            "--params", params])
            # exit 1 is a failed row; bad input is a usage error
            assert res.exit_code == 2, res.output
            errors = error_lines(res.output)
            assert len(errors) == 1, res.output
            assert errors[0].startswith("Error: invalid --params: ")

    def test_bounds_command_reads_every_key_it_is_given(self):
        # n, t and K always, the bound's own params, and bbg's observed Y
        for bound_id, params, code in (
                ("yau", {"n": 2, "t": 1, "K": -1}, 0),
                ("yau", {"n": 2, "t": 1, "K": -1, "alpha": 2}, 2),
                ("davies", {"n": 2, "t": 1, "alpha": 2, "Y": 0.1}, 2),
                ("bbg", {"n": 2, "t": 1, "K": 1, "Y": 0.1}, 0),
                ("grad-decay", {"n": 2, "t": 1, "K": 1, "K_prime": 2}, 0),
                ("grad-decay", {"n": 2, "t": 1, "K": 1, "R": 2}, 2)):
            res = CliRunner().invoke(main, ["bounds", "--id", bound_id,
                                            "--params", json.dumps(params)])
            assert res.exit_code == code, res.output
            if code:
                errors = error_lines(res.output)
                assert len(errors) == 1, res.output
                assert errors[0].startswith("Error: invalid --params: ")

    def test_kernel_command_rejects_bad_input(self):
        for args in (["--family", "nope", "--t", "1"],
                     ["--family", "euclidean-line", "--t", "0"],
                     ["--family", "circle", "--m", "0", "--t", "1"],
                     ["--family", "sphere-radial", "--m", "2", "--t", "1"]):
            res = CliRunner().invoke(main, ["kernel", *args, "--x", "0.5"])
            assert res.exit_code == 2, res.output
            errors = error_lines(res.output)
            assert len(errors) == 1, res.output
            assert errors[0].startswith("Error: invalid kernel query: ")

    def test_kernel_command(self):
        runner = CliRunner()
        t = 1.0 / (4.0 * math.pi)
        res = runner.invoke(main, ["kernel", "--family", "euclidean-line",
                                   "--t", str(t), "--x", "0.0", "--y", "0.0"])
        assert res.exit_code == 0
        assert float(res.output) == pytest.approx(1.0, abs=1e-12)
