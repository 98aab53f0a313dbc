import json
import math

import pytest
from click.testing import CliRunner

from liyau.cli import main
from liyau.harness import (CSV_COLUMNS, ExperimentConfig, emit_report,
                           load_report, run_experiment)


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

    def test_failures_flag_synthetic_row(self):
        report = run_experiment(minimal_config())
        report.bound_rows.append(dict(report.bound_rows[0]))
        report.bound_rows[-1]["margin"] = -1.0
        assert report.exit_code == 1

    def test_classical_bounds_skipped_on_drift_models(self):
        from liyau.geometry import register_drift
        try:
            register_drift("harness-ou", lambda x: -0.2 * x)
        except ValueError:
            pass  # already registered by an earlier test run
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


class TestEmit:
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

    def test_verify_exit_zero(self, tmp_path):
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
