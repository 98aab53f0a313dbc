"""Command line entry points: verify / mc / bounds / kernel / sweep."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys

import click

from . import bounds as bounds_mod
from . import harness
from .geometry import manifold_from_dict
from .heatflow import exact_kernel


@click.group()
def main():
    """Gradient-inequality verification toolkit."""


def _run_options(command):
    """--config, --seed, --out and --format, shared by verify, mc and sweep."""
    for option in reversed((
            click.option("--config", "config_path", required=True,
                         type=click.Path(exists=True)),
            click.option("--seed", type=int, default=None),
            click.option("--out", type=click.Path(), default=None),
            click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                         default="csv"))):
        command = option(command)
    return command


_tol_option = click.option("--tol", type=float, default=None)


@contextlib.contextmanager
def _usage_errors(what: str):
    """Bad input raised in the block is a usage error: one Error: line and
    exit 2, where exit 1 is a failed row."""
    try:
        yield
    except (ValueError, TypeError, KeyError) as exc:  # JSON errors included
        raise click.UsageError(f"{what}: {type(exc).__name__}: {exc}")


def _run(config_path, seed, out, fmt, tol=None, mc_only=False,
         bounds_only=False):
    """Run a config, write its report files under out, exit 0 iff all pass
    and some row was checked."""
    changes = {key: value for key, value in (("seed", seed), ("tol", tol))
               if value is not None}
    if mc_only:
        changes["bounds"] = []
    if bounds_only:
        changes["mc"] = []
    with _usage_errors(f"invalid config {config_path}"):
        config = harness.ExperimentConfig.from_json(config_path)
        config = dataclasses.replace(config, **changes)  # checks again
    report = harness.run_experiment(config)
    if out:
        for path in harness.emit_report(report, out, fmt):
            click.echo(f"wrote {path}")
    failures = report.failures()
    worst = report.worst_margin()
    click.echo(f"rows: bounds={report.n_bound_rows} mc={len(report.mc_rows)}"
               f" worst_margin={worst:.3e} failures={len(failures)}")
    if not report.checked():
        click.echo("warning: no bound or MC row was checked", err=True)
    sys.exit(report.exit_code_of(failures))


@main.command()
@_run_options
@_tol_option
def verify(config_path, seed, out, fmt, tol):
    """Run the full bound + MC suite of a config; exit 0 iff all rows pass."""
    _run(config_path, seed, out, fmt, tol)


@main.command()
@_run_options
def mc(config_path, seed, out, fmt):
    """Run only the stochastic estimator rows of a config."""
    _run(config_path, seed, out, fmt, mc_only=True)


@main.command()
@_run_options
@_tol_option
def sweep(config_path, seed, out, fmt, tol):
    """Run the bound grid sweep and emit margin-vs-t plot data."""
    _run(config_path, seed, out, fmt, tol, bounds_only=True)


@main.command("bounds")
@click.option("--id", "bound_id", required=True,
              type=click.Choice(bounds_mod.BOUND_IDS))
@click.option("--params", "params_json", required=True,
              help="JSON object, e.g. '{\"n\": 2, \"t\": 1, \"K\": 0, \"alpha\": 2}'")
def bounds_cmd(bound_id, params_json):
    """Evaluate one bound id into its normal form."""
    with _usage_errors("invalid --params"):
        params = json.loads(params_json)
        bounds_mod.check_keys(bound_id, params)
        form = bounds_mod.eval_bound(bound_id, params)
    click.echo(json.dumps(form.to_dict(), sort_keys=True))


@main.command()
@click.option("--family", required=True)
@click.option("--m", type=int, default=1)
@click.option("--t", type=float, required=True)
@click.option("--x", type=float, required=True)
@click.option("--y", type=float, default=0.0)
@click.option("--length", type=float, default=None)
def kernel(family, m, t, x, y, length):
    """Evaluate the exact kernel p_t(x, y) of a flat family."""
    doc = {"family": family, "m": m, "length": length}   # None: the default
    with _usage_errors("invalid kernel query"):
        value = exact_kernel(manifold_from_dict(doc), t, x, y)
    click.echo(repr(value))


if __name__ == "__main__":
    main()
