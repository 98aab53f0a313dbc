"""Workloads of the `liyau verify` benchmark: pinned inputs and output checks.

A workload is a fixed list of `verify` invocations on config files kept in
`perfbench/configs/`.  Their sha256 digests are pinned in `reference.json`,
so an edit of the shipped `configs/` cannot silently change a workload.
`reference.json` also records what a correct run prints and writes at
`REFERENCE_SEED`; `make_reference.py` regenerates it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "configs"
REFERENCE_PATH = HERE / "reference.json"

REFERENCE_SEED = 42
# Reference numbers may move by REL_TOL * (1 + |ref|): the form of the
# verifier's own margin gate at its default tolerance.
REL_TOL = 1e-6
# verify prints the worst margin with four significant digits.
PRINT_TOL = 5e-4
# The verifier fails an MC row at three standard errors, which a correct
# estimator does on about 0.3% of seeds (the shipped interval_mc config does
# at seeds 16 and 97 of 0-99).  A non-zero exit whose only failing rows are
# MC rows within FLAG_SIGMAS standard errors of their target is counted as a
# statistical flag, not as a failed run.
FLAG_SIGMAS = 5.0
REPORT_FILES = ("report.csv", "mc.csv", "margin_vs_t.csv")
# The shipped configs the pinned copies were taken from, relative to the
# checkout root.
SHIPPED = {"sphere.json": "configs/sphere.json",
           "interval_mc.json": "configs/interval_mc.json"}

_SUMMARY = re.compile(r"rows: bounds=(\d+) mc=(\d+) worst_margin=(\S+) "
                      r"failures=(\d+)")


@dataclass(frozen=True)
class Invocation:
    """One `liyau verify` process: a config under configs/, with or without
    `--out` (which writes report.csv, mc.csv and margin_vs_t.csv)."""

    config: str
    out: bool


# Each workload loads one layer and bypasses the others; BENCHMARK.json
# records why.  radial-solve runs without --out so emission is bypassed.
WORKLOADS = {
    "sphere-catalog": (Invocation("sphere.json", True),),
    "interval-mc": (Invocation("interval_mc.json", True),),
    "radial-solve": (Invocation("hyperbolic_radial.json", False),
                     Invocation("sphere_radial.json", False)),
}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def pin_problems(reference: dict) -> list:
    """Configs whose bytes differ from the digests pinned in the reference."""
    return [f"config {name} does not match its pinned sha256"
            for name, digest in reference["configs"].items()
            if sha256(CONFIG_DIR / name) != digest]


def reduced_config(doc: dict) -> dict:
    """A small copy of a config for the smoke test: coarse grid, two times,
    few paths.  Its outputs are not compared with the reference."""
    return dict(doc, times=doc["times"][:2], grid_size=65,
                mc=[dict(e, n_paths=400) for e in doc["mc"]])


def parse_summary(stdout: str):
    """(bound_rows, mc_rows, worst_margin, failures) from verify's last line."""
    m = _SUMMARY.search(stdout)
    if m is None:
        return None
    return int(m.group(1)), int(m.group(2)), float(m.group(3)), int(m.group(4))


def _num(cell: str):
    return float(cell) if cell else None


def read_tables(out_dir) -> dict:
    """The checked numbers of one run, read from its margin_vs_t.csv and mc.csv.

    margins: [bound_id, t, min_margin] per bound and time, in file order.
    mc: [functional_id, value, stderr, target, passed] per MC row.
    """
    out = Path(out_dir)
    with (out / "margin_vs_t.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    margins = [[b, float(t), float(m)] for b, t, m in rows]
    with (out / "mc.csv").open(newline="") as fh:
        reader = csv.DictReader(fh)
        mc = [[r["functional_id"], _num(r["value"]), _num(r["stderr"]),
               _num(r["target"]),
               {"true": True, "false": False}.get(r["passed"])]
              for r in reader]
    return {"margins": margins, "mc": mc}


def statistical_flags(mc_rows) -> int:
    """MC rows failed by the verifier but within FLAG_SIGMAS of their target."""
    n = 0
    for _, value, stderr, target, passed in mc_rows:
        if passed is False and None not in (value, stderr, target) \
                and abs(value - target) <= FLAG_SIGMAS * stderr:
            n += 1
    return n


def _close(x, ref, rel=REL_TOL) -> bool:
    if x is None or ref is None:
        return x is None and ref is None
    return abs(x - ref) <= rel * (1.0 + abs(ref))


def _table_problems(tables: dict, ref: dict, at_reference_seed: bool) -> list:
    problems = []
    got, want = tables["margins"], ref["margins"]
    if [r[:2] for r in got] != [r[:2] for r in want]:
        problems.append("margin_vs_t keys differ from the reference")
    else:
        bad = [f"{b}@t={t}" for (b, t, m), (_, _, r) in zip(got, want)
               if not _close(m, r)]
        if bad:
            problems.append("margins leave the reference: " + ", ".join(bad))
    got, want = tables["mc"], ref["mc"]
    if [r[0] for r in got] != [r[0] for r in want]:
        return problems + ["MC rows differ from the reference"]
    for i, (row, ref_row) in enumerate(zip(got, want)):
        value, stderr = row[1], row[2]
        if value is None or stderr is None or not math.isfinite(value) \
                or not math.isfinite(stderr):
            problems.append(f"MC row {i} has no finite estimate")
        elif at_reference_seed and not all(
                _close(a, b) for a, b in zip(row[1:4], ref_row[1:4])):
            problems.append(f"MC row {i} ({row[0]}) leaves the reference")
    return problems


def run_problems(ref: dict | None, exit_code: int, stdout: str,
                 tables: dict | None, seed: int) -> list:
    """What is wrong with one verify invocation; an empty list means correct.

    ref is the invocation's reference entry, or None for a reduced-size run,
    which is checked only for a clean exit and a summary line.  tables are
    the run's margins and MC rows, or None when the run wrote no files; a
    non-zero exit is then never excused as a statistical flag.
    """
    summary = parse_summary(stdout)
    if summary is None:
        return [f"no summary line (exit code {exit_code})"]
    n_bounds, n_mc, worst, n_fail = summary
    problems = []
    flagged = statistical_flags(tables["mc"]) if tables else 0
    if exit_code != 0 and not (exit_code == 1 and tables and n_fail == flagged):
        problems.append(f"exit code {exit_code} with {n_fail} failing rows")
    if ref is None:
        return problems
    if (n_bounds, n_mc) != (ref["bound_rows"], ref["mc_rows"]):
        problems.append(f"row counts {n_bounds}/{n_mc} differ from "
                        f"{ref['bound_rows']}/{ref['mc_rows']}")
    if not abs(worst - ref["worst_margin"]) <= (
            PRINT_TOL * abs(ref["worst_margin"])
            + REL_TOL * (1.0 + abs(ref["worst_margin"]))):
        problems.append(f"worst margin {worst} differs from "
                        f"{ref['worst_margin']}")
    if tables is not None:
        problems += _table_problems(tables, ref, seed == REFERENCE_SEED)
    return problems


def identical_files(out_dir, ref: dict, seed: int) -> tuple[int, int]:
    """(identical, compared) report files against the reference bytes.

    report.csv and margin_vs_t.csv do not depend on the seed; mc.csv is
    compared at the reference seed only.
    """
    names = [n for n in REPORT_FILES
             if n != "mc.csv" or seed == REFERENCE_SEED]
    paths = [Path(out_dir) / n for n in names]
    same = sum(p.is_file() and sha256(p) == ref["sha256"][p.name]
               for p in paths)
    return same, len(names)
