#!/usr/bin/env python3
"""Sweep the bound catalog over the four model geometries.

Writes one report directory per manifold under --out (default results/),
including margin-vs-t plot data, and prints the worst scaled margin seen.
Exit code 0 iff every in-domain row passes its margin check.
"""

import argparse
import sys

from liyau.harness import ExperimentConfig, emit_report, run_experiment

MANIFOLDS = [
    {"family": "circle", "m": 1, "n": 1},
    {"family": "interval-neumann", "m": 1, "n": 1},
    {"family": "sphere-radial", "m": 2, "n": 2},
    {"family": "hyperbolic-radial", "m": 2, "n": 2},
]

BOUNDS = [
    {"id": "davies", "params": {"alpha": [1.5, 2.0, 4.0]}},
    {"id": "bakry-qian"},
    {"id": "li-xu"},
    {"id": "yau"},
    {"id": "bakry-qian-sqrt"},
    {"id": "bbg"},
    {"id": "lu-range"},
    {"id": "trig-alpha", "params": {"alpha": [1.5, 2.0, 4.0]}},
    {"id": "grad-decay"},
    {"id": "exp-alpha", "params": {"alpha": [1.5, 2.0, 4.0]}},
    {"id": "linear-alpha", "params": {"alpha": [1.5, 2.0, 4.0]}},
    {"id": "linear-unit"},
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--times", type=float, nargs="+",
                    default=[0.05, 0.1, 0.5, 1.0, 2.0])
    ap.add_argument("--amp", type=float, default=0.5)
    ap.add_argument("--format", choices=["csv", "json"], default="csv")
    args = ap.parse_args()

    failed = False
    for spec in MANIFOLDS:
        config = ExperimentConfig(
            manifold=spec,
            initial_datum={"id": "eigen", "params": {"index": 1,
                                                     "amp": args.amp}},
            times=list(args.times),
            bounds=BOUNDS,
            mc=[],
            seed=1,
        )
        report = run_experiment(config)
        out_dir = f"{args.out}/{spec['family']}"
        emit_report(report, out_dir, args.format)
        n_bad = len(report.failures())
        print(f"{spec['family']:>20}: rows={report.n_bound_rows} "
              f"worst_margin={report.worst_margin():.3e} failures={n_bad} "
              f"-> {out_dir}")
        failed |= bool(n_bad)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
