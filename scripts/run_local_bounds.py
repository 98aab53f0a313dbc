#!/usr/bin/env python3
"""Ball-constant sweep for the two local bounds on the round sphere.

For each ball radius R < pi/2 and each time, evaluates the local bounds
at every grid point of the sphere solve and records the worst margin.
Output is a plot-ready CSV (bound, R, t, min_margin, c).
"""

import argparse
import csv
import sys

import numpy as np

from liyau import bound_margins, initial_datum, make_model_manifold, solve_heat


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/local_bounds.csv")
    ap.add_argument("--radii", type=float, nargs="+",
                    default=[0.4, 0.8, 1.2, 1.5])
    ap.add_argument("--times", type=float, nargs="+",
                    default=[0.05, 0.1, 0.5, 1.0, 2.0])
    args = ap.parse_args()

    M = make_model_manifold("sphere-radial", m=2)
    datum = initial_datum("eigen", {"index": 1, "amp": 0.5})
    rows = []
    for t in args.times:
        state = solve_heat(M, datum, t)
        X, Y = state.X(), state.Y()
        for R in args.radii:
            for bid, extra in (("local-grad", {"eps": 1.0}),
                               ("local-alpha", {"alpha": 2.0})):
                m = bound_margins(bid, dict(extra, n=M.n, t=t, K=M.K,
                                            K_region=0.0, R=R), X, Y)
                rows.append((bid, R, t, float(np.min(m.margin)), m.c))

    import pathlib
    pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("bound_id", "R", "t", "min_margin", "c"))
        writer.writerows(rows)
    worst = min(r[3] for r in rows)
    print(f"{len(rows)} rows -> {args.out}; worst margin {worst:.4e}")
    sys.exit(0 if worst > -1e-6 else 1)


if __name__ == "__main__":
    main()
