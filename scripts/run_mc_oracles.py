#!/usr/bin/env python3
"""Stochastic-engine calibration report.

Part 1: local-time mean on the reflected half line against the closed
form 2/sqrt(pi), for both wall schemes over a dt-halving ladder.  The
projection scheme shows its 0.82 sqrt(dt) deficit; the bridge scheme
stays unbiased at every step size.  Each rung also prints the stepper's
throughput in million path-steps per second next to an RNG-only floor:
the same draws (a normal per path and step, plus an exponential per path
and step under the bridge scheme) with nothing else.

Part 2: the clock-weighted squared-gradient functional on the Neumann
interval against its deterministic quadrature form, for a grid of
constant curvature weights.
"""

import argparse
import math
import time

import numpy as np

from liyau import (clock_integrals, estimate_functional, expected_local_time,
                   initial_datum, make_clock, make_model_manifold, solve_heat)

TARGET = 2.0 / math.sqrt(math.pi)


def rng_floor_s(n_paths, steps, seed, exponentials):
    """Seconds to make a run's draws alone, into one reused buffer."""
    rng = np.random.default_rng(seed)
    buf = np.empty(n_paths)
    start = time.perf_counter()
    for _ in range(steps):
        rng.standard_normal(out=buf)
        for _ in range(exponentials):
            rng.standard_exponential(out=buf)
    return time.perf_counter() - start


def local_time_ladder(n_paths, seed):
    half_line = make_model_manifold("half-line-neumann")
    print(f"E[L_1] target = {TARGET:.6f}   ({n_paths} paths)")
    print(f"{'dt':>8} {'scheme':>12} {'estimate':>10} {'stderr':>8} "
          f"{'dev/se':>7} {'Msteps/s':>9} {'floor':>7}")
    for scheme in ("bridge", "projection"):
        for dt in (4e-3, 2e-3, 1e-3, 5e-4):
            start = time.perf_counter()
            est = expected_local_time(half_line, 0.0, 1.0, n_paths, dt,
                                      seed, scheme=scheme)
            run_s = time.perf_counter() - start
            steps = round(1.0 / dt)
            floor_s = rng_floor_s(n_paths, steps, seed,
                                  1 if scheme == "bridge" else 0)
            dev = (est.value - TARGET) / est.stderr
            work = n_paths * steps / 1e6
            print(f"{dt:>8.0e} {scheme:>12} {est.value:>10.6f} "
                  f"{est.stderr:>8.5f} {dev:>7.2f} {work / run_s:>9.1f} "
                  f"{work / floor_s:>7.1f}")


def quadrature_comparison(n_paths, seed):
    interval = make_model_manifold("interval-neumann")
    datum = initial_datum("cosine", {"k": 1, "amp": 0.5})
    t, x0 = 0.5, 1.0
    state = solve_heat(interval, datum, t)
    i = state.index_of(x0)
    print("\nclock-weighted functional vs deterministic quadrature")
    print(f"{'K':>6} {'clock':>8} {'mc':>10} {'quadrature':>11} {'dev/se':>7}")
    for K in (0.0, 0.5, -0.5):
        for family in ("linear", "trig"):
            params = {} if family == "linear" else {"K": K, "a": 0.3}
            clock = make_clock(family, params, t)
            est = estimate_functional(interval, datum, x0, t, clock,
                                      "harnack_rhs", n_paths, 1e-3, seed,
                                      K_field=K)
            ints = clock_integrals(clock, K)
            target = (0.5 * interval.n * ints["deriv_sq"] * float(state.u[i])
                      - ints["sq_prime"] * float(state.Lu[i]))
            dev = (est.value - target) / est.stderr if est.stderr else 0.0
            print(f"{K:>6.2f} {family:>8} {est.value:>10.6f} "
                  f"{target:>11.6f} {dev:>7.2f}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    local_time_ladder(args.paths, args.seed)
    quadrature_comparison(args.paths, args.seed)
