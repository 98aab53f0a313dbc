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
constant curvature weights: six `compare: "wx0"` MC rows of one
`run_experiment` config.
"""

import argparse
import math
import time

import numpy as np

from liyau import (ExperimentConfig, expected_local_time, make_model_manifold,
                   run_experiment)

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
    t = 0.5
    grid = [(K, family) for K in (0.0, 0.5, -0.5)
            for family in ("linear", "trig")]
    clocks = [{"family": family,
               "params": {} if family == "linear" else {"K": K, "a": 0.3}}
              for K, family in grid]
    # the six rows share one ensemble, so their paths are simulated once
    config = ExperimentConfig(
        manifold={"family": "interval-neumann"},
        initial_datum={"id": "cosine", "params": {"k": 1, "amp": 0.5}},
        times=[t], seed=seed,
        mc=[{"functional": "harnack_rhs", "t": t, "x0": 1.0,
             "n_paths": n_paths, "dt": 1e-3, "K_field": K, "clock": clock,
             "compare": "wx0"} for (K, _), clock in zip(grid, clocks)])
    print("\nclock-weighted functional vs deterministic quadrature")
    print(f"{'K':>6} {'clock':>8} {'mc':>10} {'quadrature':>11} {'dev/se':>7}")
    for (K, family), row in zip(grid, run_experiment(config).mc_rows):
        value, target, stderr = row["value"], row["target"], row["stderr"]
        dev = (value - target) / stderr if stderr else 0.0
        print(f"{K:>6.2f} {family:>8} {value:>10.6f} "
              f"{target:>11.6f} {dev:>7.2f}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    local_time_ladder(args.paths, args.seed)
    quadrature_comparison(args.paths, args.seed)
