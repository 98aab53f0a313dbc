"""Fixed work that measures how fast the host runs at the moment.

    python perfbench/calibrate.py

run.py times this process, spawn to exit, next to every timed process of a
run and divides their times by it (see run.py).  It uses no code of the
program under test, so it does the same work on every commit: it starts the
interpreter, imports numpy and scipy.linalg as a verify process does, and
then repeats a pure-Python loop, numpy normal draws and small matrix
products, the three kinds of work the workloads spend their time in.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg  # noqa: F401

ROUNDS = 6


def main() -> None:
    rng = np.random.default_rng(0)
    draws = np.empty((2048, 64))
    a = rng.standard_normal((300, 300))
    for _ in range(ROUNDS):
        x = 0
        for i in range(60_000):
            x += i * i % 7
        for _ in range(8):
            rng.standard_normal(out=draws)
        for _ in range(6):
            a @ a


if __name__ == "__main__":
    main()
