"""Numerically stable scalar kernels shared across the package.

All hyperbolic/trigonometric ratios that degenerate near zero are written
through expm1 so that the K -> 0 and alpha -> 1 limits of the bound
constants come out exact instead of cancelling catastrophically.
"""

from __future__ import annotations

import math

import numpy as np


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SolverError(RuntimeError):
    """A PDE solve violated one of its runtime invariants."""


def coth(x):
    """Hyperbolic cotangent, exact through the 1/x pole behaviour.

    coth(x) = 1 + 2/expm1(2x) for x > 0; extended as an odd function.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.sign(x) * (1.0 + 2.0 / np.expm1(2.0 * ax))
    return out if out.ndim else float(out)


def xcoth(x):
    """x * coth(x); even, equals 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    small = ax < 1e-8
    safe = np.where(small, 1.0, ax)
    with np.errstate(over="ignore"):
        out = np.where(small, 1.0 + ax * ax / 3.0,
                       safe + 2.0 * safe / np.expm1(2.0 * safe))
    return out if out.ndim else float(out)


def xcot(x):
    """x * cot(x); even, equals 1 at x = 0. Caller keeps |x| < pi."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    small = ax < 1e-8
    safe = np.where(small, 1.0, ax)
    out = np.where(small, 1.0 - ax * ax / 3.0, safe / np.tan(safe))
    return out if out.ndim else float(out)


def em1int(c, t):
    """Closed form of the exponential integral  int_0^t e^{c s} ds."""
    if c == 0.0:
        return t
    return math.expm1(c * t) / c


def decay_rate(beta, t):
    """beta / (1 - e^{-beta t}), continuous through beta = 0 (value 1/t)."""
    if beta == 0.0:
        return 1.0 / t
    return -beta / math.expm1(-beta * t)


def expm1_ratio(a, b):
    """expm1(a)/expm1(b) with the 0/0 limit a/b; stable for a*b >= 0."""
    if b == 0.0:
        return a / b if a != 0.0 else 1.0
    return math.expm1(a) / math.expm1(b)


def integrate_adaptive(f, a, b, tol=1e-10, limit=200):
    """Adaptive quadrature with an absolute tolerance and a failure check."""
    from scipy import integrate  # on first use: radial solves never integrate

    val, err, info, *rest = integrate.quad(
        f, a, b, epsabs=tol, epsrel=1e-12, limit=limit, full_output=True
    )
    if rest:  # quad appends a message when ier != 0
        # Retries with more subdivisions before giving up.
        val, err, info, *rest = integrate.quad(
            f, a, b, epsabs=tol, epsrel=1e-11, limit=4 * limit, full_output=True
        )
    if rest and err > 1e3 * tol * (1.0 + abs(val)):
        raise QuadratureError(
            f"quadrature did not converge on [{a}, {b}]: value={val}, err={err}"
        )
    return val


def mean_and_stderr(values):
    """Compensated sample mean and standard error (std/sqrt(n))."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError("need at least two samples for a standard error")
    mean = math.fsum(values) / n
    var = math.fsum((values - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)
