"""Numerically stable scalar kernels shared across the package.

All hyperbolic/trigonometric ratios that degenerate near zero are written
through expm1 so that the K -> 0 and alpha -> 1 limits of the bound
constants come out exact instead of cancelling catastrophically.

Quadrature comes in two kinds:

- integrate_smooth, a 64-node Gauss-Legendre rule checked against 32
  nodes, for the smooth or bounded integrands: the clock integrals of
  clocks (clock_integrals, gamma_integral, alpha_form_integral), the
  coefficients of bounds.nonconvex_bound_rhs (split by sign_changes where
  a turning clock puts a kink in |l'| or |l l'|), the small beta t branch
  of the local-grad Y coefficient (bounds._g3_y_coeff), where its closed
  form cancels, and the collar integrals of bounds.nonconvex_constants;
- closed forms, with no quadrature at run time: the local-grad Y
  coefficient for beta t >= 1e-2, whose integrand is too peaked at large
  beta for the fixed rule, and the exp-alpha left-hand side.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np


class QuadratureError(RuntimeError):
    """A quadrature rule failed to reach the requested tolerance."""


class SolverError(RuntimeError):
    """A PDE solve violated one of its runtime invariants."""


def reject_unknown(entry, known: tuple, what: str) -> None:
    """Raise ValueError naming each key of a config entry not in known."""
    unknown = sorted(set(entry) - set(known))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {what}; known: {known}")


def with_defaults(params, defaults: dict, what: str) -> dict:
    """A catalog entry's params over its defaults; a param that the entry
    does not read, or that is not a real number, raises."""
    params = params or {}
    reject_unknown(params, tuple(defaults), f"the params of {what}")
    for key, value in params.items():
        check_real(value, f"param {key!r} of {what}")
    return {**defaults, **params}


def check_real(value, what: str, integral: bool = False,
               least: float | None = None) -> None:
    """Raise ValueError unless a config value is a finite real number (an
    int or a float, never a bool, a str, NaN, an infinity or an int beyond
    the float range), a whole one if integral, and at least least if
    given."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{what} must be finite, not an integer beyond "
                         "the float range")
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or integral and not float(value).is_integer()):
        raise ValueError(f"{what} must be a {'whole' if integral else 'real'}"
                         f" number, not {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, not {value!r}")


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


@functools.lru_cache(maxsize=None)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def integrate_smooth(f, a, b, tol=1e-10, breaks=()):
    """Gauss-Legendre quadrature of a piecewise smooth f on [a, b].

    f takes an array of nodes; breaks are the interior points where f has a
    kink (see sign_changes).  On each piece the 64-node value is taken when
    it agrees with the 32-node value to max(tol, 1e-12 |value|), the
    absolute-or-relative rule of quad's epsabs/epsrel; otherwise the
    integrand is too peaked or rough for the fixed rule and the call raises.
    """
    ends = [a, *breaks, b]
    return sum(_gauss_legendre(f, lo, hi, tol) for lo, hi in zip(ends, ends[1:]))


def _gauss_legendre(f, a, b, tol):
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    i32, i64 = (half * float(np.dot(w, f(mid + half * x)))
                for x, w in map(_leggauss, (32, 64)))
    if not abs(i64 - i32) <= max(tol, 1e-12 * abs(i64)):
        raise QuadratureError(
            f"Gauss-Legendre rules disagree on [{a}, {b}]: "
            f"64 nodes {i64}, 32 nodes {i32}")
    return i64


def sign_changes(g, a, b, n=512):
    """Interior points of (a, b) where g changes sign, to rounding.

    g is sampled at n + 1 uniform nodes and each bracket of a strict sign
    change is bisected to its floating-point limit.  Two sign changes
    between neighbouring nodes go unseen; the kink they leave in |g| then
    makes integrate_smooth raise rather than return a wrong value.
    """
    x = np.linspace(a, b, n + 1)
    sg = np.sign(g(x))
    roots = list(x[1:-1][sg[1:-1] == 0.0])
    for i in np.flatnonzero(sg[:-1] * sg[1:] < 0.0):
        lo, hi = x[i], x[i + 1]
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if np.sign(g(mid)) == sg[i]:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        roots.append(lo)
    return sorted(map(float, roots))


def mean_and_stderr(values):
    """Compensated sample mean and standard error (std/sqrt(n))."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError("need at least two samples for a standard error")
    mean = math.fsum(values) / n
    var = math.fsum((values - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)
