"""Neumann heat semigroup on the model geometries.

Every gridded family has one discrete generator L, held as its three
diagonals (_generator): the flux form w^{-1} (w u')' on the sphere /
hyperbolic radial reductions (no-flux at the coordinate poles), central
differences with ghost-node walls elsewhere, periodic on the circle.

Schemes:

  * "spectral": exact-in-time evolution in an eigenbasis.  Fourier modes
    on the circle and on the interval, which is the even half of the
    circle of length 2L (its DCT-I is numpy's real FFT of the even
    extension), and on the sphere / hyperbolic radial reductions the
    eigenvectors of the symmetrised tridiagonal L with lam t <= 50 only
    (_MODE_CUT): every dropped mode is weighted by e^{-lam t} < 2e-22.
    Each grid has one basis (_basis), a prefix of its lowest modes made
    in numpy (Sturm multisection, twisted factorisations and one step of
    inverse iteration); a solve reads its modes off the prefix, and a
    Sturm count runs only to extend it.
  * "crank-nicolson-fd": second-order theta stepping of L, dt = h, with
    I - dt/2 L factored once into Thomas's pivots and solved each step by
    two log-depth scans in numpy; the circle's two corners enter by one
    Sherman-Morrison correction.
  * "kernel": closed-form evolution of the constant and gaussian data
    on the unbounded flat families (line, half line, flat radial).

Each family's route is read from its geometry.Family record (M.spec), and
each initial datum from DATA: its params with their defaults and the
families where it has a closed form.

The radial modes and the Crank-Nicolson solves use elementwise numpy and
numpy's reductions only, never BLAS or LAPACK, so no bit of their output
depends on the BLAS thread count; no solve needs more than numpy.

Every solve enforces positivity, the maximum principle, and (for Z = 0)
conservation of the weighted mass, and raises SolverError on violation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import FAMILIES, ModelManifold
from .numerics import SolverError, check_real, reject_unknown

POSITIVITY_FLOOR = 1e-12
NEUMANN_TOL = 1e-8  # |u0'| allowed at a reflecting wall


# ---------------------------------------------------------------------------
# exact kernels


def _gauss(d, t):
    d = np.asarray(d, dtype=float)
    return (4.0 * math.pi * t) ** -0.5 * np.exp(-d * d / (4.0 * t))


def _kernel_wrapped(theta, t, period):
    terms = int(math.ceil((math.sqrt(340.0 * t) + abs(float(theta)))
                          / period)) + 1
    j = np.arange(-terms, terms + 1)
    return float(np.sum(_gauss(theta + period * j, t)))


def _kernel_spectral(theta, t, period):
    w1 = 2.0 * math.pi / period  # the wave number of the first mode
    kmax = int(math.ceil(math.sqrt(40.0 / t) / w1)) + 2
    k = np.arange(1, kmax + 1) * w1
    return float((1.0 + 2.0 * np.sum(np.exp(-k * k * t) * np.cos(k * theta)))
                 / period)


def _circle_kernel(theta, t, period):
    """Heat kernel of the circle of length period at arc theta: the
    wrapped Gaussian at small t, the theta series otherwise."""
    if t < 0.5 * (period / (2.0 * math.pi)) ** 2:
        return _kernel_wrapped(theta, t, period)
    return _kernel_spectral(theta, t, period)


def exact_kernel(M: ModelManifold, t: float, x: float, y: float) -> float:
    """Transition density p_t(x, y) of the flat-family semigroups.

    Gaussian on the line, centered radial Gaussian for the flat radial
    coordinate (y must be 0 there), wrapped Gaussian / theta sum on the
    circle, and reflection-principle images on the half line and the
    Neumann interval: [0, L] is the even half of the circle of length 2L,
    so its kernel is that circle's at x - y plus at x + y.  Sphere and
    hyperbolic space have no elementary kernel here; use solve_heat.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if M.spec.flux_form:
        raise ValueError(f"no exact kernel for {M.family}; use solve_heat")
    if M.spec.radial:
        if y != 0.0:
            raise ValueError("flat radial kernel is centered: y must be 0")
        return float((4.0 * math.pi * t) ** (-M.m / 2.0)
                     * math.exp(-x * x / (4.0 * t)))
    images = (x - y, x + y) if M.has_boundary else (x - y,)   # wall at 0
    if not M.spec.compact:
        return float(sum(_gauss(d, t) for d in images))
    _, hi = M.domain()
    if M.spec.periodic:
        return _circle_kernel((x - y) % hi, t, hi)
    return sum(_circle_kernel(d, t, 2.0 * hi) for d in images)


# ---------------------------------------------------------------------------
# states and initial data


@dataclass(frozen=True)
class HeatState:
    """Grid snapshot of (u, grad u, Lu) at one time."""

    manifold: ModelManifold
    t: float
    grid: np.ndarray
    u: np.ndarray
    grad_u: np.ndarray
    Lu: np.ndarray
    scheme: str = ""

    def X(self):
        return (self.grad_u / self.u) ** 2

    def Y(self):
        return self.Lu / self.u

    def W(self):
        return self.grad_u**2 / self.u

    def index_of(self, x: float) -> int:
        return int(np.argmin(np.abs(self.grid - x)))

    def mass(self) -> float:
        return _mass(self.manifold, self.grid, self.u)

    def to_csv(self, path) -> None:
        M = self.manifold
        header = (f"family={M.family},m={M.m},n={M.n},t={self.t},"
                  f"scheme={self.scheme},grid_size={self.grid.size}\n"
                  "coord,u,grad_u,Lu")
        data = np.column_stack([self.grid, self.u, self.grad_u, self.Lu])
        np.savetxt(path, data, delimiter=",", header=header, comments="# ")


def _mass(M: ModelManifold, grid, u) -> float:
    """Weighted mass in the quadrature the scheme conserves exactly.

    Circle and the radial flux-form grids: the full-weight rectangle sum
    (the periodic Riemann sum, and the discrete invariant of the flux
    form).  Interval: the trapezoid, which is the zero cosine mode.
    """
    w = M.weight(grid)
    if M.spec.periodic or M.spec.flux_form:
        return float((grid[1] - grid[0]) * math.fsum(u * w))
    return float(np.trapezoid(u * w, grid))


def harnack_quantities(state: HeatState, x: float) -> tuple[float, float, float]:
    """(X, Y, W) = (|grad u|^2/u^2, Lu/u, |grad u|^2/u) at the node nearest x."""
    i = state.index_of(x)
    u = float(state.u[i])
    if u < POSITIVITY_FLOOR:
        raise SolverError(f"u({state.grid[i]}) = {u} below positivity floor")
    return float(state.X()[i]), float(state.Y()[i]), float(state.W()[i])


class Datum(NamedTuple):
    params: dict     # param -> default
    families: tuple  # the families where the datum has a closed form


# The datum catalog: every param a real number, k and index whole ones;
# the flux-form eigen datum lives on the solver grid (InitialDatum.values).
DATA = {
    "constant": Datum({"c": 1.0}, tuple(FAMILIES)),
    "cosine": Datum({"k": 1, "amp": 0.5, "base": 1.0},
                    ("circle", "interval-neumann", "sphere-radial",
                     "hyperbolic-radial")),
    "eigen": Datum({"index": 1, "amp": 0.5, "base": 1.0},
                   ("circle", "interval-neumann")),
    "legendre": Datum({"index": 1, "amp": 0.5, "base": 1.0},
                      ("sphere-radial",)),
    "gaussian": Datum({"amp": 1.0, "width": 0.25, "base": 1.0},
                      ("euclidean-line", "half-line-neumann",
                       "euclidean-radial")),
}


@dataclass(frozen=True)
class InitialDatum:
    """Initial profile from the datum catalog DATA, with every param of its
    id (initial_datum fills in the defaults).

    Analytic ids expose callables; the discrete-eigen data on the curved
    reductions exist only as grid values tied to the solver operator.
    """

    expr: str
    params: dict = field(default_factory=dict)

    def values(self, M: ModelManifold, grid: np.ndarray) -> np.ndarray:
        """u0 sampled on the grid."""
        p = self.params
        if self.expr == "eigen" and M.spec.flux_form:   # on the grid only
            _, vec = radial_eigenpair(M, grid.size, int(p["index"]))
            u0 = float(p["base"]) + float(p["amp"]) * vec
        else:
            u0 = self.callables(M)[0](grid)
        if np.min(u0) < 0.0:
            raise ValueError("initial datum takes negative values")
        return u0

    def callables(self, M: ModelManifold):
        """(u0, u0', u0'') as vectorised callables for analytic ids."""
        p = self.params
        if M.family not in DATA[self.expr].families:
            raise ValueError(f"{self.expr} datum has no closed form on "
                             f"{M.family}")
        if self.expr == "constant":
            c = float(p["c"])
            if c <= 0:
                raise ValueError("constant datum must be positive")
            return (lambda x: np.full_like(np.asarray(x, float), c),
                    lambda x: np.zeros_like(np.asarray(x, float)),
                    lambda x: np.zeros_like(np.asarray(x, float)))
        amp, base = float(p["amp"]), float(p["base"])
        if self.expr in ("cosine", "eigen"):
            w, shift = float(p["k" if self.expr == "cosine" else "index"]), 0.0
            if not M.spec.periodic:   # no-flux fit to the solver grid ends
                lo, hi = M.domain()
                w, shift = w * math.pi / (hi - lo), lo
            if base - abs(amp) < 0:
                raise ValueError("cosine datum must stay nonnegative")
            arg = lambda x: w * (np.asarray(x, float) - shift)
            return (lambda x: base + amp * np.cos(arg(x)),
                    lambda x: -amp * w * np.sin(arg(x)),
                    lambda x: -amp * w * w * np.cos(arg(x)))
        if self.expr == "legendre":
            index, m = int(p["index"]), M.m
            if index == 1:
                # L cos r = -m cos r on the m-sphere
                return (lambda x: base + amp * np.cos(np.asarray(x, float)),
                        lambda x: -amp * np.sin(np.asarray(x, float)),
                        lambda x: -amp * np.cos(np.asarray(x, float)))
            if index == 2:
                # second zonal mode ((m+1) cos^2 r - 1)/m, eigenvalue 2(m+1)
                c = lambda x: np.cos(np.asarray(x, float))
                return (lambda x: base + amp * ((m + 1) * c(x) ** 2 - 1.0) / m,
                        lambda x: -amp * (m + 1)
                        * np.sin(2.0 * np.asarray(x, float)) / m,
                        lambda x: -2.0 * amp * (m + 1)
                        * np.cos(2.0 * np.asarray(x, float)) / m)
            raise ValueError("legendre datum supports index 1 or 2")
        s0 = float(p["width"])   # the gaussian
        if base <= 0 or base + min(amp, 0.0) < 0 or s0 <= 0:
            raise ValueError("gaussian datum must stay nonnegative")
        e = lambda x: np.exp(-np.asarray(x, float) ** 2 / (4.0 * s0))
        return (lambda x: base + amp * e(x),
                lambda x: -amp * np.asarray(x, float) / (2.0 * s0) * e(x),
                lambda x: amp * (np.asarray(x, float) ** 2 / (4.0 * s0**2)
                                 - 1.0 / (2.0 * s0)) * e(x))

    def check(self, M: ModelManifold, size: int | None = None) -> None:
        """Raise as solve_heat would before sampling: no closed form on M
        (the radial grid-only eigen datum aside), a slope at a wall, a k or
        index that is not whole (a cosine fits both ends for whole k), a
        negative index, or a grid-only eigen index not below the grid size
        (the grid of N nodes has the modes 0 to N - 1)."""
        grid_only = self.expr == "eigen" and M.spec.flux_form
        if not grid_only:
            _, du, _ = self.callables(M)
            for pos, _ in M.boundaries():
                if abs(float(du(pos))) > NEUMANN_TOL:
                    raise ValueError(
                        f"initial datum is not Neumann compatible at x={pos}")
        for key in self.params.keys() & {"k", "index"}:
            check_real(self.params[key], f"param {key!r} of datum "
                       f"{self.expr!r}", integral=True)
        index = self.params.get("index", 0)
        if index < 0:
            raise ValueError(f"param 'index' of datum {self.expr!r} must be "
                             f"nonnegative, not {index!r}")
        if grid_only and size is not None and index >= size:
            raise ValueError(f"param 'index' of datum 'eigen' must be below "
                             f"the grid size {size}, not {index!r}")


def initial_datum(expr: str, params: dict | None = None) -> InitialDatum:
    """The datum expr with its defaults filled in; an unknown id, or a
    param it does not read or that is not a real number, raises."""
    if expr not in DATA:
        raise ValueError(f"unknown datum {expr!r}")
    params, defaults = params or {}, DATA[expr].params
    reject_unknown(params, tuple(defaults), f"the params of datum {expr!r}")
    for key, value in params.items():
        check_real(value, f"param {key!r} of datum {expr!r}")
    return InitialDatum(expr=expr, params={**defaults, **params})


# ---------------------------------------------------------------------------
# the discrete generator as three diagonals, and the radial eigenbasis


def _generator(M: ModelManifold, size: int):
    """(grid, dn, dg, up): sub-, main and super-diagonal of L on M.grid(size).

    Sphere / hyperbolic: the flux form w^{-1} (w u')' with no-flux ends.
    Other families: central differences of u'' + (b + Z) u' with the
    ghost-node reflection u(-h) = u(h) at the ends; on the circle dn[0]
    and up[-1] are the periodic corners.  Outside the circle dn[0] and
    up[-1] are 0, so _apply's wrap-around terms vanish.
    """
    grid = M.grid(size)
    h = grid[1] - grid[0]
    if M.spec.flux_form:
        lo, hi = M.domain()
        w = M.weight(grid)
        up = M.weight(np.minimum(grid + 0.5 * h, hi)) / (h * h * w)
        dn = M.weight(np.maximum(grid - 0.5 * h, lo)) / (h * h * w)
        up[-1] = dn[0] = 0.0
        return grid, dn, -(up + dn), up
    b = M.b_total(grid)
    up = 1.0 / h**2 + b / (2.0 * h)
    dn = 1.0 / h**2 - b / (2.0 * h)
    if not M.spec.periodic:
        up[0] = dn[-1] = 2.0 / h**2
        dn[0] = up[-1] = 0.0
    return grid, dn, np.full(grid.size, -2.0 / h**2), up


def _apply(dn, dg, up, u):
    """L u for the three diagonals of _generator, in O(N); u's neighbours
    below and above are taken cyclically, as the circle's corners read
    them."""
    return (dg * u + dn * np.concatenate((u[-1:], u[:-1]))
            + up * np.concatenate((u[1:], u[:1])))


# A mode with lam t > _MODE_CUT is weighted by e^{-lam t} < 2e-22, below
# what a double holds beside the kept modes.  With D = diag(sqrt(w)) and
# |.| the Euclidean norm, dropping every such mode moves D u by at most
# e^{-50} |D u0| and D Lu by at most (50/t) e^{-50} |D u0|.
_MODE_CUT = 50.0
_SECTIONS = 15   # points a multisection sweep puts in every bracket
_BLOCK = 256     # rows of pivots a Sturm count holds at a time


class _Basis:
    """The symmetrisation S = D L D^{-1}, D = diag(d), d = sqrt(w), of the
    flux-form generator L on M.grid(size), with main diagonal dg and
    off-diagonal off (the mean of its two off-diagonals, equal up to
    rounding), and the lowest eigenpairs of -S found so far: mu ascending
    (mu[0] ~ 0 is the constant mode) and V one unit vector a row.  Every
    array is read-only.  The prefix only grows, each time by one call of
    _tridiagonal_modes, whose pairs have the same bits in any batch.
    """

    def __init__(self, M: ModelManifold, size: int):
        grid, dn, dg, up = _generator(M, size)
        d = np.sqrt(M.weight(grid))
        off = 0.5 * (d[:-1] * up[:-1] / d[1:] + d[1:] * dn[1:] / d[:-1])
        self.mu, self.V = np.empty(0), np.empty((0, size))
        for a in (dg, d, off, self.mu, self.V):
            a.flags.writeable = False
        self.dg, self.d, self.off = dg, d, off

    def lowest(self, count: int) -> None:
        """Extend the prefix to the lowest count modes."""
        if count > self.mu.size:
            mu, V = _tridiagonal_modes(-self.dg, -self.off,
                                       np.arange(self.mu.size, count))
            self.mu = np.concatenate((self.mu, mu))
            self.V = np.concatenate((self.V, V))
            self.mu.flags.writeable = self.V.flags.writeable = False

    def below(self, cut: float):
        """(mu, V): the prefix's modes with mu < cut.  A Sturm count runs
        only while every mode of the prefix lies below the cut, and the
        mode past the cut is kept too, so a later, smaller cut is read off
        the prefix."""
        if self.mu.size < self.d.size and (not self.mu.size
                                           or self.mu[-1] < cut):
            count = _sturm_counts(-self.dg, self.off * self.off,
                                  np.array([cut]))[0]
            self.lowest(min(int(count) + 1, self.d.size))
        kept = int(np.searchsorted(self.mu, cut))
        return self.mu[:kept], self.V[:kept]


@functools.lru_cache(maxsize=32)
def _basis(M: ModelManifold, size: int) -> _Basis:
    """The one radial basis of (M, size), shared by every solve and
    radial_eigenpair on that grid."""
    return _Basis(M, size)


def _pivots(a, b2, x, top=None):
    """The pivots of T - x I = L D L^T, top down, one column for each shift
    in x, of the symmetric tridiagonal T with diagonal a and squared
    off-diagonal b2.  Each column reads its own shift only.  top, when
    given, is the pivot row of a[0] that an earlier block of rows ended
    with (_sturm_counts)."""
    q = np.subtract.outer(a, x)
    if top is not None:
        q[0] = top
    # a zero pivot divides to -inf and the next pivot restarts at a - x;
    # IEEE arithmetic keeps the Sturm count right there (Demmel, Dhillon
    # and Ren 1995), so that division, and the overflow of b2 / q at a
    # tiny pivot, are intended
    with np.errstate(divide="ignore", over="ignore"):
        for c, prev, row in zip(b2.tolist(), q, q[1:]):
            row -= c / prev
    return q


def _sturm_counts(a, b2, x):
    """The number of eigenvalues of T below each shift in x: its negative
    pivots (Sylvester's law of inertia).

    The pivots are made _BLOCK rows at a time, each block starting from
    the last pivot row of the one before, so a count holds O(_BLOCK x
    shifts) floats; every pivot has the bits of the full matrix of
    _pivots."""
    q = _pivots(a[:_BLOCK], b2[:_BLOCK - 1], x)
    count = np.count_nonzero(q < 0.0, axis=0)
    for lo in range(_BLOCK, a.size, _BLOCK):   # rows lo - 1 (carried) on
        q = _pivots(a[lo - 1:lo + _BLOCK], b2[lo - 1:lo + _BLOCK - 1], x,
                    q[-1])
        count += np.count_nonzero(q[1:] < 0.0, axis=0)
    return count


def _tridiagonal_modes(a, b, index):
    """(mu, V): the eigenpairs of the given indices (0 the lowest) of the
    symmetric tridiagonal T with diagonal a and off-diagonal b, V one unit
    eigenvector a row.

    Every eigenvalue is bracketed in the Gershgorin interval and the
    bracket is cut at _SECTIONS points a sweep by Sturm counts until it is
    4 eps |T| wide (multisection).  The twisted factorisation of T - lam I
    at its midpoint lam then gives the eigenvector, refined by one step of
    inverse iteration, and its Rayleigh quotient (Dhillon and Parlett
    2004, Lin. Alg. Appl. 387).  Each pair reads its own bracket, column
    and row only, so it has the same bits alone as in any batch.
    """
    b2 = b * b
    radius = np.zeros(a.size)
    radius[1:] += np.abs(b)
    radius[:-1] += np.abs(b)
    span = max(np.max(np.abs(a - radius)), np.max(np.abs(a + radius)))
    tol = 4.0 * np.finfo(float).eps * span
    lo = np.full(index.size, np.min(a - radius) - tol)
    hi = np.full(index.size, np.max(a + radius) + tol)
    frac = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
    while True:
        live = np.flatnonzero(hi - lo > tol)
        if not live.size:
            break
        left, right, j = lo[live, None], hi[live, None], index[live, None]
        points = left + (right - left) * frac
        shifts, where = np.unique(points, return_inverse=True)
        below = _sturm_counts(a, b2, shifts)[where].reshape(points.shape) <= j
        lo[live] = np.where(below, points, left).max(axis=1)
        hi[live] = np.where(~below & (points > lo[live, None]), points,
                            right).min(axis=1)
    lam = lo + 0.5 * (hi - lo)
    mu, V = np.empty(lam.size), np.empty((lam.size, a.size))
    step = max(16, 2**15 // a.size)   # bounds the (size, modes) work arrays
    for j in range(0, lam.size, step):
        mu[j:j + step], V[j:j + step] = _twisted_vectors(a, b, lam[j:j + step])
    return mu, V


def _twisted_vectors(a, b, lam):
    """(mu, V): for each shift lam near an eigenvalue of the tridiagonal
    (b, a, b), one step of inverse iteration from the vector of its
    twisted factorisation, unit vectors one a row.

    T - lam I = N diag(dp<r, gamma_r, dm>r) N^T with N unit and lower
    bidiagonal above the twist r of least |gamma_r|, upper bidiagonal below
    it.  z solves N^T z = e_r, so (T - lam I) z = gamma_r e_r, and x solves
    (T - lam I) x = z by the same factors; mu is x's Rayleigh quotient
    lam + x.z / x.x.  Where gamma_r = 0, z is exact and is kept, with
    mu = lam.  Raises SolverError when a pivot breaks the factorisation
    down."""
    n, cols, b2 = a.size, np.arange(lam.size), b * b
    dp = _pivots(a, b2, lam)   # T - lam I = L diag(dp) L^T
    dm = _pivots(a[::-1], b2[::-1], lam)[::-1]   # = U diag(dm) U^T
    rows = np.arange(n)[:, None]
    # pivots the solves do not read (dp below the twist, dm above it) may
    # be zero or infinite; one that they read makes z or x nonfinite,
    # which raises below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gamma = dp + dm - np.subtract.outer(a, lam)
        r = np.argmin(np.abs(gamma), axis=0)
        exact = gamma[r, cols] == 0.0
        # N's multipliers: b_i / dp_i above r, b_i / dm_{i+1} from r down
        above = rows[:-1] < r
        low = np.where(above, b[:, None] / dp[:-1], 0.0)
        high = np.where(above, 0.0, b[:, None] / dm[1:])
        pivot = np.where(rows < r, dp, dm)
        pivot[r, cols] = np.where(exact, 1.0, gamma[r, cols])
        # z_i = -low_i z_{i+1} above r, z_{i+1} = -high_i z_i below it:
        # cumulative products from r outwards
        z = np.ones((n, lam.size))
        z[:-1] = np.cumprod(np.where(above, -low, 1.0)[::-1], axis=0)[::-1]
        z[1:] *= np.cumprod(np.where(above, 1.0, -high), axis=0)
        # N y = z: sweeps towards r; N^T x = y / pivot: sweeps away from it
        x = z.copy()
        _sweep(x, low)
        _sweep(x[::-1], high[::-1])
        x /= pivot
        _sweep(x[::-1], low[::-1])
        _sweep(x, high)
    # one vector a row, so each sum runs along its own row
    x, z = np.ascontiguousarray(x.T), np.ascontiguousarray(z.T)
    x[exact] = z[exact]
    norm2 = np.sum(x * x, axis=1)
    mu = lam + np.where(exact, 0.0, np.sum(x * z, axis=1) / norm2)
    if not (np.all(np.isfinite(norm2)) and np.all(np.isfinite(mu))):
        raise SolverError("twisted factorisation broke down")
    return mu, x / np.sqrt(norm2)[:, None]


def _sweep(x, mult):
    """x_{i+1} -= mult_i x_i down the rows of x, in place."""
    for m, prev, row in zip(mult, x, x[1:]):
        row -= m * prev


@functools.lru_cache(maxsize=32)
def radial_eigenpair(M: ModelManifold, size: int, index: int):
    """(eigenvalue, eigenfunction values) of the discrete radial generator.

    index 0 is the constant mode, whose eigenvalue is exactly 0 (L 1 = 0;
    the computed one is rounding, as in _radial_spectral), and
    eigenvalues ascend with index; the eigenfunction is scaled to
    max |v| = 1 with v[0] > 0, and is read-only.  An index outside
    [0, size) raises ValueError.
    """
    if not 0 <= index < size:
        raise ValueError(f"the grid of {size} nodes has no mode {index}")
    basis = _basis(M, size)
    if index < basis.mu.size:   # a solve keeps the modes it reads
        mu, vec = basis.mu[index], basis.V[index]
    else:   # alone, with the bits the prefix would give it
        (mu,), (vec,) = _tridiagonal_modes(-basis.dg, -basis.off,
                                           np.array([index]))
    vec = vec / basis.d
    vec = vec / np.max(np.abs(vec))
    if vec[0] < 0:
        vec = -vec
    vec.flags.writeable = False
    return (0.0 if index == 0 else float(mu)), vec


# ---------------------------------------------------------------------------
# solvers


def solve_heat(M: ModelManifold, u0: InitialDatum, t: float,
               grid_size: int | None = None, scheme: str = "spectral") -> HeatState:
    """Propagate u0 to time t and return the state with grad u and Lu.

    The unbounded flat families take the kernel scheme unless
    crank-nicolson-fd is asked for; the exact schemes (spectral, kernel)
    need Z = 0.  Raises SolverError when positivity, the maximum
    principle, or (Z = 0, closed/Neumann domains) mass conservation fail
    beyond solver tolerance.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if scheme not in ("spectral", "crank-nicolson-fd", "kernel"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if grid_size is None:
        grid_size = M.spec.grid_size
    u0.check(M, grid_size)
    if M.spec.kernel and scheme != "crank-nicolson-fd":
        scheme = "kernel"
    elif scheme == "kernel":
        raise ValueError(f"no kernel evolution on {M.family}")
    if scheme != "crank-nicolson-fd" and M.drift_id != "none":
        raise SolverError(f"the {scheme} scheme needs Z = 0; "
                          "use crank-nicolson-fd")
    if scheme == "spectral" and M.spec.flux_form and t > 0:
        # the kept modes before u0: the eigen datum's mode joins their batch
        modes = _basis(M, grid_size).below(_MODE_CUT / t)
    grid = M.grid(grid_size)
    u0v = u0.values(M, grid)

    if scheme == "kernel":
        u, du, Lu = _kernel_evolution(M, u0, t, grid)
    elif scheme == "spectral" and not M.spec.flux_form:
        u, du, Lu = _fourier(M, u0v, t)
    else:
        _, dn, dg, up = _generator(M, grid_size)
        h = grid[1] - grid[0]
        if scheme == "spectral":
            u = _radial_spectral(M, u0v, t, *modes) if t > 0 else u0v
        else:
            u = _crank_nicolson(M, u0v, t, h, dn, dg, up)
        Lu = _apply(dn, dg, up, u)
        if M.spec.periodic:
            du = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * h)
        else:
            du = np.gradient(u, grid, edge_order=2)
    state = HeatState(M, t, grid, u, du, Lu, scheme=scheme)
    _check_state(M, u0v, state)
    return state


def _check_state(M, u0v, state):
    """Positivity, the maximum principle and mass against the samples u0v."""
    grid = state.grid
    if np.min(state.u) <= 0.0 and state.t > 0:
        raise SolverError("positivity lost")
    slack = 1e-9 * (np.max(u0v) - np.min(u0v) + 1.0)
    if (np.max(state.u) > np.max(u0v) + slack
            or np.min(state.u) < np.min(u0v) - slack):
        raise SolverError("maximum principle violated")
    if M.drift_id == "none" and M.spec.compact:   # no kernel scheme there
        m0 = _mass(M, grid, u0v)
        mt = state.mass()
        if abs(mt - m0) > 1e-8 * (1.0 + abs(m0)):
            raise SolverError(f"mass drift {mt - m0}")


def _fourier(M, u0v, t):
    """(u, du, Lu) at t in the Fourier modes of the circle.

    The interval [0, L] is the even half of the circle of length 2L: its
    samples extended evenly have real coefficients (the DCT-I), and the
    sine series of du vanishes at both walls.
    """
    size = u0v.size
    if M.spec.periodic:
        n, k = size, np.fft.rfftfreq(size, d=1.0 / size)
        co = np.fft.rfft(u0v)
    else:
        n, k = 2 * (size - 1), np.arange(size) * math.pi / M.length
        co = np.fft.rfft(np.concatenate((u0v, u0v[-2:0:-1]))).real
    co = co * np.exp(-k**2 * t)
    u, du, Lu = np.fft.irfft([co, 1j * k * co, -k**2 * co], n)[:, :size]
    if not M.spec.periodic:
        du[[0, -1]] = 0.0
    return u, du, Lu


def _radial_spectral(M, u0v, t, mu, V):
    """u0v evolved to t > 0 in the modes (mu, V) that _Basis.below keeps
    at the cut _MODE_CUT / t, one unit vector a row.

    L 1 = 0, so the constant mode d / |d| is stationary and carries the
    weighted mean of u0v exactly.  Its computed eigenpair is rounding, an
    eigenvalue of order eps |S| (1e-10 at N = 2401), not decay, so it is
    skipped.  Every sum runs along the rows or down the columns of the
    modes, in an order fixed by the number of modes.
    """
    d = _basis(M, u0v.size).d
    V = V[1:]
    coef = np.exp(-mu[1:] * t) * np.sum(V * (d * u0v), axis=1)
    w = d * d
    return (np.sum(w * u0v) / np.sum(w)
            + np.sum(coef[:, None] * V, axis=0) / d)


def _crank_nicolson(M, u0v, t, h, dn, dg, up):
    """u0v stepped to t by Crank-Nicolson on the three diagonals of L.

    I - dt/2 L is factored once into Thomas's pivots, and each step solves
    it by two log-depth scans (_tridiagonal_solver); the circle's two
    corners enter by one Sherman-Morrison correction.
    """
    dt = h  # unconditionally stable, second order
    steps = max(int(math.ceil(t / dt)), 1) if t > 0 else 0
    if steps:
        dt = t / steps
    # sub-, main and super-diagonal of I - dt/2 L
    sub, sup = -0.5 * dt * dn[1:], -0.5 * dt * up[:-1]
    main = -0.5 * dt * dg + 1.0
    periodic = M.spec.periodic
    if periodic:
        # corners p = lhs[0, -1], q = lhs[-1, 0] by Sherman-Morrison:
        # lhs = T + s r^T with s = g e_0 + q e_-1, r = e_0 + (p / g) e_-1
        # and T the tridiagonal after the two diagonal edits below
        p, q = -0.5 * dt * dn[0], -0.5 * dt * up[-1]
        g = -main[0]
        main[0] -= g
        main[-1] -= q * p / g
    solve = _tridiagonal_solver(sub, main, sup)   # once for every step
    if periodic:
        s = np.zeros(u0v.size)
        s[0], s[-1] = g, q
        z = solve(s)
        rz = 1.0 + z[0] + p / g * z[-1]
    u = u0v
    for _ in range(steps):
        u = solve(u + 0.5 * dt * _apply(dn, dg, up, u))
        if periodic:
            u -= (u[0] + p / g * u[-1]) / rz * z
    return u


def _tridiagonal_solver(sub, main, sup):
    """solve(rhs) for the tridiagonal matrix (sub, main, sup).

    The matrix is factored once, A = L U with Thomas's pivots, and every
    solve runs the two bidiagonal sweeps as log-depth scans of their
    first-order recurrences (recursive doubling, Stone 1973, J. ACM 20) in
    elementwise numpy.  Raises SolverError unless A is strictly row
    diagonally dominant, which keeps every pivot nonzero and every
    multiplier of both sweeps below 1 in magnitude.  solve overwrites
    rhs.
    """
    off = np.zeros(main.size)
    off[1:] += np.abs(sub)
    off[:-1] += np.abs(sup)
    if not np.all(np.abs(main) > off):
        raise SolverError("Crank-Nicolson matrix is not strictly "
                          "diagonally dominant")
    pivots, lower, upper = main.tolist(), sub.tolist(), sup.tolist()
    mult = [0.0] * main.size
    for i in range(1, main.size):
        mult[i] = lower[i - 1] / pivots[i - 1]
        pivots[i] -= mult[i] * upper[i - 1]
    pivots = np.array(pivots)
    # L y = rhs:  y_i = rhs_i - mult_i y_{i-1}
    # U x = y:    x_i = y_i / pivot_i - (sup_i / pivot_i) x_{i+1}
    forward = _doubling(-np.array(mult))
    backward = _doubling(np.append(-sup / pivots[:-1], 0.0)[::-1])

    def solve(rhs):
        x = _scan(rhs, forward) / pivots
        _scan(x[::-1], backward)
        return x

    return solve


def _doubling(a):
    """[(k, a_k)] for k = 1, 2, 4, ...: the multiplier a_k[i] of x_i on
    x_{i-k} after the levels before k of the recurrence x_i = c_i +
    a_i x_{i-1}, where a[0] is never read."""
    levels, k, a = [], 1, a.copy()
    while k < a.size:
        levels.append((k, a[k:].copy()))
        a[k:] *= a[:-k]
        k *= 2
    return levels


def _scan(c, levels):
    """x_i = c_i + a_i x_{i-1}, x_0 = c_0, in place in c, by the levels of
    _doubling(a)."""
    for k, a in levels:
        c[k:] += a * c[:-k]
    return c


def _kernel_evolution(M, u0, t, grid):
    """(u, du, Lu) at t in closed form on the unbounded flat families.

    The constant datum is stationary; the gaussian datum of width s0
    evolves to the gaussian of width s0 + t, its amp scaled by
    (s0/(s0+t))^{m/2}.  Every other datum has no closed form on these
    families, and its callables raise ValueError.
    """
    if u0.expr == "gaussian":
        s0 = float(u0.params["width"])
        amp = float(u0.params["amp"]) * (s0 / (s0 + t)) ** (M.m / 2.0)
        u0 = InitialDatum("gaussian", dict(u0.params, amp=amp, width=s0 + t))
    u, du, d2u = (f(grid) for f in u0.callables(M))
    return u, du, d2u + M.b(grid) * du


def gaussian_kernel_state(M: ModelManifold, t: float, grid=None) -> HeatState:
    """Centered heat-kernel solution with exact derivative formulas.

    u_t = p_t(., 0) on the line / flat radial family; the saturation
    identity X - Y = n/(2t) holds pointwise for these states.
    """
    if not M.spec.kernel or M.has_boundary:
        raise ValueError("kernel states are for the flat families")
    if t <= 0:
        raise ValueError("t must be positive")
    grid = np.asarray(M.grid(M.spec.grid_size) if grid is None else grid,
                      dtype=float)
    m = M.m
    u = (4.0 * math.pi * t) ** (-m / 2.0) * np.exp(-grid**2 / (4.0 * t))
    du = -grid / (2.0 * t) * u
    Lu = (grid**2 / (4.0 * t**2) - m / (2.0 * t)) * u
    return HeatState(M, t, grid, u, du, Lu, scheme="kernel")
