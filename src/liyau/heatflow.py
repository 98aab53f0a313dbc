"""Neumann heat semigroup on the model geometries.

Every gridded family has one discrete generator L, held as its three
diagonals (_generator): the flux form w^{-1} (w u')' on the sphere /
hyperbolic radial reductions (no-flux at the coordinate poles), central
differences with ghost-node walls elsewhere, periodic on the circle.

Schemes:

  * "spectral": exact-in-time evolution in an eigenbasis.  Fourier modes
    on the circle and on the interval, which is the even half of the
    circle of length 2L (its DCT-I is numpy's real FFT of the even
    extension: it loads no scipy), and on the
    sphere / hyperbolic radial reductions the eigenvectors of the
    symmetrised tridiagonal L with lam t <= 50 only, computed per solve
    (_MODE_CUT): every dropped mode is weighted by e^{-lam t} < 2e-22.
  * "crank-nicolson-fd": second-order theta stepping of L, dt = h, with
    I - dt/2 L factored once and a tridiagonal solve per step; the
    circle's two corners enter by one Sherman-Morrison correction.
  * "kernel": closed-form evolution of the constant and gaussian data
    on the unbounded flat families (line, half line, flat radial).

Every solve enforces positivity, the maximum principle, and (for Z = 0)
conservation of the weighted mass, and raises SolverError on violation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import ModelManifold
from .numerics import SolverError

POSITIVITY_FLOOR = 1e-12
NEUMANN_TOL = 1e-8  # |u0'| allowed at a reflecting wall

# the radial reductions solved in the flux form, and the unbounded flat
# families the kernel scheme evolves in closed form
_FLUX_FORM = (geometry.SPHERE, geometry.HYPERBOLIC)
_UNBOUNDED_FLAT = (geometry.EUCLIDEAN_LINE, geometry.HALF_LINE,
                   geometry.EUCLIDEAN_RADIAL)


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
    fam = M.family
    if fam == geometry.EUCLIDEAN_LINE:
        return float(_gauss(x - y, t))
    if fam == geometry.EUCLIDEAN_RADIAL:
        if y != 0.0:
            raise ValueError("flat radial kernel is centered: y must be 0")
        return float((4.0 * math.pi * t) ** (-M.m / 2.0)
                     * math.exp(-x * x / (4.0 * t)))
    if fam == geometry.CIRCLE:
        return _circle_kernel((x - y) % (2.0 * math.pi), t, 2.0 * math.pi)
    if fam == geometry.HALF_LINE:
        return float(_gauss(x - y, t) + _gauss(x + y, t))
    if fam == geometry.INTERVAL:
        period = 2.0 * M.length
        return (_circle_kernel(x - y, t, period)
                + _circle_kernel(x + y, t, period))
    raise ValueError(f"no exact kernel for {fam}; use solve_heat")


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
        i = int(np.argmin(np.abs(self.grid - x)))
        return i

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
    if M.family == geometry.CIRCLE or M.family in _FLUX_FORM:
        return float((grid[1] - grid[0]) * math.fsum(u * w))
    return float(np.trapezoid(u * w, grid))


def harnack_quantities(state: HeatState, x: float) -> tuple[float, float, float]:
    """(X, Y, W) = (|grad u|^2/u^2, Lu/u, |grad u|^2/u) at the node nearest x."""
    i = state.index_of(x)
    u = float(state.u[i])
    if u < POSITIVITY_FLOOR:
        raise SolverError(f"u({state.grid[i]}) = {u} below positivity floor")
    return float(state.X()[i]), float(state.Y()[i]), float(state.W()[i])


# every datum id and the params it reads
DATUM_PARAMS = {"constant": ("c",), "cosine": ("k", "index", "amp", "base"),
                "eigen": ("k", "index", "amp", "base"),
                "legendre": ("index", "amp", "base"),
                "gaussian": ("amp", "width", "base")}


@dataclass(frozen=True)
class InitialDatum:
    """Initial profile from the expression catalog (ids and params in
    DATUM_PARAMS).

    Analytic ids expose callables; the discrete-eigen data on the curved
    reductions exist only as grid values tied to the solver operator.
    """

    expr: str
    params: dict = field(default_factory=dict)

    def values(self, M: ModelManifold, grid: np.ndarray) -> np.ndarray:
        """u0 sampled on the grid."""
        if self.expr == "eigen" and M.family in _FLUX_FORM:
            _, vec = radial_eigenpair(M, grid.size, int(self.params["index"]))
            u0 = 1.0 + float(self.params.get("amp", 0.5)) * vec
        else:
            u0 = self.callables(M)[0](grid)
        if np.min(u0) < 0.0:
            raise ValueError("initial datum takes negative values")
        return u0

    def callables(self, M: ModelManifold):
        """(u0, u0', u0'') as vectorised callables for analytic ids."""
        p = self.params
        if self.expr == "constant":
            c = float(p.get("c", 1.0))
            if c <= 0:
                raise ValueError("constant datum must be positive")
            return (lambda x: np.full_like(np.asarray(x, float), c),
                    lambda x: np.zeros_like(np.asarray(x, float)),
                    lambda x: np.zeros_like(np.asarray(x, float)))
        if self.expr in ("cosine", "eigen"):
            shift = 0.0
            if M.family == geometry.CIRCLE:
                w = float(p.get("k", p.get("index", 1)))
            elif M.family == geometry.INTERVAL:
                w = float(p.get("k", p.get("index", 1))) * math.pi / M.length
            elif self.expr == "cosine" and M.family in _FLUX_FORM:
                lo, hi, _ = M.domain()  # no-flux fit to the solver grid ends
                w = float(p.get("k", 1)) * math.pi / (hi - lo)
                shift = lo
            else:
                raise ValueError(f"{self.expr} datum has no closed form on "
                                 f"{M.family}")
            amp = float(p.get("amp", 0.5))
            base = float(p.get("base", 1.0))
            if base - abs(amp) < 0:
                raise ValueError("cosine datum must stay nonnegative")
            arg = lambda x: w * (np.asarray(x, float) - shift)
            return (lambda x: base + amp * np.cos(arg(x)),
                    lambda x: -amp * w * np.sin(arg(x)),
                    lambda x: -amp * w * w * np.cos(arg(x)))
        if self.expr == "legendre":
            if M.family != geometry.SPHERE:
                raise ValueError("legendre datum lives on the round sphere")
            index = int(p.get("index", 1))
            amp = float(p.get("amp", 0.5))
            base = float(p.get("base", 1.0))
            m = M.m
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
        if self.expr == "gaussian":
            if M.family not in _UNBOUNDED_FLAT:
                raise ValueError("gaussian datum lives on the flat families")
            amp = float(p.get("amp", 1.0))
            s0 = float(p.get("width", 0.25))
            base = float(p.get("base", 1.0))
            if base <= 0 or base + min(amp, 0.0) < 0 or s0 <= 0:
                raise ValueError("gaussian datum must stay nonnegative")
            e = lambda x: np.exp(-np.asarray(x, float) ** 2 / (4.0 * s0))
            return (lambda x: base + amp * e(x),
                    lambda x: -amp * np.asarray(x, float) / (2.0 * s0) * e(x),
                    lambda x: amp * (np.asarray(x, float) ** 2 / (4.0 * s0**2)
                                     - 1.0 / (2.0 * s0)) * e(x))
        raise ValueError(f"unknown datum {self.expr!r}")

    def check_neumann(self, M: ModelManifold) -> None:
        """Reject data whose normal derivative does not vanish at walls."""
        if not M.has_boundary:
            return
        _, du, _ = self.callables(M)
        for pos, _ in M.boundaries():
            if abs(float(du(pos))) > NEUMANN_TOL:
                raise ValueError(
                    f"initial datum is not Neumann compatible at x={pos}")


def initial_datum(expr: str, params: dict | None = None) -> InitialDatum:
    return InitialDatum(expr=expr, params=dict(params or {}))


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
    if M.family in _FLUX_FORM:
        lo, hi, _ = M.domain()
        w = M.weight(grid)
        up = M.weight(np.minimum(grid + 0.5 * h, hi)) / (h * h * w)
        dn = M.weight(np.maximum(grid - 0.5 * h, lo)) / (h * h * w)
        up[-1] = dn[0] = 0.0
        return grid, dn, -(up + dn), up
    b = M.b_total(grid)
    up = 1.0 / h**2 + b / (2.0 * h)
    dn = 1.0 / h**2 - b / (2.0 * h)
    if M.family != geometry.CIRCLE:
        up[0] = dn[-1] = 2.0 / h**2
        dn[0] = up[-1] = 0.0
    return grid, dn, np.full(grid.size, -2.0 / h**2), up


def _apply(dn, dg, up, u):
    """L u for the three diagonals of _generator, in O(N)."""
    return dg * u + dn * np.roll(u, 1) + up * np.roll(u, -1)


# A mode with lam t > _MODE_CUT is weighted by e^{-lam t} < 2e-22, below
# what a double holds beside the kept modes.  With D = diag(sqrt(w)) and
# |.| the Euclidean norm, dropping every such mode moves D u by at most
# e^{-50} |D u0| and D Lu by at most (50/t) e^{-50} |D u0|.
_MODE_CUT = 50.0


@functools.lru_cache(maxsize=32)
def _radial_symmetric(M: ModelManifold, size: int):
    """(grid, dn, dg, up, d, off): the flux-form generator on M.grid(size)
    and its symmetrisation S = D L D^{-1}, D = diag(d), d = sqrt(w).

    S has main diagonal dg and off-diagonal off; it is symmetric up to
    rounding, and off is taken as the mean of its two off-diagonals.  All
    six arrays are O(N) and read-only.
    """
    grid, dn, dg, up = _generator(M, size)
    d = np.sqrt(M.weight(grid))
    off = 0.5 * (d[:-1] * up[:-1] / d[1:] + d[1:] * dn[1:] / d[:-1])
    arrays = (grid, dn, dg, up, d, off)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _radial_modes(M: ModelManifold, size: int, select: str, select_range):
    """(mu, V): eigenpairs of -S by scipy's select / select_range.

    mu ascends (mu[0] ~ 0 is the constant mode) and the columns of V are
    orthonormal; only the selected columns are computed.
    """
    from scipy import linalg  # on first use: spectral interval runs load none

    _, _, dg, _, _, off = _radial_symmetric(M, size)
    return linalg.eigh_tridiagonal(-dg, -off, select=select,
                                   select_range=select_range)


@functools.lru_cache(maxsize=32)
def radial_eigenpair(M: ModelManifold, size: int, index: int):
    """(eigenvalue, eigenfunction values) of the discrete radial generator.

    index 0 is the constant mode, whose eigenvalue is exactly 0 (L 1 = 0;
    the computed one is rounding, as in _radial_spectral), and
    eigenvalues ascend with index; the eigenfunction is scaled to
    max |v| = 1 with v[0] > 0, and is read-only.
    """
    mu, V = _radial_modes(M, size, "i", (index, index))
    vec = V[:, 0] / _radial_symmetric(M, size)[4]
    vec = vec / np.max(np.abs(vec))
    if vec[0] < 0:
        vec = -vec
    vec.flags.writeable = False
    return (0.0 if index == 0 else float(mu[0])), vec


# ---------------------------------------------------------------------------
# solvers


def default_grid_size(M: ModelManifold) -> int:
    """The grid size solve_heat takes when it is given none."""
    return {geometry.CIRCLE: 256, geometry.INTERVAL: 257}.get(M.family, 401)


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
        grid_size = default_grid_size(M)
    u0.check_neumann(M)
    grid = M.grid(grid_size)
    u0v = u0.values(M, grid)

    fam = M.family
    if fam in _UNBOUNDED_FLAT and scheme != "crank-nicolson-fd":
        scheme = "kernel"
    elif scheme == "kernel":
        raise ValueError(f"no kernel evolution on {fam}")
    if scheme != "crank-nicolson-fd" and M.drift_id != "none":
        raise SolverError(f"the {scheme} scheme needs Z = 0; "
                          "use crank-nicolson-fd")

    if scheme == "kernel":
        u, du, Lu = _kernel_evolution(M, u0, t, grid)
    elif scheme == "spectral" and fam not in _FLUX_FORM:
        u, du, Lu = _fourier(M, u0v, t)
    else:
        _, dn, dg, up = _generator(M, grid_size)
        h = grid[1] - grid[0]
        if scheme == "spectral":
            u = _radial_spectral(M, u0v, t)
        else:
            u = _crank_nicolson(M, u0v, t, h, dn, dg, up)
        Lu = _apply(dn, dg, up, u)
        if fam == geometry.CIRCLE:
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
    if M.drift_id == "none" and M.is_compact_grid and state.scheme != "kernel":
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
    if M.family == geometry.CIRCLE:
        n, k = size, np.fft.rfftfreq(size, d=1.0 / size)
        co = np.fft.rfft(u0v)
    else:
        n, k = 2 * (size - 1), np.arange(size) * math.pi / M.length
        co = np.fft.rfft(np.concatenate((u0v, u0v[-2:0:-1]))).real
    co = co * np.exp(-k**2 * t)
    u, du, Lu = np.fft.irfft([co, 1j * k * co, -k**2 * co], n)[:, :size]
    if M.family == geometry.INTERVAL:
        du[[0, -1]] = 0.0
    return u, du, Lu


def _radial_spectral(M, u0v, t):
    """u0v evolved in the modes with lam t <= _MODE_CUT (all at t = 0)."""
    d = _radial_symmetric(M, u0v.size)[4]
    mu, V = _radial_modes(M, u0v.size, "v",
                          (-np.inf, _MODE_CUT / t if t > 0 else np.inf))
    # L 1 = 0, so the constant mode is stationary: its computed eigenvalue
    # is rounding of order eps |S| (1e-10 at N = 2401), not decay
    mu[0] = 0.0
    return (V @ (np.exp(-mu * t) * (V.T @ (d * u0v)))) / d


def _crank_nicolson(M, u0v, t, h, dn, dg, up):
    """u0v stepped to t by Crank-Nicolson on the three diagonals of L."""
    from scipy.linalg import lapack  # on first use, as in _radial_modes

    dt = h  # unconditionally stable, second order
    steps = max(int(math.ceil(t / dt)), 1) if t > 0 else 0
    if steps:
        dt = t / steps
    # sub-, main and super-diagonal of I - dt/2 L
    sub, sup = -0.5 * dt * dn[1:], -0.5 * dt * up[:-1]
    main = -0.5 * dt * dg + 1.0
    periodic = M.family == geometry.CIRCLE
    if periodic:
        # corners p = lhs[0, -1], q = lhs[-1, 0] by Sherman-Morrison:
        # lhs = T + s r^T with s = g e_0 + q e_-1, r = e_0 + (p / g) e_-1
        # and T the tridiagonal after the two diagonal edits below
        p, q = -0.5 * dt * dn[0], -0.5 * dt * up[-1]
        g = -main[0]
        main[0] -= g
        main[-1] -= q * p / g
    *factors, info = lapack.dgttrf(sub, main, sup)  # once for every step
    if info:
        raise SolverError("singular Crank-Nicolson matrix")

    def solve(b):
        return lapack.dgttrs(*factors, b)[0]

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


def _kernel_evolution(M, u0, t, grid):
    """(u, du, Lu) at t in closed form on the unbounded flat families.

    The constant datum is stationary; the gaussian datum of width s0
    evolves to the gaussian of width s0 + t, its amp scaled by
    (s0/(s0+t))^{m/2}.  Every other datum has no closed form on these
    families, and its callables raise ValueError.
    """
    if u0.expr == "gaussian":
        s0 = float(u0.params.get("width", 0.25))
        amp = float(u0.params.get("amp", 1.0)) * (s0 / (s0 + t)) ** (M.m / 2.0)
        u0 = initial_datum("gaussian", dict(u0.params, amp=amp, width=s0 + t))
    u, du, d2u = (f(grid) for f in u0.callables(M))
    return u, du, d2u + M.b(grid) * du


def gaussian_kernel_state(M: ModelManifold, t: float, grid=None) -> HeatState:
    """Centered heat-kernel solution with exact derivative formulas.

    u_t = p_t(., 0) on the line / flat radial family; the saturation
    identity X - Y = n/(2t) holds pointwise for these states.
    """
    if M.family not in (geometry.EUCLIDEAN_LINE, geometry.EUCLIDEAN_RADIAL):
        raise ValueError("kernel states are for the flat families")
    if t <= 0:
        raise ValueError("t must be positive")
    if grid is None:
        grid = M.grid(default_grid_size(M))
    grid = np.asarray(grid, dtype=float)
    m = M.m
    u = (4.0 * math.pi * t) ** (-m / 2.0) * np.exp(-grid**2 / (4.0 * t))
    du = -grid / (2.0 * t) * u
    Lu = (grid**2 / (4.0 * t**2) - m / (2.0 * t)) * u
    return HeatState(M, t, grid, u, du, Lu, scheme="kernel")
