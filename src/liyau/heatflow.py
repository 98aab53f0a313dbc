"""Neumann heat semigroup on the model geometries.

Schemes:

  * "spectral": exact-in-time evolution in an eigenbasis.  Fourier modes
    on the circle, cosine modes on the interval, and the eigenvectors of
    the discrete weighted generator on the sphere / hyperbolic radial
    reductions (no-flux at the coordinate poles).
  * "crank-nicolson-fd": second-order theta stepping of the same
    finite-difference operator, dt = h.
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
from scipy import linalg

from . import geometry
from .geometry import ModelManifold
from .numerics import SolverError

POSITIVITY_FLOOR = 1e-12

_KERNEL_FAMILIES = (geometry.EUCLIDEAN_LINE, geometry.EUCLIDEAN_RADIAL,
                    geometry.CIRCLE, geometry.HALF_LINE, geometry.INTERVAL)


# ---------------------------------------------------------------------------
# exact kernels


def _gauss(d, t):
    d = np.asarray(d, dtype=float)
    return (4.0 * math.pi * t) ** -0.5 * np.exp(-d * d / (4.0 * t))


def _circle_kernel_wrapped(theta, t):
    terms = int(math.ceil((math.sqrt(340.0 * t) + abs(float(theta)))
                          / (2.0 * math.pi))) + 1
    j = np.arange(-terms, terms + 1)
    return float(np.sum(_gauss(theta + 2.0 * math.pi * j, t)))


def _circle_kernel_spectral(theta, t):
    kmax = int(math.ceil(math.sqrt(40.0 / t))) + 2
    k = np.arange(1, kmax + 1)
    return float((1.0 + 2.0 * np.sum(np.exp(-k * k * t) * np.cos(k * theta)))
                 / (2.0 * math.pi))


def _interval_kernel_images(x, y, t, L):
    terms = int(math.ceil((math.sqrt(340.0 * t) + 2.0 * L) / (2.0 * L))) + 1
    j = np.arange(-terms, terms + 1)
    return float(np.sum(_gauss(x - y + 2.0 * L * j, t))
                 + np.sum(_gauss(x + y + 2.0 * L * j, t)))


def _interval_kernel_spectral(x, y, t, L):
    kmax = int(math.ceil(math.sqrt(40.0 / t) * L / math.pi)) + 2
    k = np.arange(1, kmax + 1)
    lam = (k * math.pi / L) ** 2
    return float((1.0 + 2.0 * np.sum(np.exp(-lam * t)
                                     * np.cos(k * math.pi * x / L)
                                     * np.cos(k * math.pi * y / L))) / L)


def exact_kernel(M: ModelManifold, t: float, x: float, y: float) -> float:
    """Transition density p_t(x, y) of the flat-family semigroups.

    Gaussian on the line, centered radial Gaussian for the flat radial
    coordinate (y must be 0 there), wrapped Gaussian / theta sum on the
    circle, and reflection-principle image sums on the half line and the
    Neumann interval.  Sphere and hyperbolic space have no elementary
    kernel here; use solve_heat.
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
        d = (x - y) % (2.0 * math.pi)
        if t < 0.5:
            return _circle_kernel_wrapped(d, t)
        return _circle_kernel_spectral(d, t)
    if fam == geometry.HALF_LINE:
        return float(_gauss(x - y, t) + _gauss(x + y, t))
    if fam == geometry.INTERVAL:
        if t < 0.3 * (M.length / math.pi) ** 2:
            return _interval_kernel_images(x, y, t, M.length)
        return _interval_kernel_spectral(x, y, t, M.length)
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

    Circle: the periodic Riemann sum.  Radial flux-form grids: the
    full-weight rectangle sum (the discrete invariant of the operator).
    Interval: the trapezoid, which is the zero cosine mode.
    """
    w = M.weight(grid)
    h = grid[1] - grid[0]
    if M.family == geometry.CIRCLE:
        return float(h * math.fsum(u * w))
    if M.family in (geometry.SPHERE, geometry.HYPERBOLIC):
        return float(h * math.fsum(u * w))
    return float(np.trapezoid(u * w, grid))


def harnack_quantities(state: HeatState, x: float) -> tuple[float, float, float]:
    """(X, Y, W) = (|grad u|^2/u^2, Lu/u, |grad u|^2/u) at the node nearest x."""
    i = state.index_of(x)
    u = float(state.u[i])
    if u < POSITIVITY_FLOOR:
        raise SolverError(f"u({state.grid[i]}) = {u} below positivity floor")
    g = float(state.grad_u[i])
    return (g / u) ** 2, float(state.Lu[i]) / u, g * g / u


@dataclass(frozen=True)
class InitialDatum:
    """Initial profile from the expression catalog.

    ids: "constant" {c}, "cosine" {k, amp, base}, "eigen" {index, amp},
    "gaussian" {amp, width, base}.  Analytic ids expose callables; the
    discrete-eigen data on the curved reductions exist only as grid
    values tied to the solver operator.
    """

    expr: str
    params: dict = field(default_factory=dict)
    floor: float = 0.0

    def values(self, M: ModelManifold, grid: np.ndarray):
        """(u0, du0, Lu0) sampled on the grid."""
        if self.expr == "eigen" and M.family in (geometry.SPHERE,
                                                 geometry.HYPERBOLIC):
            lam, vec = radial_eigenpair(M, grid.size, int(self.params["index"]))
            amp = float(self.params.get("amp", 0.5))
            u0 = 1.0 + amp * vec
            op = _radial_operator(M, grid.size)
            Lu0 = op.A @ u0
            du0 = op.D1 @ u0
            self._check_positive(u0)
            return u0, du0, Lu0
        u, du, d2u = self.callables(M)
        u0 = u(grid)
        self._check_positive(u0)
        return u0, du(grid), d2u(grid) + M.b_total(grid) * du(grid)

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
            elif self.expr == "cosine" and M.family in (geometry.SPHERE,
                                                        geometry.HYPERBOLIC):
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
            if M.family not in (geometry.EUCLIDEAN_LINE, geometry.HALF_LINE,
                                geometry.EUCLIDEAN_RADIAL):
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

    def _check_positive(self, u0):
        if np.min(u0) < self.floor or np.min(u0) < 0.0:
            raise ValueError("initial datum violates the positivity floor")

    def check_neumann(self, M: ModelManifold, tol: float = 1e-8) -> None:
        """Reject data whose normal derivative does not vanish at walls."""
        if not M.has_boundary:
            return
        _, du, _ = self.callables(M)
        for pos, _ in M.boundaries():
            if abs(float(du(pos))) > tol:
                raise ValueError(
                    f"initial datum is not Neumann compatible at x={pos}")


def initial_datum(expr: str, params: dict | None = None) -> InitialDatum:
    return InitialDatum(expr=expr, params=dict(params or {}))


# ---------------------------------------------------------------------------
# discrete radial operator (sphere / hyperbolic) and its eigenbasis


class _RadialOperator:
    """Flux-form discretisation of w^{-1} (w u')' with no-flux ends."""

    def __init__(self, M: ModelManifold, size: int):
        lo, hi, _ = M.domain()
        grid = np.linspace(lo, hi, size)
        h = grid[1] - grid[0]
        w = M.weight(grid)
        wp = M.weight(np.minimum(grid + 0.5 * h, hi))
        wm = M.weight(np.maximum(grid - 0.5 * h, lo))
        A = np.zeros((size, size))
        idx = np.arange(size)
        up = np.zeros(size)
        dn = np.zeros(size)
        up[:-1] = wp[:-1] / (h * h * w[:-1])
        dn[1:] = wm[1:] / (h * h * w[1:])
        A[idx[:-1], idx[:-1] + 1] = up[:-1]
        A[idx[1:], idx[1:] - 1] = dn[1:]
        A[idx, idx] = -(up + dn)
        self.grid, self.h, self.w, self.A = grid, h, w, A
        # first-derivative matrix: central interior, one-sided ends
        D1 = np.zeros((size, size))
        D1[idx[1:-1], idx[1:-1] + 1] = 1.0 / (2.0 * h)
        D1[idx[1:-1], idx[1:-1] - 1] = -1.0 / (2.0 * h)
        D1[0, :3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
        D1[-1, -3:] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
        self.D1 = D1
        # symmetrised eigenbasis: S = D A D^{-1} with D = diag(sqrt(w))
        d = np.sqrt(w)
        S = (A * d[:, None]) / d[None, :]
        S = 0.5 * (S + S.T)
        lam, V = linalg.eigh(S)
        order = np.argsort(-lam)  # descending: lam[0] ~ 0 (constant mode)
        self.lam = lam[order]
        self.V = V[:, order]
        self.d = d

    def evolve(self, u0: np.ndarray, t: float) -> np.ndarray:
        coef = self.V.T @ (self.d * u0)
        return (self.V @ (np.exp(self.lam * t) * coef)) / self.d

    def eigenfunction(self, index: int) -> tuple[float, np.ndarray]:
        vec = self.V[:, index] / self.d
        vec = vec / np.max(np.abs(vec))
        if vec[0] < 0:
            vec = -vec
        return float(-self.lam[index]), vec


@functools.lru_cache(maxsize=32)
def _radial_operator_cached(key, size):
    M = ModelManifold(*key[:5], drift_id=key[5], length=key[6], rmax=key[7],
                      pole_cut=key[8])
    return _RadialOperator(M, size)


def _radial_operator(M: ModelManifold, size: int) -> _RadialOperator:
    if M.drift_id != "none":
        raise SolverError("radial eigen solver supports Z = 0 only")
    return _radial_operator_cached(M.key(), size)


def radial_eigenpair(M: ModelManifold, size: int, index: int):
    """(eigenvalue, eigenfunction values) of the discrete radial generator."""
    return _radial_operator(M, size).eigenfunction(index)


# ---------------------------------------------------------------------------
# solvers


def _default_grid_size(M: ModelManifold) -> int:
    return {geometry.CIRCLE: 256, geometry.INTERVAL: 257}.get(M.family, 401)


def solve_heat(M: ModelManifold, u0: InitialDatum, t: float,
               grid_size: int | None = None, scheme: str = "spectral") -> HeatState:
    """Propagate u0 to time t and return the state with grad u and Lu.

    Raises SolverError when positivity, the maximum principle, or (Z = 0,
    closed/Neumann domains) mass conservation fail beyond solver tolerance.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if scheme not in ("spectral", "crank-nicolson-fd", "kernel"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if grid_size is None:
        grid_size = _default_grid_size(M)
    if M.has_boundary:
        u0.check_neumann(M)

    fam = M.family
    unbounded_flat = fam in (geometry.EUCLIDEAN_LINE, geometry.HALF_LINE,
                             geometry.EUCLIDEAN_RADIAL)
    if unbounded_flat and scheme != "crank-nicolson-fd":
        if M.drift_id != "none":
            raise SolverError("the kernel scheme needs Z = 0; "
                              "use crank-nicolson-fd on a truncated grid")
        state = _solve_kernel(M, u0, t, grid_size)
    elif scheme == "kernel":
        raise ValueError(f"no kernel evolution on {fam}")
    elif fam == geometry.CIRCLE and scheme == "spectral":
        state = _solve_circle_spectral(M, u0, t, grid_size)
    elif fam == geometry.INTERVAL and scheme == "spectral":
        state = _solve_interval_spectral(M, u0, t, grid_size)
    elif fam in (geometry.SPHERE, geometry.HYPERBOLIC) and scheme == "spectral":
        state = _solve_radial_eigen(M, u0, t, grid_size)
    elif scheme == "crank-nicolson-fd":
        state = _solve_crank_nicolson(M, u0, t, grid_size)
    else:
        raise ValueError(f"scheme {scheme!r} unavailable on {fam}")

    _check_state(M, u0, state)
    return state


def _check_state(M, u0, state):
    grid = state.grid
    u0v, _, _ = u0.values(M, grid)
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


def _solve_circle_spectral(M, u0, t, size):
    grid = M.grid(size)
    u0v, _, _ = u0.values(M, grid)
    if M.drift_id != "none":
        raise SolverError("spectral circle solver supports Z = 0 only")
    freq = np.fft.rfftfreq(size, d=1.0 / size)  # integer wave numbers
    co = np.fft.rfft(u0v) * np.exp(-freq**2 * t)
    u = np.fft.irfft(co, n=size)
    du = np.fft.irfft(1j * freq * co, n=size)
    Lu = np.fft.irfft(-(freq**2) * co, n=size)
    return HeatState(M, t, grid, u, du, Lu, scheme="spectral")


def _solve_interval_spectral(M, u0, t, size):
    grid = M.grid(size)
    u0v, _, _ = u0.values(M, grid)
    if M.drift_id != "none":
        raise SolverError("spectral interval solver supports Z = 0 only; "
                          "use crank-nicolson-fd")
    N = size - 1
    L = M.length
    from scipy.fft import dct
    co = dct(u0v, type=1) / N  # a_k with half-weight ends
    a = co.copy()
    a[0] *= 0.5
    a[N] *= 0.5
    k = np.arange(size)
    lam = (k * math.pi / L) ** 2
    at = a * np.exp(-lam * t)
    kx = np.outer(grid, k * math.pi / L)
    cos_m, sin_m = np.cos(kx), np.sin(kx)
    u = cos_m @ at
    du = sin_m @ (-(k * math.pi / L) * at)
    Lu = cos_m @ (-lam * at)
    return HeatState(M, t, grid, u, du, Lu, scheme="spectral")


def _solve_radial_eigen(M, u0, t, size):
    op = _radial_operator(M, size)
    u0v, _, _ = u0.values(M, op.grid)
    u = op.evolve(u0v, t)
    Lu = op.A @ u
    du = op.D1 @ u
    return HeatState(M, t, op.grid, u, du, Lu, scheme="spectral")


def _fd_operator(M, size):
    """Dense generator matrix for the CN scheme on any gridded family."""
    fam = M.family
    if fam in (geometry.SPHERE, geometry.HYPERBOLIC):
        return _radial_operator(M, size).grid, _radial_operator(M, size).A
    grid = M.grid(size)
    h = grid[1] - grid[0]
    n = grid.size
    A = np.zeros((n, n))
    idx = np.arange(n)
    A[idx, idx] = -2.0 / h**2
    A[idx[:-1], idx[:-1] + 1] = 1.0 / h**2
    A[idx[1:], idx[1:] - 1] = 1.0 / h**2
    b = M.b_total(grid)
    A[idx[1:-1], idx[1:-1] + 1] += b[1:-1] / (2.0 * h)
    A[idx[1:-1], idx[1:-1] - 1] -= b[1:-1] / (2.0 * h)
    if fam == geometry.CIRCLE:
        A[0, -1] = 1.0 / h**2 - b[0] / (2.0 * h)
        A[0, 1] = 1.0 / h**2 + b[0] / (2.0 * h)
        A[-1, 0] = 1.0 / h**2 + b[-1] / (2.0 * h)
        A[-1, -2] = 1.0 / h**2 - b[-1] / (2.0 * h)
    else:
        # ghost-node even reflection: u(-h) = u(h)
        A[0, 1] = 2.0 / h**2
        A[-1, -2] = 2.0 / h**2
    return grid, A


def _solve_crank_nicolson(M, u0, t, size):
    grid, A = _fd_operator(M, size)
    h = grid[1] - grid[0]
    u0v, _, _ = u0.values(M, grid)
    dt = h  # unconditionally stable, second order
    steps = max(int(math.ceil(t / dt)), 1) if t > 0 else 0
    if steps:
        dt = t / steps
    eye = np.identity(grid.size)
    lhs = eye - 0.5 * dt * A
    rhs = eye + 0.5 * dt * A
    lu_piv = linalg.lu_factor(lhs)
    u = u0v.copy()
    for _ in range(steps):
        u = linalg.lu_solve(lu_piv, rhs @ u)
    Lu = A @ u
    du = np.gradient(u, grid, edge_order=2)
    if M.family == geometry.CIRCLE:
        du = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * h)
    return HeatState(M, t, grid, u, du, Lu, scheme="crank-nicolson-fd")


def _solve_kernel(M, u0, t, size):
    """Closed-form evolution on the unbounded flat families.

    Only the constant and gaussian data have one; every other datum
    raises ValueError.
    """
    grid = M.grid(size)
    fam = M.family
    p = u0.params
    if u0.expr == "constant":
        c = float(p.get("c", 1.0))
        z = np.zeros_like(grid)
        return HeatState(M, t, grid, np.full_like(grid, c), z, z, scheme="kernel")
    if u0.expr == "gaussian":
        # closed form: e^{-x^2/4 s0} evolves to sqrt(s0/(s0+t)) e^{-x^2/4(s0+t)}
        amp = float(p.get("amp", 1.0))
        s0 = float(p.get("width", 0.25))
        base = float(p.get("base", 1.0))
        st = s0 + t
        scale = (s0 / st) ** (M.m / 2.0)
        e = np.exp(-grid**2 / (4.0 * st))
        u = base + amp * scale * e
        du = -amp * scale * grid / (2.0 * st) * e
        d2u = amp * scale * (grid**2 / (4.0 * st**2) - 1.0 / (2.0 * st)) * e
        Lu = d2u + M.b(grid) * du
        if fam == geometry.EUCLIDEAN_RADIAL:
            Lu = amp * scale * (grid**2 / (4.0 * st**2) - M.m / (2.0 * st)) * e
        return HeatState(M, t, grid, u, du, Lu, scheme="kernel")
    # as in InitialDatum.callables: no other datum has one on these families
    raise ValueError(f"{u0.expr} datum has no closed form on {fam}")


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
        grid = M.grid(_default_grid_size(M))
    grid = np.asarray(grid, dtype=float)
    m = M.m
    u = (4.0 * math.pi * t) ** (-m / 2.0) * np.exp(-grid**2 / (4.0 * t))
    du = -grid / (2.0 * t) * u
    Lu = (grid**2 / (4.0 * t**2) - m / (2.0 * t)) * u
    return HeatState(M, t, grid, u, du, Lu, scheme="kernel")
