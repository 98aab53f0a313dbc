"""Reflected diffusions on the model geometries and their path functionals.

The coordinate SDE is  dx = (b + Z)(x) dt + sqrt(2) dB + dL_wall,  so the
generator matches the weighted reduction of the geometry module and the
boundary local time L is accumulated in the same normalisation as the
path weights e^{-2 int (K dr + sigma dL)}.

Two wall schemes:

  * "bridge" (default): per step, sample the free endpoint together with
    the running minimum of the Brownian bridge across the step and apply
    the one-wall pushing map.  For the flat boundary families with zero
    drift the per-step transition of (position, local time) is exact, so
    local-time functionals carry no O(sqrt(dt)) grid bias.
  * "projection": clip the Euler endpoint back into the domain, local
    time increment = clipping distance.  Simpler, but the local time
    inherits the classical 0.82 sqrt(dt) deficit of grid suprema; kept
    for convergence reporting.

Every estimator accumulates over one private function, `_run_paths`, which
owns the seeded generator, the stepper and the loop over a whole number
of steps.  Draws come in a fixed order and means are compensated sums,
so results are bit-reproducible for a given (seed, dt, n_paths, scheme).
On the flat families `_Stepper` overwrites and returns its input
positions, through buffers allocated once per path count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .clocks import Clock
from .geometry import ModelManifold
from .numerics import mean_and_stderr

_CURVED = (geometry.SPHERE, geometry.HYPERBOLIC, geometry.EUCLIDEAN_RADIAL)


@dataclass(frozen=True)
class PathSample:
    """One discretised reflected trajectory with accumulated integrals."""

    manifold: ModelManifold
    dt: float
    seed: int
    scheme: str
    times: np.ndarray          # s_k = k dt, length steps+1
    x: np.ndarray              # positions, length steps+1
    dL: np.ndarray             # per-step local-time increments, length steps
    A: np.ndarray              # int_0^{s_k} K(X_r) dr (left point)
    B: np.ndarray              # int_0^{s_k} sigma(X_r) dL_r
    rejected: int = 0          # chart-guard resample events

    @property
    def L(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.dL)])

    def to_csv(self, path) -> None:
        """Raw per-step dump (diagnostics): s, x, dL, A, B."""
        header = (f"family={self.manifold.family},dt={self.dt},"
                  f"seed={self.seed},scheme={self.scheme},"
                  f"rejected={self.rejected}\ns,x,dL,A,B")
        dL = np.concatenate([[0.0], self.dL])
        data = np.column_stack([self.times, self.x, dL, self.A, self.B])
        np.savetxt(path, data, delimiter=",", header=header, comments="# ")


@dataclass(frozen=True)
class Estimate:
    functional_id: str
    value: float
    stderr: float
    n_paths: int
    dt: float
    seed: int
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"functional_id": self.functional_id, "value": self.value,
                "stderr": self.stderr, "n_paths": self.n_paths,
                "dt": self.dt, "seed": self.seed, **self.meta}


def _as_field(value, default: float):
    """Normalise a field spec (None | scalar | callable) to (is_const, f)."""
    if callable(value):
        return False, value
    return True, float(default if value is None else value)


class _Stepper:
    """Vectorised one-step transition for a batch of paths."""

    def __init__(self, M: ModelManifold, dt: float, scheme: str):
        if scheme not in ("bridge", "projection"):
            raise ValueError(f"unknown reflection scheme {scheme!r}")
        self.M = M
        self.dt = dt
        self.scheme = scheme
        self.c = math.sqrt(2.0 * dt)
        self.boundaries = M.boundaries()
        lo, hi, kind = M.domain()
        self.wrap = kind == "periodic"
        self.guard = (lo + 1e-9, hi - 1e-9) if M.family in _CURVED else None
        self.rejected = 0
        self.buf = np.empty((0, 0))   # flat-step buffers, one row each

    def __call__(self, x: np.ndarray, rng, dL: np.ndarray) -> np.ndarray:
        """Advance x one step and write the step's local time into dL.

        Flat families update x in place, rounding as y = x + c xi, then
        per wall push = max(0, -0.5 (a + b - sqrt((a - b)^2 + 4 dt E)))
        with a, b = +-(x - pos), +-(y - pos); y += direction push.
        """
        dt, c = self.dt, self.c
        if self.guard is not None:
            y = x + self.M.b_total(x) * dt + c * rng.standard_normal(x.shape)
            lo_g, hi_g = self.guard
            bad = (y <= lo_g) | (y >= hi_g)
            for _ in range(101):
                if not np.any(bad):
                    break
                self.rejected += int(np.count_nonzero(bad))
                xi_new = rng.standard_normal(int(np.count_nonzero(bad)))
                y[bad] = (x[bad] + self.M.b_total(x[bad]) * dt + c * xi_new)
                bad = (y <= lo_g) | (y >= hi_g)
            else:
                np.clip(y, lo_g, hi_g, out=y)
            return y
        if self.buf.shape[1] != x.size:
            self.buf = np.empty((4 + len(self.boundaries), x.size))
        xi, E, b, s, *dist = self.buf
        walls = list(zip(dist, self.boundaries))
        rng.standard_normal(out=xi)
        np.multiply(xi, c, out=xi)
        if self.scheme == "bridge":  # wall distances before the step
            for a, (pos, direction) in walls:
                _inside(x, pos, direction, a)
        if self.M.drift_id != "none":
            np.add(x, self.M.b_total(x) * dt, out=x)
        np.add(x, xi, out=x)
        if self.wrap:
            return np.mod(x, 2.0 * math.pi, out=x)
        dL.fill(0.0)
        for a, (pos, direction) in walls:
            if self.scheme == "bridge":
                rng.standard_exponential(out=E)
                _inside(x, pos, direction, b)
                np.subtract(a, b, out=s)
                np.multiply(s, s, out=s)
                np.multiply(E, 4.0 * dt, out=E)
                np.add(s, E, out=s)
                np.sqrt(s, out=s)
                np.add(a, b, out=b)
                np.subtract(b, s, out=b)
                np.multiply(b, -0.5, out=b)   # -(0.5 v), exactly
            else:  # (pos - y) direction; a zero's sign cannot reach y or dL
                _inside(x, pos, -direction, b)
            np.maximum(0.0, b, out=b)   # push
            (np.add if direction > 0 else np.subtract)(x, b, out=x)
            np.add(dL, b, out=dL)
        return x


def _inside(x, pos, direction, out):
    """+-(x - pos): distance of x from a wall, positive inside the domain."""
    return np.subtract(*((x, pos) if direction > 0 else (pos, x)), out=out)


def _step_count(t: float, dt: float) -> int:
    """Number of steps of size dt in [0, t]; t must be a multiple of dt."""
    if dt <= 0 or t <= 0:
        raise ValueError("need t > 0 and dt > 0")
    steps = int(round(t / dt))
    if abs(steps * dt - t) > 1e-9 * t:
        raise ValueError(f"t = {t} is not a multiple of dt = {dt}")
    return steps


def _run_paths(M: ModelManifold, x0: float, n_paths: int, steps: int,
               dt: float, seed: int, scheme: str, work=None):
    """Run n_paths reflected paths from x0; returns (X_end, rejections).

    work(k, x, dL), when given, runs after step k with the positions x
    before the step and the step's local-time increments dL (reused buffers).
    """
    rng = np.random.default_rng(seed)
    stepper = _Stepper(M, dt, scheme)
    x = np.full(n_paths, float(x0))
    dL = np.zeros(n_paths)
    before = np.empty(n_paths)
    for k in range(steps):
        if work is not None:
            np.copyto(before, x)
        x = stepper(x, rng, dL)
        if work is not None:
            work(k, before, dL)
    return x, stepper.rejected


def simulate_reflected_path(M: ModelManifold, x0: float, t: float, dt: float,
                            seed: int, scheme: str = "bridge") -> PathSample:
    """One reflected trajectory on [0, t] with local time and weights.

    Reproducible for fixed (seed, dt); the path weight integrals A and B
    are accumulated with the manifold's constant K and sigma by the
    left-point rule.
    """
    steps = _step_count(t, dt)
    xs, dLs = np.empty(steps + 1), np.empty(steps)

    def record(k, x, dL):
        xs[k], dLs[k] = x[0], dL[0]

    x, rejected = _run_paths(M, x0, 1, steps, dt, seed, scheme, record)
    xs[steps] = x[0]
    sigma = M.sigma if M.sigma is not None else 0.0
    # running sums from 0.0 in step order (accumulate does not pair terms)
    return PathSample(manifold=M, dt=dt, seed=seed, scheme=scheme,
                      times=np.arange(steps + 1) * dt, x=xs, dL=dLs,
                      A=np.cumsum(np.r_[0.0, np.full(steps, M.K * dt)]),
                      B=np.cumsum(np.r_[0.0, sigma * dLs]), rejected=rejected)


def path_weight(sample: PathSample, K_field=None, sigma_field=None,
                s: float | None = None) -> float:
    """Exponential weight e^{-2 (A(s) + B(s))} along one stored path.

    Fields default to the manifold constants the sample was built with;
    callables re-accumulate by the left-point rule over the stored path.
    """
    t_end = sample.times[-1]
    if s is None:
        s = t_end
    if s < 0 or s > t_end + 1e-12:
        raise ValueError("s outside the sampled horizon")
    k = min(int(round(s / sample.dt)), sample.times.size - 1)
    if K_field is None and sigma_field is None:
        return math.exp(-2.0 * (sample.A[k] + sample.B[k]))
    kc, kf = _as_field(K_field, sample.manifold.K)
    sc, sf = _as_field(sigma_field, sample.manifold.sigma or 0.0)
    if kc:
        A = kf * sample.dt * k
    else:  # left-point rule over the first k stored positions
        A = float(np.sum(kf(sample.x[:k])) * sample.dt) if k else 0.0
    if sc:
        B = sf * float(np.sum(sample.dL[:k]))
    else:
        # sigma lives on the boundary: evaluate at the nearest wall
        B = 0.0
        for j in range(k):
            if sample.dL[j] > 0:
                walls = [pos for pos, _ in sample.manifold.boundaries()]
                wall = min(walls, key=lambda p: abs(sample.x[j + 1] - p))
                B += float(sf(wall)) * sample.dL[j]
    return math.exp(-2.0 * (A + B))


# ---------------------------------------------------------------------------
# batched estimators

FUNCTIONALS = ("harnack_rhs", "harnack_alpha_rhs", "gradient_rhs")


def estimate_functional(M: ModelManifold, u0, x: float, t: float,
                        clock: Clock | None, functional_id: str,
                        n_paths: int, dt: float, seed: int,
                        K_field=None, sigma_field=None,
                        alpha: float | None = None,
                        scheme: str = "bridge") -> Estimate:
    """Monte Carlo estimate of one probabilistic right-hand side.

    harnack_rhs:
        (n/2) E[u0(X_t) int_0^t l'^2 w_s ds] - E[Lu0(X_t) int (l^2)' w_s ds]
        with w_s = e^{-2 int_0^s (K dr + sigma dL)}, left-point rule.
    harnack_alpha_rhs:
        (n a/2) E[u0(X_t) int (K l/(a-1) + l')^2 e^{2 int K dr /(a-1)} ds].
    gradient_rhs:
        E[ |grad u0|(X_t) e^{-int (K dr + sigma dL)} ].

    u0 must expose callables on the manifold (analytic datum ids).  When
    K is a constant and sigma vanishes the clock integrals are
    deterministic and computed once; only the endpoint evaluation of u0
    carries Monte Carlo noise then.
    """
    if functional_id not in FUNCTIONALS:
        raise ValueError(f"unknown functional {functional_id!r}")
    if n_paths < 2:
        raise ValueError("need at least two paths")
    if functional_id != "gradient_rhs" and clock is None:
        raise ValueError("this functional needs a deterministic clock")
    steps = _step_count(t, dt)
    u_call, du_call, d2u_call = u0.callables(M)
    kc, kf = _as_field(K_field, M.K)
    sc, sf = _as_field(sigma_field, M.sigma if M.sigma is not None else 0.0)
    sigma_zero = sc and sf == 0.0
    svals = np.arange(steps) * dt

    need_alpha = functional_id == "harnack_alpha_rhs"
    if need_alpha and (alpha is None or alpha <= 1):
        raise ValueError("harnack_alpha_rhs needs alpha > 1")
    if need_alpha and M.has_boundary and not sigma_zero:
        raise ValueError("the alpha functional is stated for convex walls "
                         "(sigma = 0)")
    if not sc and len(M.boundaries()) > 1:
        raise ValueError("callable sigma needs a single wall to attribute "
                         "local time to; use a constant on the interval")

    lv = clock.l(svals) if clock is not None else None
    dlv = clock.dl(svals) if clock is not None else None

    # deterministic weight: the clock integrals are constants, so evaluate
    # them by exact quadrature; the left-point rule is kept for pathwise
    # weights (K a field or sigma dL live), where it matches Ito's.
    const_weight = kc and (sigma_zero or not M.has_boundary)
    A, B = np.zeros((2, n_paths))     # int K(X) dr (left point), int sigma dL
    I1, I2 = np.zeros((2, n_paths))   # clock integrals, pathwise or constant
    if const_weight and functional_id == "harnack_rhs":
        from .clocks import clock_integrals
        ints = clock_integrals(clock, kf)
        I1, I2 = ints["deriv_sq"], ints["sq_prime"]
    if const_weight and need_alpha:
        from .clocks import alpha_form_integral
        I1 = alpha_form_integral(clock, kf, alpha)
    track_B = M.has_boundary and not sigma_zero
    sigma_wall = (sf if sc else sf(M.boundaries()[0][0])) if track_B else 0.0

    def accumulate(k, xp, dL):
        nonlocal A, B, I1, I2
        if functional_id == "harnack_rhs":
            if kc:
                w = np.exp(-2.0 * (kf * svals[k] + B))
            else:
                w = np.exp(-2.0 * (A + B))
            I1 += dlv[k] ** 2 * w * dt
            I2 += 2.0 * lv[k] * dlv[k] * w * dt
        elif need_alpha:
            v = np.exp(2.0 * A / (alpha - 1.0))
            kk = kf if kc else kf(xp)
            I1 += (kk * lv[k] / (alpha - 1.0) + dlv[k]) ** 2 * v * dt
        if not kc:
            A += kf(xp) * dt
        if track_B:
            B += sigma_wall * dL

    xp, rejected = _run_paths(M, x, n_paths, steps, dt, seed, scheme,
                              None if const_weight else accumulate)

    if functional_id == "harnack_rhs":
        Lu0_final = d2u_call(xp) + M.b_total(xp) * du_call(xp)
        per_path = 0.5 * M.n * u_call(xp) * I1 - Lu0_final * I2
    elif need_alpha:
        per_path = 0.5 * M.n * alpha * u_call(xp) * I1
    else:  # gradient_rhs
        A_final = kf * t if kc else A
        per_path = np.abs(du_call(xp)) * np.exp(-(A_final + B))

    value, stderr = mean_and_stderr(np.asarray(per_path, dtype=float))
    return Estimate(functional_id=functional_id, value=value, stderr=stderr,
                    n_paths=n_paths, dt=dt, seed=seed,
                    meta={"manifold": M.family, "t": t, "x0": x,
                          "rejected": rejected})


def local_time_moment(M: ModelManifold, x0: float, t: float, p: float,
                      n_paths: int, dt: float, seed: int,
                      scheme: str = "bridge") -> Estimate:
    """E[e^{p L_t}], accumulated in log space to dodge overflow."""
    if not M.has_boundary:
        raise ValueError("local time needs a boundary family")
    L = np.zeros(n_paths)
    _run_paths(M, x0, n_paths, _step_count(t, dt), dt, seed, scheme,
               lambda k, x, dL: np.add(L, dL, out=L))
    z = p * L
    shift = float(np.max(z))
    mean, se = mean_and_stderr(np.exp(z - shift))
    return Estimate("local_time_moment", mean * math.exp(shift),
                    se * math.exp(shift), n_paths, dt, seed,
                    meta={"p": p, "manifold": M.family, "t": t,
                          "mean_L": float(np.mean(L))})


def expected_local_time(M: ModelManifold, x0: float, t: float, n_paths: int,
                        dt: float, seed: int,
                        scheme: str = "bridge") -> Estimate:
    """E[L_t], the mean accumulated boundary local time."""
    if not M.has_boundary:
        raise ValueError("local time needs a boundary family")
    L = np.zeros(n_paths)
    _run_paths(M, x0, n_paths, _step_count(t, dt), dt, seed, scheme,
               lambda k, x, dL: np.add(L, dL, out=L))
    mean, se = mean_and_stderr(L)
    return Estimate("expected_local_time", mean, se, n_paths, dt, seed,
                    meta={"manifold": M.family, "t": t, "x0": x0})


def expected_value_at(M: ModelManifold, u0, x0: float, t: float,
                      n_paths: int, dt: float, seed: int,
                      scheme: str = "bridge") -> Estimate:
    """E[u0(X_t)]; matches the solver's u_t(x0) by the path representation."""
    x, _ = _run_paths(M, x0, n_paths, _step_count(t, dt), dt, seed, scheme)
    mean, se = mean_and_stderr(u0.callables(M)[0](x))
    return Estimate("expected_value", mean, se, n_paths, dt, seed,
                    meta={"manifold": M.family, "t": t, "x0": x0})


# ---------------------------------------------------------------------------
# time change by a cutoff function


@dataclass(frozen=True)
class TimeChange:
    """Discrete clock T(s) = int f^{-2}(X) dr and its inverse on one path."""

    times: np.ndarray
    T: np.ndarray
    f_values: np.ndarray
    exit_index: int | None
    truncated: bool

    def tau(self, t):
        """Inverse clock by linear interpolation; tau(t) <= t when f <= 1."""
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.T[:self.last + 1], self.times[:self.last + 1])
        return out if out.ndim else float(out)

    @property
    def last(self) -> int:
        return self.exit_index if self.exit_index is not None else self.T.size - 1

    def roundtrip_error(self, t) -> float:
        return float(np.max(np.abs(self.T_of(self.tau(t)) - np.asarray(t))))

    def T_of(self, s):
        s = np.asarray(s, dtype=float)
        out = np.interp(s, self.times[:self.last + 1], self.T[:self.last + 1])
        return out if out.ndim else float(out)


def time_change(sample: PathSample, f, f_floor: float = 1e-8) -> TimeChange:
    """Clock of the time-changed diffusion for a cutoff f on one path.

    f must take values in (0, 1] inside the domain and 0 on the inner
    boundary; the path is truncated and flagged where f drops below the
    floor before a recorded exit.
    """
    fv = np.asarray(f(sample.x), dtype=float)
    if np.any(fv > 1.0 + 1e-12):
        raise ValueError("cutoff must satisfy f <= 1")
    exit_idx = None
    truncated = False
    n = fv.size
    stop = n
    below = np.nonzero(fv <= f_floor)[0]
    if below.size:
        stop = int(below[0])
        exit_idx = stop - 1 if stop > 0 else 0
        truncated = bool(fv[stop] > 0.0)
    T = np.zeros(n)
    inv = np.zeros(n)
    inv[:max(stop, 1)] = fv[:max(stop, 1)] ** -2.0
    T[1:] = np.cumsum(inv[:-1] * sample.dt)
    if stop < n:
        T[stop:] = T[stop]
    return TimeChange(times=sample.times, T=T, f_values=fv,
                      exit_index=exit_idx, truncated=truncated)


def cutoff_growth_check(M: ModelManifold, x0: float, f, checkpoints,
                        horizon: float, dt: float, n_paths: int, seed: int,
                        scheme: str = "bridge"):
    """Ensemble averages E[f^{-2}(X_{tau(s)})] at clock checkpoints.

    Returns (means, stderrs, alive_fraction); the bound to verify is
    means[j] <= e^{K_f s_j} with K_f = sup(6 |grad f|^2 - f L f) from the
    caller.  Paths that exit the cutoff's support stop contributing.
    """
    checkpoints = np.asarray(checkpoints, dtype=float)
    steps = _step_count(horizon, dt)
    T = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    done = np.zeros((checkpoints.size, n_paths), dtype=bool)
    vals = np.zeros((checkpoints.size, n_paths))

    def advance_clock(k, x, dL):
        nonlocal T, alive
        fv = np.asarray(f(x), dtype=float)
        alive &= ~(fv <= 1e-8)
        inv = np.where(alive, fv, 1.0) ** -2.0
        T += np.where(alive, inv * dt, 0.0)
        for j, s in enumerate(checkpoints):
            hit = alive & ~done[j] & (T >= s)
            vals[j, hit] = inv[hit]
            done[j] |= hit

    _run_paths(M, x0, n_paths, steps, dt, seed, scheme, advance_clock)
    means, ses = np.full((2, checkpoints.size), math.nan)
    for j in range(checkpoints.size):
        if np.count_nonzero(done[j]) >= 2:
            means[j], ses[j] = mean_and_stderr(vals[j, done[j]])
    return means, ses, float(np.mean(done, axis=1).min())
