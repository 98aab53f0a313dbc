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

Every estimator is an accumulator: per-step work over its own horizon and
a finish on the endpoints at its own step count.  `run_ensemble` is the
only step loop.  It owns the seeded generator and the stepper of one
`Ensemble` (M, x0, n_paths, dt, seed, scheme) and runs it once, to the
longest horizon of its accumulators, finishing each as the pass reaches
its step count.  Draws come in a fixed order and depend only on the
ensemble and the step index, so a shorter horizon sees a bit-identical
prefix of a longer pass, and estimators that share an ensemble can share
its pass.  Means are compensated sums, so results are bit-reproducible
for a given ensemble.  `run_passes` schedules every pass, on workers it
forks where it has the cores: the harness's MC rows are its tasks, and
each public estimator is a call with one task.  `_Stepper` writes each
step over the positions of the step before, in buffers allocated once per
path count.  A wall's bridge push max(0, -0.5 (a + b - sqrt((a - b)^2 +
4 dt E))), with a, b a path's distances from the wall before and after the
step, is nonzero only when a b < dt E: only the paths with min(a, b) below
sqrt(dt max E) evaluate it, so skipping the others keeps every bit.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pickle
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import clocks   # the mc entries' clocks and targets, called by module
from .clocks import Clock, alpha_form_integral, clock_integrals
from .geometry import ModelManifold
from .numerics import check_real, mean_and_stderr, reject_unknown


@dataclass(frozen=True)
class Estimate:
    functional_id: str
    value: float
    stderr: float
    n_paths: int
    dt: float
    seed: int
    meta: dict = field(default_factory=dict)


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
        lo, hi = M.domain()
        self.wrap = M.spec.periodic
        self.guard = (lo + 1e-9, hi - 1e-9) if M.spec.radial else None
        self.first_order = M.spec.b is not None or M.drift_id != "none"
        self.rejected = 0
        self.buf = np.empty(0)   # the step's normals, then each wall's E

    def __call__(self, x: np.ndarray, rng, dL: np.ndarray) -> np.ndarray:
        """Advance x one step and write the step's local time into dL
        (a family without walls leaves it at the zeros it came with).

        Returns y = (x + b dt) + c xi (no b dt when L has no first-order
        term), pushed off each flat wall where min(a, b) <= T =
        sqrt(dt max E) (1 + 1e-6), or by max(0, -b) under projection with
        T = 0, and keeps x as self.before.
        """
        dt, c, bridge = self.dt, self.c, self.scheme == "bridge"
        if self.buf.size != x.size:   # no positions to write over yet
            self.buf, self.before = np.empty_like(x), None
        y, self.before = self.before, x
        if y is None or y is x:
            y = np.empty_like(x)
        xi = np.multiply(rng.standard_normal(out=self.buf), c, out=self.buf)
        start = x
        if self.first_order:   # L has a volume drift or a drift
            start = self.M.b_total(x, out=y)
            np.add(x, np.multiply(start, dt, out=start), out=start)
        np.add(start, xi, out=y)
        if self.guard is not None:
            lo_g, hi_g = self.guard
            bad = np.flatnonzero((y <= lo_g) | (y >= hi_g))
            for _ in range(101):   # only a redrawn path can still be out
                if not bad.size:
                    break
                self.rejected += bad.size
                xi_new = rng.standard_normal(out=xi[:bad.size])
                y[bad] = x[bad] + self.M.b_total(x[bad]) * dt + c * xi_new
                bad = bad[(y[bad] <= lo_g) | (y[bad] >= hi_g)]
            else:
                np.clip(y, lo_g, hi_g, out=y)
        if self.wrap:
            np.mod(y, 2.0 * math.pi, out=y)
        if self.boundaries:   # without walls dL stays as it came: zero
            dL.fill(0.0)
        for pos, direction in self.boundaries:
            T = 0.0
            if bridge:   # this wall's draws follow those of the walls before
                E = rng.standard_exponential(out=xi)
                T = math.sqrt(dt * E.max()) * (1.0 + 1e-6)
            lim = pos + direction * T   # min(a, b) <= T on the wall's side
            idx = np.flatnonzero((x <= lim) | (y <= lim) if direction > 0
                                 else (x >= lim) | (y >= lim))
            y_near = y.take(idx)
            if bridge:
                a = _inside(x.take(idx), pos, direction)
                b = _inside(y_near, pos, direction)
                d, E_near = a - b, E.take(idx) * (4.0 * dt)
                push = -0.5 * ((a + b) - np.sqrt(d * d + E_near))
            else:  # (pos - y) direction; a zero's sign cannot reach y or dL
                push = _inside(y_near, pos, -direction)
            np.maximum(0.0, push, out=push)
            y[idx] = y_near + push if direction > 0 else y_near - push
            dL[idx] += push
        return y


def _inside(x, pos, direction):
    """+-(x - pos): distance of x from a wall, positive inside the domain."""
    return x - pos if direction > 0 else pos - x


def _step_count(t: float, dt: float) -> int:
    """Number of steps of size dt in [0, t]; t must be a multiple of dt."""
    if dt <= 0 or t <= 0:
        raise ValueError("need t > 0 and dt > 0")
    steps = int(round(t / dt))
    if abs(steps * dt - t) > 1e-9 * t:
        raise ValueError(f"t = {t} is not a multiple of dt = {dt}")
    return steps


@dataclass(frozen=True)
class Ensemble:
    """The paths of one pass: n_paths reflected paths on M from x0.

    A pass's draws depend only on (seed, n_paths, dt, step index), so its
    first k steps are the same whatever its horizon, and estimators that
    share an ensemble can share one pass.
    """

    M: ModelManifold
    x0: float
    n_paths: int
    dt: float
    seed: int
    scheme: str = "bridge"


@dataclass(frozen=True)
class Accumulator:
    """One estimator's part of a pass, over its own horizon of `steps`.

    work(k, x, dL), when given, runs after each step k < steps with the
    positions x before the step and the step's local-time increments dL
    (reused buffers).  finish(x) runs on the positions after `steps`
    steps, before the next step overwrites them, and returns the
    accumulator's result.
    """

    steps: int
    finish: Callable
    work: Callable | None = None


def run_ensemble(ens: Ensemble, accumulators) -> list:
    """One pass of ens to the longest horizon; each accumulator's outcome.

    The outcome is what its finish returned, or the exception its work or
    finish raised: an accumulator that raises leaves the pass, and the
    others carry on.  This is the only step loop of the module.
    """
    accs = list(accumulators)
    rng = np.random.default_rng(ens.seed)
    stepper = _Stepper(ens.M, ens.dt, ens.scheme)
    x, dL = np.full(ens.n_paths, float(ens.x0)), np.zeros(ens.n_paths)
    working = [i for i, acc in enumerate(accs) if acc.work is not None]
    outcomes: dict[int, object] = {}   # filled when an accumulator leaves

    def attempt(i, call, *args):
        try:
            return call(*args)
        except Exception as exc:  # fails accumulator i, not the pass
            outcomes[i] = exc

    horizon = max(acc.steps for acc in accs)
    for k in range(horizon):
        busy = [i for i in working if k < accs[i].steps and i not in outcomes]
        x = stepper(x, rng, dL)
        for i in busy:
            attempt(i, accs[i].work, k, stepper.before, dL)
        if k + 1 == horizon:  # free the step buffers for the last finishes
            stepper.buf = stepper.before = dL = None
        for i, acc in enumerate(accs):
            if acc.steps == k + 1 and i not in outcomes:
                result = attempt(i, acc.finish, x)
                outcomes.setdefault(i, result)   # unless finish raised
    return [outcomes[i] for i in range(len(accs))]


@contextlib.contextmanager
def run_passes(tasks):
    """Run (Ensemble, Accumulator) tasks, one pass per ensemble; yields
    outcome(i) -> task i's result, or the exception that ended it.

    The passes go out largest (n_paths x longest horizon) first, each to
    the least loaded of min(#ensembles, cores) shares.  With two shares or
    more, each starts at once on a worker made by os.fork (threads barely
    scaled: a step makes some 30 small numpy calls that hand the GIL over),
    which writes a pickle per pass to its pipe, read to EOF at the first
    outcome asked of its share.  Otherwise, or where the fork failed, a
    pass runs in-process at its first outcome.  Each pass has its own
    seeded generator, so no outcome depends on where it ran.  A pass that
    cannot start or be pickled fails its tasks, as does each pass a lost
    worker did not return, and no worker outlives the with block.
    """
    tasks = list(tasks)
    groups: dict[Ensemble, list] = {}   # task indices by ensemble
    for i, (ens, _) in enumerate(tasks):
        groups.setdefault(ens, []).append(i)
    passes = {ens: [tasks[i][1] for i in ids] for ens, ids in groups.items()}
    load = {ens: ens.n_paths * max(acc.steps for acc in accs)
            for ens, accs in passes.items()}
    shares: list = [[] for _ in range(min(len(passes), _cores()))]
    for ens in sorted(passes, key=lambda ens: -load[ens]):
        min(shares, key=lambda s: sum(map(load.get, s))).append(ens)
    workers: dict[int, tuple] = {}   # share index -> (pid, read end)
    outcomes: dict[int, object] = {}   # by task index

    def outcome(i):
        if i not in outcomes:
            ens = tasks[i][0]
            w = next(w for w, share in enumerate(shares) if ens in share)
            done = (zip(shares[w], _collect(workers, w, len(shares[w])))
                    if w in workers else [(ens, _outcomes(ens, passes[ens]))])
            for ens, outs in done:   # an exception fails each task
                ids = groups[ens]
                outcomes.update(zip(ids, outs if isinstance(outs, list)
                                    else [outs] * len(ids)))
        return outcomes[i]

    try:
        for w, share in enumerate(shares if len(shares) > 1
                                  and hasattr(os, "fork") else ()):
            with contextlib.suppress(OSError):   # else run in-process
                workers[w] = _fork([(e, passes[e]) for e in share])
        yield outcome
    finally:
        for pid, fd in workers.values():
            os.kill(pid, 9)   # SIGKILL
            os.close(fd)
            os.waitpid(pid, 0)


def _outcomes(ens: Ensemble, accs: list):
    """run_ensemble(ens, accs), or the error of a pass that cannot start."""
    try:
        return run_ensemble(ens, accs)
    except Exception as exc:
        return exc


def _fork(passes: list) -> tuple:
    """(pid, read end of its pipe) of a forked worker that runs passes, a
    list of (ensemble, accumulators), and writes a pickle per pass to the
    pipe: of the bytes of its pickled _outcomes, or of the pickled error
    that stopped their pickling."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:   # the worker, which never returns into the caller's code
        try:
            with open(w, "wb") as pipe:
                for ens, accs in passes:
                    try:
                        data = pickle.dumps(_outcomes(ens, accs))
                    except Exception as exc:
                        data = pickle.dumps(exc)
                    pipe.write(pickle.dumps(data))
                    pipe.flush()
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, r


def _collect(workers: dict, w: int, count: int) -> list:
    """Read worker w's pipe to EOF, drop w from workers and reap it; the
    _outcomes of its count passes.  A pass that does not load gives the
    error it raised, and one the worker did not return an error that
    names the worker's exit status."""
    pid, fd = workers[w]
    with open(fd, "rb", closefd=False) as pipe:
        stream = io.BytesIO(pipe.read())
    del workers[w]
    os.close(fd)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    results = []
    for _ in range(count):
        try:
            results.append(pickle.loads(pickle.load(stream)))
        except Exception as exc:
            results.append(RuntimeError(
                f"the MC worker of this pass ended with exit status {code} "
                "before returning it") if code else exc)
    return results


def _cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_alone(ens: Ensemble, acc: Accumulator):
    """One accumulator as its own pass; its exception is raised."""
    with run_passes([(ens, acc)]) as outcome:
        result = outcome(0)
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# batched estimators

def estimate_functional(M: ModelManifold, u0, x: float, t: float,
                        clock: Clock | None, functional_id: str,
                        n_paths: int, dt: float, seed: int,
                        K_field=None, alpha: float | None = None,
                        scheme: str = "bridge") -> Estimate:
    """Monte Carlo estimate of one probabilistic right-hand side.

    harnack_rhs:
        (n/2) E[u0(X_t) int_0^t l'^2 w_s ds] - E[Lu0(X_t) int (l^2)' w_s ds]
        with w_s = e^{-2 int_0^s (K dr + sigma dL)}, left-point rule.
    harnack_alpha_rhs:
        (n a/2) E[u0(X_t) int (K l/(a-1) + l')^2 e^{2 int K dr /(a-1)} ds].
    gradient_rhs:
        E[ |grad u0|(X_t) e^{-int (K dr + sigma dL)} ].

    u0 must expose callables on the manifold (analytic datum ids).
    K_field is a number or a callable K(x); sigma is the model's.  When
    K is a constant and sigma vanishes the clock integrals are
    deterministic and computed once; only the endpoint evaluation of u0
    carries Monte Carlo noise then.
    """
    ens = Ensemble(M, x, n_paths, dt, seed, scheme)
    return _run_alone(ens, functional_accumulator(
        ens, u0, t, clock, functional_id, K_field=K_field, alpha=alpha))


def functional_accumulator(ens: Ensemble, u0, t: float, clock: Clock | None,
                           functional_id: str, K_field=None,
                           alpha: float | None = None) -> Accumulator:
    """The accumulator of estimate_functional on the ensemble ens."""
    M, n_paths, dt = ens.M, ens.n_paths, ens.dt
    if functional_id not in ("harnack_rhs", "harnack_alpha_rhs",
                             "gradient_rhs"):
        raise ValueError(f"unknown functional {functional_id!r}")
    if n_paths < 2:
        raise ValueError("need at least two paths")
    if functional_id != "gradient_rhs" and clock is None:
        raise ValueError("this functional needs a deterministic clock")
    need_alpha = functional_id == "harnack_alpha_rhs"
    if need_alpha:
        check_alpha_form(M, alpha)
    steps = _step_count(t, dt)
    u_call, du_call, d2u_call = u0.callables(M)
    # K_field: None (the model's K), a number, or a callable K(x)
    kc = not callable(K_field)
    kf = float(M.K if K_field is None else K_field) if kc else K_field
    sigma = float(M.sigma or 0.0)   # None off a wall

    # deterministic weight: the clock integrals are constants, so evaluate
    # them by exact quadrature; the left-point rule is kept for pathwise
    # weights (K a field or sigma dL live), where it matches Ito's.
    track_B = M.has_boundary and sigma != 0.0
    const_weight = kc and not track_B
    # int K(X) dr (left point), int sigma dL and the clock integrals; a
    # scalar 0.0 stands for a path-independent zero
    A = 0.0 if kc else np.zeros(n_paths)
    B = np.zeros(n_paths) if track_B else 0.0
    I1 = I2 = 0.0
    if const_weight and functional_id == "harnack_rhs":
        ints = clock_integrals(clock, kf)
        I1, I2 = ints["deriv_sq"], ints["sq_prime"]
    elif const_weight and need_alpha:
        I1 = alpha_form_integral(clock, kf, alpha)
    elif not const_weight and functional_id != "gradient_rhs":
        I1, I2 = np.zeros((2, n_paths))
    if not const_weight and clock is not None:
        svals = np.arange(steps) * dt
        lv, dlv = clock.l(svals), clock.dl(svals)

    def accumulate(k, xp, dL):
        nonlocal A, B, I1, I2
        K = kf if kc else kf(xp)   # one evaluation a step, for I1 and A
        if functional_id == "harnack_rhs":
            if kc:
                w = np.exp(-2.0 * (kf * svals[k] + B))
            else:
                w = np.exp(-2.0 * (A + B))
            I1 += dlv[k] ** 2 * w * dt
            I2 += 2.0 * lv[k] * dlv[k] * w * dt
        elif need_alpha:
            v = np.exp(2.0 * A / (alpha - 1.0))
            I1 += (K * lv[k] / (alpha - 1.0) + dlv[k]) ** 2 * v * dt
        if not kc:
            A += K * dt
        if track_B:
            B += sigma * dL

    def finish(xp):
        if functional_id == "harnack_rhs":
            Lu0_final = d2u_call(xp) + M.b_total(xp) * du_call(xp)
            per_path = 0.5 * M.n * u_call(xp) * I1 - Lu0_final * I2
        elif need_alpha:
            per_path = 0.5 * M.n * alpha * u_call(xp) * I1
        else:  # gradient_rhs
            A_final = kf * t if kc else A
            per_path = np.abs(du_call(xp)) * np.exp(-(A_final + B))
        value, stderr = mean_and_stderr(np.asarray(per_path, dtype=float))
        return Estimate(functional_id=functional_id, value=value,
                        stderr=stderr, n_paths=n_paths, dt=dt, seed=ens.seed,
                        meta={"manifold": M.family, "t": t, "x0": ens.x0})

    return Accumulator(steps, finish, None if const_weight else accumulate)


def check_alpha_form(M: ModelManifold, alpha: float | None) -> None:
    """Raise ValueError unless harnack_alpha_rhs takes alpha on M."""
    if alpha is None or alpha <= 1:
        raise ValueError("harnack_alpha_rhs needs alpha > 1")
    if M.has_boundary and M.sigma:
        raise ValueError("the alpha functional is stated for convex walls "
                         "(sigma = 0)")


def check_wall(M: ModelManifold) -> None:
    """Raise ValueError unless M has a wall to accrue local time on."""
    if not M.has_boundary:
        raise ValueError("local time needs a boundary family")


def local_time_moment(M: ModelManifold, x0: float, t: float, p: float,
                      n_paths: int, dt: float, seed: int,
                      scheme: str = "bridge") -> Estimate:
    """E[e^{p L_t}], accumulated in log space to dodge overflow."""
    ens = Ensemble(M, x0, n_paths, dt, seed, scheme)
    return _run_alone(ens, local_time_accumulator(ens, t, p))


def expected_local_time(M: ModelManifold, x0: float, t: float, n_paths: int,
                        dt: float, seed: int,
                        scheme: str = "bridge") -> Estimate:
    """E[L_t], the mean accumulated boundary local time."""
    ens = Ensemble(M, x0, n_paths, dt, seed, scheme)
    return _run_alone(ens, local_time_accumulator(ens, t))


def local_time_accumulator(ens: Ensemble, t: float,
                           p: float | None = None) -> Accumulator:
    """The local time L_t on ens, finished as E[e^{p L_t}] or, without p,
    as E[L_t]: local_time_moment and expected_local_time."""
    M, n_paths, dt, seed = ens.M, ens.n_paths, ens.dt, ens.seed
    check_wall(M)
    steps = _step_count(t, dt)
    L = np.zeros(n_paths)

    def moment(x):
        z = p * L
        shift = float(np.max(z))
        mean, se = mean_and_stderr(np.exp(z - shift))
        return Estimate("local_time_moment", mean * math.exp(shift),
                        se * math.exp(shift), n_paths, dt, seed,
                        meta={"p": p, "manifold": M.family, "t": t,
                              "mean_L": float(np.mean(L))})

    def mean(x):
        m, se = mean_and_stderr(L)
        return Estimate("expected_local_time", m, se, n_paths, dt, seed,
                        meta={"manifold": M.family, "t": t, "x0": ens.x0})

    return Accumulator(steps, mean if p is None else moment,
                       lambda k, x, dL: np.add(L, dL, out=L))


def expected_value_at(M: ModelManifold, u0, x0: float, t: float,
                      n_paths: int, dt: float, seed: int,
                      scheme: str = "bridge") -> Estimate:
    """E[u0(X_t)]; matches the solver's u_t(x0) by the path representation."""
    ens = Ensemble(M, x0, n_paths, dt, seed, scheme)
    return _run_alone(ens, value_accumulator(ens, u0, t))


def value_accumulator(ens: Ensemble, u0, t: float) -> Accumulator:
    """The accumulator of expected_value_at on the ensemble ens."""
    steps = _step_count(t, ens.dt)
    u = u0.callables(ens.M)[0]

    def finish(x):
        mean, se = mean_and_stderr(u(x))
        return Estimate("expected_value", mean, se, ens.n_paths, ens.dt,
                        ens.seed, meta={"manifold": ens.M.family, "t": t,
                                        "x0": ens.x0})

    return Accumulator(steps, finish)


# ---------------------------------------------------------------------------
# the functionals an mc entry of an experiment config names

ENSEMBLE_KEYS = ("functional", "t", "x0", "n_paths", "dt", "seed")
SOLVE_KEYS = ("grid_size", "pde_scheme")
# the mc-entry keys that hold no number; every other key holds a real
# number, those of _WHOLE_KEYS a whole one, and those of _LEAST at least
# their least: numpy seeds no generator from a negative seed, and the
# three-diagonal generator and np.gradient's second-order ends need 3 nodes
_WORD_KEYS = ("functional", "compare", "clock", "pde_scheme")
_WHOLE_KEYS = ("n_paths", "seed", "grid_size")
_LEAST = {"seed": 0, "grid_size": 3}


@dataclass(frozen=True)
class Functional:
    """One MC functional as an mc entry names it.

    accumulator(ens, entry, datum, clock) is the entry's part of the pass
    of ens.  keys are the entry keys it reads besides ENSEMBLE_KEYS; with
    "clock" among them it runs on the entry's clock, and with "target" an
    entry may give its target.  targets maps each compare mode, and None
    for an entry without one, to target(state, ens, entry, clock): the
    row's target from the state solved at its t, which also reads
    SOLVE_KEYS.  The estimate bounds a one_sided mode's target from above;
    a convex mode, without the sigma dL weight, needs sigma = 0.  check(M,
    entry) is the accumulator's own argument check.
    """

    accumulator: Callable
    keys: tuple = ()
    targets: dict = field(default_factory=dict)
    one_sided: tuple = ()
    convex: tuple = ()
    check: Callable = lambda M, entry: None
    reads_datum: bool = True   # the accumulator reads datum.callables

    @property
    def compare_modes(self) -> tuple:
        return tuple(mode for mode in self.targets if mode is not None)

    def entry_keys(self, entry: dict) -> tuple:
        """Every key entry may hold."""
        keys = ENSEMBLE_KEYS + self.keys
        if self.compare_modes:
            keys += ("compare",)
        if entry.get("compare") in self.targets:
            keys += SOLVE_KEYS
        return keys


def _path_functional(ens, entry, datum, clock):
    return functional_accumulator(ens, datum, float(entry["t"]), clock,
                                  entry["functional"],
                                  K_field=entry.get("K_field"),
                                  alpha=entry.get("alpha"))


def _harnack_quadrature(state, ens, entry, clock):
    """harnack_rhs in quadrature: a constant K and sigma = 0 leave the
    clock integrals deterministic."""
    ints = clocks.clock_integrals(clock, float(entry.get("K_field", ens.M.K)))
    i = state.index_of(ens.x0)
    return (0.5 * ens.M.n * ints["deriv_sq"] * float(state.u[i])
            - ints["sq_prime"] * float(state.Lu[i]))


def _harnack_alpha_state(state, ens, entry, clock):
    """The sharpened left side (1 + gamma) W - alpha Lu at x0 that
    harnack_alpha_rhs bounds, gamma = gamma_integral(clock, K, alpha)."""
    alpha = float(entry["alpha"])
    gamma = clocks.gamma_integral(
        clock, float(entry.get("K_field", ens.M.K)), alpha)
    i = state.index_of(ens.x0)
    return float((1.0 + gamma) * state.W()[i] - alpha * state.Lu[i])


FUNCTIONALS = {
    "expected_value": Functional(
        lambda ens, entry, datum, clock: value_accumulator(
            ens, datum, float(entry["t"])),
        targets={None: lambda state, ens, entry, clock: float(
            np.interp(ens.x0, state.grid, state.u))}),
    "expected_local_time": Functional(
        lambda ens, entry, datum, clock: local_time_accumulator(
            ens, float(entry["t"])),
        keys=("target",),   # e.g. 2/sqrt(pi) for the flat wall at t = 1
        check=lambda M, entry: check_wall(M), reads_datum=False),
    "local_time_moment": Functional(
        lambda ens, entry, datum, clock: local_time_accumulator(
            ens, float(entry["t"]), float(entry.get("p", 1.0))),
        keys=("p",), check=lambda M, entry: check_wall(M),
        reads_datum=False),
    "harnack_rhs": Functional(
        _path_functional, keys=("clock", "K_field"),
        targets={"state": lambda state, ens, entry, clock: float(
                     state.W()[state.index_of(ens.x0)]),
                 "wx0": _harnack_quadrature},
        one_sided=("state",), convex=("wx0",)),
    "harnack_alpha_rhs": Functional(
        _path_functional, keys=("clock", "K_field", "alpha"),
        targets={"state": _harnack_alpha_state}, one_sided=("state",),
        check=lambda M, entry: check_alpha_form(M, entry.get("alpha"))),
    "gradient_rhs": Functional(
        _path_functional, keys=("K_field",),
        targets={"state": lambda state, ens, entry, clock: float(
            abs(state.grad_u[state.index_of(ens.x0)]))},
        one_sided=("state",)),
}


def resolve_entry(entry: dict, M: ModelManifold, seed: int, datum) -> tuple:
    """The (ensemble, clock) of an mc entry on M from datum, the one home of
    the x0, n_paths, dt and seed defaults; raises ValueError on an entry
    that its functional would not run or check, or with a value that is
    not a real number (n_paths, seed and grid_size: a whole one, and at
    least its _LEAST).  Builds no accumulator."""
    fid = entry.get("functional")
    if fid not in FUNCTIONALS:
        raise ValueError(f"unknown functional {fid!r}; known: "
                         f"{tuple(FUNCTIONALS)}")
    fn, compare = FUNCTIONALS[fid], entry.get("compare")
    if "compare" in entry and compare not in fn.compare_modes:
        raise ValueError(f"{fid} rows admit compare modes "
                         f"{fn.compare_modes}, not {compare!r}")
    # a key the functional does not read would hide an unchecked row
    reject_unknown(entry, fn.entry_keys(entry), f"an mc entry ({fid})")
    for key, value in entry.items():
        if key not in _WORD_KEYS:
            check_real(value, f"{key!r} of an mc entry ({fid})",
                       integral=key in _WHOLE_KEYS, least=_LEAST.get(key))
    if compare in fn.convex and M.sigma:
        raise ValueError(f"compare {compare!r} drops the sigma dL weight: "
                         "it needs sigma = 0")
    if "t" not in entry:
        raise ValueError(f"an mc entry ({fid}) needs a horizon t")
    ens = Ensemble(M, float(entry.get("x0", 0.5)),
                   int(entry.get("n_paths", 20000)),
                   float(entry.get("dt", 1e-3)), int(entry.get("seed", seed)))
    if ens.n_paths < 2:
        raise ValueError(f"n_paths = {ens.n_paths}: an mc entry needs at "
                         "least 2 paths")
    lo, hi = M.domain()
    if not (lo <= ens.x0 < hi if M.spec.periodic else lo <= ens.x0 <= hi):
        raise ValueError(f"x0 = {ens.x0} lies outside the domain "
                         f"[{lo}, {hi}] of {M.family}")
    _step_count(float(entry["t"]), ens.dt)
    spec = entry.get("clock", {"family": "linear"})   # a bad one fails here
    reject_unknown(spec, ("family", "params"), f"the clock of {fid}")
    clock = (clocks.make_clock(spec["family"], spec.get("params", {}),
                               float(entry["t"])) if "clock" in fn.keys
             else None)
    fn.check(M, entry)
    if fn.reads_datum:
        datum.callables(M)   # the grid-only eigen datum raises here
    return ens, clock


# ---------------------------------------------------------------------------
# time change by a cutoff function

_F_FLOOR = 1e-8   # a path has left the cutoff's support where f <= this


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
        alive &= ~(fv <= _F_FLOOR)
        inv = np.where(alive, fv, 1.0) ** -2.0
        T += np.where(alive, inv * dt, 0.0)
        for j, s in enumerate(checkpoints):
            hit = alive & ~done[j] & (T >= s)
            vals[j, hit] = inv[hit]
            done[j] |= hit

    def finish(x):
        means, ses = np.full((2, checkpoints.size), math.nan)
        for j in range(checkpoints.size):
            if np.count_nonzero(done[j]) >= 2:
                means[j], ses[j] = mean_and_stderr(vals[j, done[j]])
        return means, ses, float(np.mean(done, axis=1).min())

    return _run_alone(Ensemble(M, x0, n_paths, dt, seed, scheme),
                      Accumulator(steps, finish, advance_clock))
