"""Closed-form right-hand sides of the gradient inequality catalog.

Every bound is reduced to the normal form

    gamma * X <= a * Y + c,      X = |grad u|^2/u^2,  Y = Lu/u,

so a single margin checker serves the whole suite.  Bounds on Y alone are
encoded with gamma = 0 and a = +/-1.  bound_margins evaluates every id
on arrays of nodes; the two square-root bounds (yau, bakry-qian-sqrt) do
not fit the normal form and are evaluated there as stated.  All
constants are continuous through their internal branch points (K -> 0,
alpha -> 1, (Kt) ^ pi) by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .clocks import Clock
from .numerics import (check_real, coth, decay_rate, em1int,
                       integrate_smooth, reject_unknown, sign_changes, xcot,
                       xcoth)


class Bound(NamedTuple):
    params: dict = {}         # config param -> required, in sweep order
    driftless: bool = False   # a classical estimate stated for Z = 0


# The catalog: each id's config params, in the sweep order alpha, eps,
# K_prime, R, K_region (K_prime defaults to K, K_region to K^-), and
# whether a drift model skips it rather than test it on L = Delta + Z.
BOUNDS = {
    "davies": Bound({"alpha": True}, True),    # K^-/(alpha-1) constant
    "bakry-qian": Bound(driftless=True),       # (1 + 2/3 K^- t) coefficient
    "li-xu": Bound(driftless=True),            # sinh/cosh coefficient
    "yau": Bound(driftless=True),              # sqrt form in W = |grad u|^2/u
    "bakry-qian-sqrt": Bound(driftless=True),  # sqrt form in X
    "bbg": Bound(),                            # Bakry-Bolley-Gentil, Phi
    "lu-range": Bound(),                       # one-sided range for Y alone
    "exp-alpha": Bound({"alpha": True}),       # exp-integral clock
    "linear-alpha": Bound({"alpha": True}),    # linear clock
    "linear-unit": Bound(),                    # alpha = 1, K > 0
    "trig-alpha": Bound({"alpha": True}),      # trig clock
    "grad-decay": Bound({"K_prime": False}),   # K > 0, exponential decay
    "local-grad": Bound({"eps": True, "R": True, "K_region": False}),  # cutoff
    "local-alpha": Bound({"alpha": True, "R": True, "K_region": False}),
}
BOUND_IDS = tuple(BOUNDS)


def check_keys(bound_id: str, keys, extra: tuple | None = None) -> None:
    """Raise ValueError unless bound_id is known and keys hold each param
    it requires and nothing beyond its params and extra, by default the
    other keys eval_bound reads: n, t, K and, for bbg, the observed Y.
    keys maps each param to its value or list of values; a local bound's
    ball radius R must be positive and its K_region nonnegative."""
    if extra is None:
        extra = ("n", "t", "K") + (("Y",) if bound_id == "bbg" else ())
    if bound_id not in BOUNDS:
        raise ValueError(f"unknown bound id {bound_id!r}")
    spec = BOUNDS[bound_id].params
    missing = [k for k, required in spec.items() if required and k not in keys]
    if missing:
        raise ValueError(f"bound {bound_id!r} needs {missing}")
    reject_unknown(keys, (*spec, *extra), f"the params of bound {bound_id!r}")
    for key, sign in (("R", "positive"), ("K_region", "nonnegative")):
        values = keys[key] if key in keys else []
        what = f"param {key!r} of bound {bound_id!r}"
        for value in values if isinstance(values, list) else [values]:
            check_real(value, what)
            if not (value > 0 if key == "R" else value >= 0):
                raise ValueError(f"{what} must be {sign}, not {value!r}")


def sweep(entry: dict) -> tuple:
    """(id, parameter sets) of a config's bound entry {"id", "params"}: the
    product of its list-valued params, in sweep order.  A key the entry or
    its bound does not read, a missing required param, an empty list, or a
    value or list element that is not a real number raises."""
    bound_id, spec = entry["id"], entry.get("params") or {}
    reject_unknown(entry, ("id", "params"), f"bound {bound_id!r}")
    check_keys(bound_id, spec, ())
    keys = [k for k in BOUNDS[bound_id].params if k in spec]
    lists = [spec[k] if isinstance(spec[k], list) else [spec[k]] for k in keys]
    for key, values in zip(keys, lists):
        if not values:
            raise ValueError(f"param {key!r} of bound {bound_id!r} sweeps "
                             "an empty list")
        for value in values:
            check_real(value, f"param {key!r} of bound {bound_id!r}")
    return bound_id, [dict(zip(keys, c)) for c in itertools.product(*lists)]


@dataclass(frozen=True)
class BoundForm:
    """Normal form gamma * X <= a * Y + c with its validity flag."""

    bound_id: str
    gamma: float
    a: float
    c: float
    domain_ok: bool = True
    note: str = ""
    params: dict = field(default_factory=dict)

    def margin(self, X: float, Y: float) -> float:
        return self.a * Y + self.c - self.gamma * X

    def to_dict(self) -> dict:
        return {"bound_id": self.bound_id, "gamma": self.gamma, "a": self.a,
                "c": self.c, "domain_ok": self.domain_ok, "note": self.note,
                "params": dict(self.params)}


@dataclass(frozen=True)
class Margins:
    """Per-node verdicts of one bound id; see bound_margins."""

    gamma: float | None      # None: no normal form (square-root bounds)
    a: float | None
    c: float | np.ndarray    # per node for bbg; 0 without a normal form
    margin: np.ndarray       # NaN where domain_ok is False
    domain_ok: np.ndarray
    note: np.ndarray         # why a node is out of domain, else the remark
    skip_all: bool = False   # out of domain whatever the state


@dataclass(frozen=True)
class CheckResult:
    status: str              # "ok" or "out-of-domain"
    margin: float | None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# ---------------------------------------------------------------------------
# special functions of the catalog


def phi_bbg(K: float, t: float, r):
    """Comparison function Phi_t(r) of the Bakry-Bolley-Gentil bound.

    K sqrt(r) coth(K t sqrt(r)) for r > 0, the value 1/t at r = 0, and
    K sqrt(-r) cot(K t sqrt(-r)) on the admissible negative range
    r > -pi^2/(K t)^2.  Continuous through r = 0; written through
    x coth x / x cot x so the join is exact.
    """
    if K <= 0 or t <= 0:
        raise ValueError("phi_bbg needs K > 0 and t > 0")
    r = np.asarray(r, dtype=float)
    if np.any(r <= -math.pi**2 / (K * t) ** 2):
        raise ValueError("argument r out of domain: r <= -pi^2/(K t)^2")
    x = K * t * np.sqrt(np.abs(r))
    out = np.where(r >= 0, xcoth(x), xcot(x)) / t
    return out if out.ndim else float(out)


def beta_t_alpha(K: float, t: float, alpha: float) -> float:
    """Completed-square root used by the trig-clock bound.

    beta = sqrt((1+alpha)/(K t) - (9 pi^2 - 64)/(9 pi^2)) - 8/(3 pi);
    it solves beta^2 + (16/3pi) beta + 1 - (1+alpha)/(Kt) = 0.
    """
    if K == 0.0:
        raise ValueError("K must be nonzero")
    shift = (9.0 * math.pi**2 - 64.0) / (9.0 * math.pi**2)
    disc = (1.0 + alpha) / (K * t) - shift
    if disc < 0.0:
        raise ValueError("(1+alpha)/(Kt) below the admissible threshold")
    return math.sqrt(disc) - 8.0 / (3.0 * math.pi)


def local_betas(n: float, K_region: float, R: float, eps: float,
                alpha: float) -> tuple[float, float]:
    """Ball constants of the two local bounds for a ball of radius R.

    K_region is the modulus of the curvature lower bound on the ball
    (zero on nonnegatively curved regions).  Both constants decay to zero
    as R grows on flat regions.
    """
    if R <= 0 or eps <= 0 or alpha <= 1 or K_region < 0:
        raise ValueError("need R > 0, eps > 0, alpha > 1, K_region >= 0")
    cross = (math.pi / (2.0 * R)) * math.sqrt(K_region * (n - 1.0))
    beta_eps = (2.0 * K_region + cross
                + (math.pi**2 / (4.0 * R**2))
                * (4.0 + ((1.0 + eps) ** 2 / eps + 2.0) * n))
    beta_alpha = ((math.pi**2 / (2.0 * R**2))
                  * (2.0 + n + n * alpha**2 / (2.0 * (alpha - 1.0)))
                  + cross + 2.0 * K_region / (alpha - 1.0))
    return beta_eps, beta_alpha


def _exp_alpha_lhs_coeff(K: float, t: float, alpha: float) -> float:
    """1 + (2K/alpha) int_0^t (1-e^{-Ks/(a-1)})^2 ds / (1-e^{-Kt/(a-1)})^2."""
    if K == 0.0:
        return 1.0
    beta = K / (alpha - 1.0)
    x = beta * t
    if abs(x) < 1e-3:
        # series of int (1-e^{-beta s})^2 ds: cancellation kills the direct form
        integral = (beta**2 * t**3 / 3.0 - beta**3 * t**4 / 4.0
                    + 7.0 * beta**4 * t**5 / 60.0 - beta**5 * t**6 / 24.0)
    else:
        integral = (t + 2.0 * math.expm1(-x) / beta
                    - math.expm1(-2.0 * x) / (2.0 * beta))
    denom = math.expm1(-x) ** 2
    return 1.0 + 2.0 * K * integral / (alpha * denom)


def _li_xu_coeff(x: float) -> float:
    """1 + (sinh x cosh x - x)/sinh^2 x, continuous at 0 (value 1)."""
    if x < 1e-4:
        return 1.0 + 2.0 * x / 3.0 - 4.0 * x**3 / 45.0
    if x > 20.0:
        return 2.0
    sh = math.sinh(x)
    return 1.0 + float(coth(x)) - x / (sh * sh)


def _g3_y_coeff(beta: float, K_D: float, t: float, eps: float) -> float:
    """Y-coefficient of the local eps-form bound.

    2 (1+eps) beta int_0^t (e^{-2 beta s} - e^{-beta (s+t)}) e^{2 K_D s} ds
    divided by (1 - e^{-beta t})^2, in closed form.  The closed form cancels
    as beta t -> 0, so there the integrand is written through
    -expm1(-beta u)/beta (-> u, the linear clock at beta = 0) and integrated.
    """
    if abs(beta) * t < 1e-2:
        prof = (lambda u: -np.expm1(-beta * u) / beta) if beta else (lambda u: u)
        return 2.0 * (1.0 + eps) * decay_rate(beta, t) ** 2 * integrate_smooth(
            lambda s: prof(t - s) * np.exp(2.0 * (K_D - beta) * s), 0.0, t)
    integral = (em1int(2.0 * K_D - 2.0 * beta, t)
                - math.exp(-beta * t) * em1int(2.0 * K_D - beta, t))
    return 2.0 * (1.0 + eps) * beta * integral / math.expm1(-beta * t) ** 2


# ---------------------------------------------------------------------------
# the catalog


def eval_bound(bound_id: str, params: dict) -> BoundForm:
    """Evaluate one bound id into its (gamma, a, c) normal form.

    params carries n and t always, K (default 0), the bound's own params
    (BOUNDS; a missing required one raises KeyError, other keys are
    ignored) and, for bbg only, the observed Y needed to locate the
    comparison argument.  A local bound's R <= 0 or K_region < 0 raises
    ValueError from local_betas; check_keys rejects both at load.  Every
    other domain violation is reported through domain_ok = False with a
    note, not by raising.
    """
    if bound_id not in BOUNDS:
        raise ValueError(f"unknown bound id {bound_id!r}")
    n = float(params["n"])
    t = float(params["t"])
    if t <= 0:
        raise ValueError("t must be positive")
    K = float(params.get("K", 0.0))
    Km = max(-K, 0.0)
    spec = BOUNDS[bound_id].params
    p = {k: float(params[k]) for k in spec if spec[k] or k in params}
    alpha, eps, R = p.get("alpha"), p.get("eps"), p.get("R")
    K_prime, K_region = p.get("K_prime", K), p.get("K_region", Km)
    out_params = {k: v for k, v in params.items() if k not in ("n", "t")}

    def bad(note: str) -> BoundForm:
        return BoundForm(bound_id, math.nan, math.nan, math.nan,
                         domain_ok=False, note=note, params=out_params)

    def form(gamma, a, c, note=""):
        if not all(map(math.isfinite, (gamma, a, c))):
            return bad("non-finite constant")
        return BoundForm(bound_id, gamma, a, c, note=note, params=out_params)

    if bound_id == "davies":
        if alpha <= 1.0:
            return bad("alpha must exceed 1")
        c = n * Km * alpha**2 / (4.0 * (alpha - 1.0)) + n * alpha**2 / (2.0 * t)
        return form(1.0, alpha, c)

    if bound_id == "bakry-qian":
        a = 1.0 + (2.0 / 3.0) * Km * t
        c = n / (2.0 * t) + 0.5 * n * Km * (1.0 + Km * t / 3.0)
        return form(1.0, a, c)

    if bound_id == "li-xu":
        x = Km * t
        a = _li_xu_coeff(x)
        # (n K^-/2)(1 + coth(K^- t)) = n K^-/2 + (n/2t) x coth x
        c = 0.5 * n * Km + (n / (2.0 * t)) * float(xcoth(x))
        return form(1.0, a, c)

    if bound_id == "lu-range":
        if K > 0:
            cut = min(K * t, math.pi)
            c = (n / (4.0 * t)) * (cut + math.pi**2 / cut)
            return form(0.0, -1.0, c, note="upper bound on Y")
        cut = max(math.pi, -K * t)
        c = (n / (4.0 * t)) * (cut + math.pi**2 / cut)
        return form(0.0, 1.0, c, note="lower bound on Y")

    if bound_id == "exp-alpha":
        if alpha <= 1.0:
            return bad("alpha must exceed 1")
        gamma = _exp_alpha_lhs_coeff(K, t, alpha)
        c = (n * alpha / (2.0 * t)) * float(xcoth(K * t / (2.0 * (alpha - 1.0))))
        return form(gamma, 1.0, c)

    if bound_id == "linear-alpha":
        if alpha < 1.0 or alpha < 1.0 + Km * t - 1e-15:
            return bad("alpha must satisfy alpha >= 1 + K^- t")
        gamma = 1.0 + 2.0 * K * t / (3.0 * alpha)
        return form(gamma, 1.0, n * alpha / (2.0 * t))

    if bound_id == "linear-unit":
        if K <= 0:
            return bad("needs K > 0")
        gamma = 1.0 + 2.0 * K * t / 3.0
        return form(gamma, 1.0, n / (2.0 * t))

    if bound_id == "trig-alpha":
        if K == 0.0:
            return bad("needs K != 0")
        try:
            beta = beta_t_alpha(K, t, alpha)
        except ValueError as exc:
            return bad(str(exc))
        c = 0.5 * n * (0.5 * K * (alpha - 1.0)
                       + (1.0 + alpha) * math.pi**2 / (2.0 * K * t**2)
                       - 2.0 * math.pi * beta / t
                       - 3.0 * math.pi**2 / (8.0 * t))
        return form(1.0, alpha, c)

    if bound_id == "grad-decay":
        if K <= 0:
            return bad("needs K > 0")
        if K_prime < K:
            return bad("needs K_prime >= K")
        cut = min(1.0, K * t)
        c = 0.5 * n * (math.pi**2 * K / (2.0 * cut**2) - 0.5 * K
                       - 3.0 * K * math.pi**2 / (8.0 * cut))
        c *= math.exp(-2.0 * K_prime * max(t - 1.0 / K, 0.0))
        return form(1.0, 0.0, c)

    if bound_id == "bbg":
        if K <= 0:
            return bad("needs K > 0")
        if "Y" not in params:
            raise ValueError("bbg bound needs the observed Y in params")
        # the constant depends on Y: bound_margins at that one node
        m = bound_margins(bound_id, params, 0.0, float(params["Y"]))
        return form(1.0, 1.0, float(m.c)) if m.domain_ok else bad(str(m.note))

    if bound_id == "local-grad":
        if eps <= 0:
            return bad("needs eps > 0")
        beta, _ = local_betas(n, K_region, R, eps, alpha=2.0)
        a = _g3_y_coeff(beta, K_region, t, eps)
        c = 0.5 * n * (1.0 + eps) ** 2 * decay_rate(beta, t)
        return form(1.0, a, c)

    if bound_id == "local-alpha":
        if alpha <= 1:
            return bad("alpha must exceed 1")
        _, beta = local_betas(n, K_region, R, eps=1.0, alpha=alpha)
        c = 0.5 * n * alpha**2 * (K_region / (alpha - 1.0) + decay_rate(beta, t))
        return form(1.0, alpha, c)

    if bound_id in ("yau", "bakry-qian-sqrt"):  # no (gamma, a, c) form
        return bad("implicit sqrt bound, use check_inequality")

    raise AssertionError(bound_id)


def bound_margins(bound_id: str, params: dict, X, Y, W=None) -> Margins:
    """Margins of one bound at every node of observed X, Y (and W) arrays.

    params as for eval_bound, without the observed Y of bbg; W =
    |grad u|^2/u is needed by yau only.  margin >= 0 where the bound
    holds.  bbg is out of domain at the nodes whose Y leaves its window;
    skip_all marks a bound whose constants eval_bound rejects.
    """
    n, t = float(params["n"]), float(params["t"])
    K = float(params.get("K", 0.0))
    if t <= 0:
        raise ValueError("t must be positive")
    Km = max(-K, 0.0)
    X, Y = np.broadcast_arrays(np.asarray(X, dtype=float),
                               np.asarray(Y, dtype=float))
    if np.any(X < 0):
        raise ValueError("X is a square, must be nonnegative")
    full = lambda v: np.broadcast_to(v, X.shape)

    if bound_id in ("yau", "bakry-qian-sqrt"):
        # no (gamma, a, c) normal form: evaluated as stated
        h = n / (2.0 * t)
        if bound_id == "yau":
            if W is None:
                raise ValueError("yau bound needs W = |grad u|^2/u")
            root = (math.sqrt(2.0 * n * Km)
                    * np.sqrt(np.asarray(W, dtype=float) + h + 2.0 * n * Km))
        else:
            root = math.sqrt(n * Km) * np.sqrt(X + h + n * Km / 4.0)
        return Margins(None, None, 0.0, Y + root + h - X, full(True), full(""))
    if bound_id == "bbg" and K > 0:
        lam = 1.0 - 4.0 * Y / (n * K)
        inside = ~(lam <= -math.pi**2 / (K * t) ** 2)
        c = np.full(X.shape, math.nan)
        c[inside] = -0.5 * n * K + 0.5 * n * phi_bbg(K, t, lam[inside])
        ok = inside & np.isfinite(c)
        note = np.where(ok, "", np.where(inside, "non-finite constant",
                                         "Y outside the admissible window"))
        return Margins(1.0, 1.0, np.where(ok, c, 0.0),
                       np.where(ok, Y + c - X, math.nan), ok, note)
    form = eval_bound(bound_id, params)
    if not form.domain_ok:
        return Margins(None, None, 0.0, full(math.nan), full(False),
                       full(form.note), skip_all=True)
    return Margins(form.gamma, form.a, form.c,
                   form.a * Y + form.c - form.gamma * X, full(True),
                   full(form.note))


def check_inequality(bound_id: str, params: dict, X: float, Y: float) -> CheckResult:
    """Margin of one bound at observed (X, Y); >= 0 means it holds.

    bound_margins at a single node; yau takes W = |grad u|^2/u from params.
    """
    m = bound_margins(bound_id, params, X, Y, params.get("W"))
    if not m.domain_ok:
        return CheckResult("out-of-domain", None, str(m.note))
    return CheckResult("ok", float(m.margin), str(m.note))


# ---------------------------------------------------------------------------
# non-convex boundary data


@dataclass(frozen=True)
class NonconvexData:
    """Constants of the boundary-correction construction.

    Built from the comparison profile h_s = cos(sqrt(k) s) -
    (theta/sqrt(k)) sin(sqrt(k) s) on a collar of depth r0: delta is the
    drift strength of the corrector, kappa its sup bound, gamma the sup of
    its logarithmic gradient.
    """

    k: float
    theta: float
    sigma: float
    r0: float
    d: int
    zrho_norm: float
    delta: float
    kappa: float
    gamma: float

    def h(self, s):
        s = np.asarray(s, dtype=float)
        if self.k == 0.0:
            out = 1.0 - self.theta * s
        else:
            rk = math.sqrt(self.k)
            out = np.cos(rk * s) - (self.theta / rk) * np.sin(rk * s)
        return out if out.ndim else float(out)

    def K_phi(self, K: float) -> float:
        return -2.0 * (K - self.delta + self.sigma * self.zrho_norm)

    def K_alpha_phi(self, K: float, alpha: float) -> float:
        if alpha <= self.kappa**2:
            raise ValueError("alpha must exceed kappa^2")
        Km = max(-K, 0.0)
        return (-2.0 * self.kappa**2
                * (self.delta - self.sigma * self.zrho_norm + Km)
                / (alpha - self.kappa**2))


def nonconvex_constants(k: float, theta: float, sigma: float, r0: float,
                        d: int, zrho_norm: float = 0.0) -> NonconvexData:
    """Collar constants (delta, kappa, gamma) for a non-convex boundary.

    Requires sigma < 0 (a convex boundary needs no correction) and a
    profile h that stays above h(r0) on [0, r0).  The kappa double
    integral has a bounded integrand despite the (h - h_{r0})^{1-d}
    factor (near r0 it behaves like (r0 - s)/d), so integrate_smooth
    takes it, as it takes the other two integrals.
    """
    if sigma >= 0:
        raise ValueError("sigma must be negative (non-convex boundary)")
    if r0 <= 0 or k < 0 or theta < 0 or d < 1 or zrho_norm < 0:
        raise ValueError("bad collar parameters")
    data = NonconvexData(k=k, theta=theta, sigma=sigma, r0=r0, d=d,
                         zrho_norm=zrho_norm, delta=0.0, kappa=1.0, gamma=0.0)
    h_r0 = float(data.h(r0))
    # h(s) - h(r0) as a product that does not cancel where s nears r0 and
    # the difference falls below the rounding of h: exactly theta (r0 - s)
    # at k = 0, and for k > 0 the cos and the sin difference each carry
    # sin(sqrt(k) (s - r0) / 2)
    s = np.linspace(0.0, r0 * (1.0 - 1e-9), 211)
    if k == 0.0:
        probe = theta * (r0 - s)
    else:
        rk, mid = math.sqrt(k), 0.5 * math.sqrt(k) * (s + r0)
        probe = (-2.0 * np.sin(0.5 * rk * (s - r0))
                 * (np.sin(mid) + (theta / rk) * np.cos(mid)))
    if np.min(probe) <= 0.0:
        raise ValueError("h - h(r0) must stay positive on [0, r0)")

    hm = lambda s: data.h(s) - h_r0
    w = lambda r: hm(r) ** (d - 1)
    base = integrate_smooth(w, 0.0, r0, 1e-12)
    if base <= 0.0 or 1.0 - h_r0 <= 0.0:
        raise ValueError("degenerate collar: flat profile")
    delta = -sigma * (1.0 - h_r0) ** (d - 1) / base

    def inner(s):  # int_s^r0 w at each node of the outer rule
        return np.array([integrate_smooth(w, si, r0, 1e-12) for si in s])

    # the kappa integrand bends in a layer at r0 that thins to nothing as
    # r0 nears the turn of h; pieces graded towards r0 resolve it
    kappa = 1.0 + delta * integrate_smooth(
        lambda s: hm(s) ** (1 - d) * inner(s), 0.0, r0, 1e-11,
        breaks=(r0 * (1.0 - 16.0**-1), r0 * (1.0 - 16.0**-2)))
    gamma = delta * (1.0 - h_r0) ** (1 - d) * base
    return replace(data, delta=delta, kappa=kappa, gamma=gamma)


def nonconvex_bound_rhs(data: NonconvexData, clock: Clock, t: float,
                        eps: float, n: float, K: float,
                        alpha: float | None = None,
                        mode: str = "plain") -> BoundForm:
    """Coefficient record of the two non-convex-boundary inequalities.

    mode "plain":  (phi^2/kappa^2) X <= a Y + c   with
        a = 2 int l |l'| e^{(eps - K_phi) s} ds,
        c = (n/2 + gamma^2/eps) int l'^2 e^{(eps - K_phi) s} ds.
    mode "alpha":  (1 + g) phi^2 X <= alpha Y + c  with
        g = 2 (alpha/kappa^2 - 1) int |l l'| e^{(K_ap + K_phi - eps) s} ds,
        c = (n alpha^2/8 + alpha^2 gamma^2 / (4 eps (alpha - kappa^2)))
            * int e^{(K_ap - eps) s} ((K_ap - eps) l + 2 l')^2 ds.

    phi has no runtime representation; only its bounds kappa = sup phi and
    gamma = sup |grad log phi| enter, so the returned gamma coefficient is
    the multiplier of phi^2 X.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if abs(clock.t - t) > 1e-12 * (1.0 + t):
        raise ValueError("clock horizon must match t")
    K_phi = data.K_phi(K)
    # |l'| and |l l'| have kinks where the clock turns; integrate piecewise
    kinks = sign_changes(lambda s: clock.l(s) * clock.dl(s), 0.0, t)
    if mode == "plain":
        rate = eps - K_phi
        a = 2.0 * integrate_smooth(
            lambda s: clock.l(s) * np.abs(clock.dl(s)) * np.exp(rate * s), 0.0, t,
            breaks=kinks)
        c = (0.5 * n + data.gamma**2 / eps) * integrate_smooth(
            lambda s: clock.dl(s) ** 2 * np.exp(rate * s), 0.0, t)
        return BoundForm("nonconvex-plain", gamma=1.0 / data.kappa**2, a=a, c=c,
                         params={"eps": eps, "K": K, "n": n, "t": t})
    if mode == "alpha":
        if alpha is None or alpha <= data.kappa**2:
            raise ValueError("alpha mode needs alpha > kappa^2")
        K_ap = data.K_alpha_phi(K, alpha)
        g = 2.0 * (alpha / data.kappa**2 - 1.0) * integrate_smooth(
            lambda s: np.abs(clock.l(s) * clock.dl(s))
            * np.exp((K_ap + K_phi - eps) * s), 0.0, t, breaks=kinks)
        scale = (n * alpha**2 / 8.0
                 + alpha**2 * data.gamma**2 / (4.0 * eps * (alpha - data.kappa**2)))
        c = scale * integrate_smooth(
            lambda s: np.exp((K_ap - eps) * s)
            * ((K_ap - eps) * clock.l(s) + 2.0 * clock.dl(s)) ** 2, 0.0, t)
        return BoundForm("nonconvex-alpha", gamma=1.0 + g, a=float(alpha), c=c,
                         params={"eps": eps, "K": K, "n": n, "t": t,
                                 "alpha": alpha})
    raise ValueError(f"unknown mode {mode!r}")
