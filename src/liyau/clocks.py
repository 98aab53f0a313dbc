"""Deterministic test clocks l on [0, t] with l(0) = 1 and l(t) = 0.

Each family is the reference process behind one group of closed-form
bounds; the weighted integrals of l and l' are what turn the pathwise
estimates into explicit constants.  Families:

    linear        l = (t-s)/t
    trig          l = e^{K s} (cos(pi s / 2t) + a sin(pi s / t))
    exp-integral  l = int_0^{t-s} e^{K r/(a-1)} dr / int_0^t e^{K r/(a-1)} dr
    exp-linear    l = e^{-K s/(a-1)} (t-s)/t
    bbg           l = h_s e^{K s},  h the sinh / linear / sin comparison
    local-exp     l = (e^{-b s} - e^{-b t}) / (1 - e^{-b t})

FAMILIES gives each family's params (a, K, alpha, lam, beta = b) and
their defaults; make_clock takes nothing else, and real numbers only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import QuadratureError, em1int, integrate_smooth, with_defaults

# each family's params and their defaults; None marks a required one
FAMILIES = {
    "linear": {},
    "trig": {"a": 0.0, "K": 0.0},
    "exp-integral": {"alpha": None, "K": 0.0},
    "exp-linear": {"alpha": None, "K": 0.0},
    "bbg": {"K": None, "lam": None},
    "local-exp": {"beta": 0.0},
}

_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class Clock:
    family: str
    t: float
    params: dict = field(default_factory=dict)

    def l(self, s):
        return _eval(self.family, self.t, self.params, np.asarray(s, dtype=float), 0)

    def dl(self, s):
        return _eval(self.family, self.t, self.params, np.asarray(s, dtype=float), 1)


def make_clock(family: str, params: dict | None = None, t: float = 1.0) -> Clock:
    """The clock of family on [0, t] with the defaults of FAMILIES; an
    unknown family or param, or a param out of its range, raises."""
    if family not in FAMILIES:
        raise ValueError(f"unknown clock family {family!r}")
    if t <= 0:
        raise ValueError("horizon t must be positive")
    params = with_defaults(params, FAMILIES[family], f"clock {family!r}")
    if family in ("exp-integral", "exp-linear"):
        if params["alpha"] is None or params["alpha"] <= 1.0:
            raise ValueError(f"{family} clock needs alpha > 1")
    elif family == "bbg":
        K, lam = params["K"], params["lam"]
        if K is None or K <= 0:
            raise ValueError("bbg clock needs K > 0")
        if lam is None or lam <= -math.pi**2 / (K * t) ** 2:
            raise ValueError("bbg clock needs lam > -pi^2/(K t)^2")
    clock = Clock(family=family, t=float(t), params=params)
    l0 = float(clock.l(0.0))
    lt = float(clock.l(t))
    if abs(l0 - 1.0) > _ENDPOINT_TOL or abs(lt) > _ENDPOINT_TOL:
        raise ValueError(f"clock endpoints off: l(0)={l0}, l(t)={lt}")
    return clock


def _eval(family, t, p, s, order):
    if family == "linear":
        out = (t - s) / t if order == 0 else np.full_like(s, -1.0 / t)
    elif family == "trig":
        K, a = p["K"], p["a"]
        e = np.exp(K * s)
        base = np.cos(np.pi * s / (2 * t)) + a * np.sin(np.pi * s / t)
        if order == 0:
            out = e * base
        else:
            osc = (-(np.pi / (2 * t)) * np.sin(np.pi * s / (2 * t))
                   + a * (np.pi / t) * np.cos(np.pi * s / t))
            out = e * (K * base + osc)
    elif family == "exp-integral":
        beta = p["K"] / (p["alpha"] - 1.0)
        if abs(beta) * t < 1e-13:  # linear limit; dodge subnormal expm1 ratios
            out = (t - s) / t if order == 0 else np.full_like(s, -1.0 / t)
        else:
            denom = math.expm1(beta * t)
            if order == 0:
                out = np.expm1(beta * (t - s)) / denom
            else:
                out = -beta * np.exp(beta * (t - s)) / denom
    elif family == "exp-linear":
        beta = p["K"] / (p["alpha"] - 1.0)
        e = np.exp(-beta * s)
        if order == 0:
            out = e * (t - s) / t
        else:
            out = -beta * e * (t - s) / t - e / t
    elif family == "bbg":
        K, lam = p["K"], p["lam"]
        w = K * math.sqrt(abs(lam))
        e = np.exp(K * s)
        if abs(w) * t < 1e-10:
            h, dh = (t - s) / t, np.full_like(s, -1.0 / t)
        elif lam > 0:
            d = math.sinh(w * t)
            h, dh = np.sinh(w * (t - s)) / d, -w * np.cosh(w * (t - s)) / d
        else:
            d = math.sin(w * t)
            h, dh = np.sin(w * (t - s)) / d, -w * np.cos(w * (t - s)) / d
        out = e * h if order == 0 else e * (K * h + dh)
    elif family == "local-exp":
        beta = p["beta"]
        if abs(beta) * t < 1e-13:  # linear limit; dodge subnormal expm1 ratios
            out = (t - s) / t if order == 0 else np.full_like(s, -1.0 / t)
        else:
            denom = -math.expm1(-beta * t)
            if order == 0:
                out = (np.expm1(-beta * s) - math.expm1(-beta * t)) / denom
            else:
                out = -beta * np.exp(-beta * s) / denom
    else:  # pragma: no cover
        raise ValueError(family)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# weighted integrals


def clock_integrals(clock: Clock, K: float) -> dict:
    """Weighted integrals of the clock against e^{-2 K s}.

    Returns {"deriv_sq", "sq_prime", "sq"} for
        int l'^2 e^{-2Ks},  int (l^2)' e^{-2Ks},  int l^2 e^{-2Ks}.
    Families with closed forms are cross-checked against the quadrature
    to 1e-9 and raise on disagreement.  The quadrature tolerance is 1e-10.
    """
    t = clock.t
    w = lambda s: np.exp(-2.0 * K * s)
    deriv_sq = integrate_smooth(lambda s: clock.dl(s) ** 2 * w(s), 0.0, t)
    sq = integrate_smooth(lambda s: clock.l(s) ** 2 * w(s), 0.0, t)
    sq_prime = integrate_smooth(
        lambda s: 2.0 * clock.l(s) * clock.dl(s) * w(s), 0.0, t)

    closed = _closed_forms(clock, K)
    for name, value in closed.items():
        got = {"deriv_sq": deriv_sq, "sq_prime": sq_prime, "sq": sq}[name]
        if abs(got - value) > 1e-9 * (1.0 + abs(value)):
            raise QuadratureError(
                f"clock integral {name} disagrees with closed form: "
                f"{got} vs {value}")
    # integration by parts: int (l^2)' e^{-2Ks} = -1 + 2K int l^2 e^{-2Ks}
    parts = -1.0 + 2.0 * K * sq
    if abs(sq_prime - parts) > 1e-8 * (1.0 + abs(parts)):
        raise QuadratureError("clock integral identity violated")
    return {"deriv_sq": deriv_sq, "sq_prime": sq_prime, "sq": sq}


def _closed_forms(clock: Clock, K: float) -> dict:
    t = clock.t
    out = {}
    if clock.family == "linear":
        if K == 0.0:
            out["deriv_sq"] = 1.0 / t
            out["sq"] = t / 3.0
            out["sq_prime"] = -1.0
        else:
            out["deriv_sq"] = em1int(-2.0 * K, t) / t**2
    elif clock.family == "trig" and K == clock.params["K"]:
        a = clock.params["a"]
        two_k_sq = K * t * (1.0 + a * a) + 16.0 * K * t * a / (3.0 * math.pi)
        if K != 0.0:
            out["sq"] = two_k_sq / (2.0 * K)
        out["deriv_sq"] = (0.5 * K * two_k_sq - K
                           + math.pi**2 * a * a / (2.0 * t)
                           + math.pi**2 / (8.0 * t)
                           + 2.0 * math.pi * a / (3.0 * t))
    return out


def gamma_integral(clock: Clock, K0: float, alpha: float) -> float:
    """Sharpening constant  2 K0 int_0^t l^2 e^{2 a K0 s/(a-1)} ds.

    Strictly exceeds 1/alpha - 1 for every admissible nonincreasing clock; the
    exp-integral family additionally carries a closed form used as a
    cross-check.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    t = clock.t
    c = 2.0 * alpha * K0 / (alpha - 1.0)
    if abs(c) * t > 690.0:
        raise QuadratureError("gamma weight overflows; shrink K0*t/(alpha-1)")
    val = 2.0 * K0 * integrate_smooth(
        lambda s: clock.l(s) ** 2 * np.exp(c * s), 0.0, t, 1e-12)
    if (clock.family == "exp-integral" and K0 == clock.params["K"]
            and alpha == clock.params["alpha"] and K0 != 0.0):
        closed = _gamma_exp_integral(K0, alpha, t)
        if abs(val - closed) > 1e-8 * (1.0 + abs(closed)):
            raise QuadratureError(
                f"gamma closed form mismatch: {val} vs {closed}")
    return val


def _gamma_exp_integral(K: float, alpha: float, t: float) -> float:
    """Closed form of gamma_integral for the exp-integral clock.

    Normalised by e^{2 beta t} so both curvature signs stay inside the
    floating range (the raw antiderivatives overflow for beta t >> 1).
    """
    beta = K / (alpha - 1.0)
    if beta > 0:
        e2kt = math.exp(2.0 * K * t)
        num = (math.expm1(2.0 * K * t) / (2.0 * K)
               - 2.0 * (e2kt - math.exp(-beta * t)) / ((2.0 * alpha - 1.0) * beta)
               + (e2kt - math.exp(-2.0 * beta * t)) / (2.0 * alpha * beta))
        den = (-math.expm1(-beta * t)) ** 2
    else:
        num = ((math.exp(2.0 * alpha * beta * t) - math.exp(2.0 * beta * t)) / (2.0 * K)
               - 2.0 * (math.exp(2.0 * alpha * beta * t) - math.exp(beta * t))
               / ((2.0 * alpha - 1.0) * beta)
               + math.expm1(2.0 * alpha * beta * t) / (2.0 * alpha * beta))
        den = math.expm1(beta * t) ** 2
    return 2.0 * K * num / den


def alpha_form_integral(clock: Clock, K: float, alpha: float) -> float:
    """Quadratic clock cost  int_0^t e^{2Ks/(a-1)} (K l/(a-1) + l')^2 ds.

    This is the constant produced by the alpha-form pathwise estimate for
    a constant curvature bound; the exp-integral clock turns it into
    (K / 2(a-1)) coth(K t / 2(a-1)) and the exp-linear clock into 1/t.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    beta = K / (alpha - 1.0)
    t = clock.t
    return integrate_smooth(
        lambda s: np.exp(2.0 * beta * s) * (beta * clock.l(s) + clock.dl(s)) ** 2,
        0.0, t, 1e-12)
