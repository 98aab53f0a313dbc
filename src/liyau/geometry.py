"""Model geometries realised as one-dimensional coordinate problems.

Every space carries the weighted generator

    L = d^2/dr^2 + b(r) d/dr + Z(r) d/dr,

where b encodes the volume element of the reduction: b = 0 on flat
families, b = (m-1) cot r on the round sphere, b = (m-1) coth r in
hyperbolic space, b = (m-1)/r for the flat radial coordinate.  The
descriptor stores the curvature-dimension constants (K, n) and, when a
boundary exists, the convexity lower bound sigma of its second
fundamental form.  Those three numbers parameterise every bound in the
catalog and every exponential path weight in the Monte Carlo layer.
FAMILIES holds each family's Family record (its b beside its profile),
read through ModelManifold.spec, and DRIFTS each drift Z of the families
without b, with its sharp CD(K, n) constant.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import check_real, reject_unknown, with_defaults


class Family(NamedTuple):
    """The facts of one model family; README's family table lists them."""

    keys: tuple                     # the manifold fields that ends reads
    ends: Callable                  # their values -> the (lo, hi) grid ends
    walls: tuple = (False, False)   # which of lo, hi reflect
    periodic: bool = False          # the grid leaves hi out
    radial: bool = False            # an open pole end: the chart guard
    flux_form: bool = False         # solved as w^{-1} (w u')'
    compact: bool = False           # the grid covers the whole space
    sharp_K: Callable = lambda m: 0.0   # K of the model without drift
    profile: Callable = np.ones_like    # volume density profile^(m-1)
    b: Callable | None = None   # (m-1, x, out) -> volume drift, or none
    rmax: float = 8.0
    grid_size: int = 401


FAMILIES = {
    "euclidean-line": Family(("rmax",), lambda r: (-r, r)),
    "euclidean-radial": Family(("pole_cut", "rmax"), lambda c, r: (c, r),
                               radial=True, profile=lambda x: x,
                               b=lambda k, x, o: np.divide(k, x, out=o)),
    "circle": Family((), lambda: (0.0, 2.0 * math.pi), periodic=True,
                     compact=True, grid_size=256),
    "half-line-neumann": Family(("rmax",), lambda r: (0.0, r),
                                walls=(True, False)),
    "interval-neumann": Family(("length",), lambda L: (0.0, L),
                               walls=(True, True), compact=True,
                               grid_size=257),
    "sphere-radial": Family(("pole_cut",), lambda c: (c, math.pi - c),
                            radial=True, flux_form=True, compact=True,
                            sharp_K=lambda m: m - 1.0, profile=np.sin,
                            b=lambda k, x, o: np.divide(k, np.tan(x, out=o), out=o)),
    "hyperbolic-radial": Family(("pole_cut", "rmax"), lambda c, r: (c, r),
                                radial=True, flux_form=True,
                                sharp_K=lambda m: -(m - 1.0), rmax=3.0,
                                profile=np.sinh, b=lambda k, x, o: np.multiply(
                                    k, np.add(1.0, np.divide(2.0, np.expm1(
                                        np.multiply(2.0, x, out=o), out=o),
                                        out=o), out=o), out=o)),
}

class Drift(NamedTuple):
    """One drift Z of the catalog DRIFTS."""

    params: dict        # param -> default
    Z: Callable         # Z(x, **params)
    sharp_K: Callable   # (n, lo, hi, **params) -> inf of -Z' - Z^2/(n-1)
    circle: Callable = lambda **params: False   # Z has period 2 pi


def _sine_K(n, lo, hi, a, k):
    """-Z' - Z^2/(n-1) = a^2 (u^2 - 1)/(n-1) - a k u is convex in u = cos kx:
    least at its vertex clipped to u's range, [-1, 1] on a domain of width
    pi/|k| or more, else [cos k hi, 1] (such a domain starts at lo = 0)."""
    if not (a and k):
        return 0.0
    u_lo = -1.0 if abs(k) * (hi - lo) >= math.pi else math.cos(k * hi)
    u = min(max(k * (n - 1.0) / (2.0 * a), u_lo), 1.0)
    return a * a * (u * u - 1.0) / (n - 1.0) - a * k * u


# The drift catalog; README's drift table lists it
DRIFTS = {
    "ou": Drift({"c": 1.0, "center": 0.0}, lambda x, c, center: c * (center - x),
                lambda n, lo, hi, c, center: c - (c * max(
                    center - lo, hi - center)) ** 2 / (n - 1.0) if c else 0.0),
    "sine": Drift({"a": 1.0, "k": 1}, lambda x, a, k: a * np.sin(k * x),
                  _sine_K, lambda a, k: float(k).is_integer()),
}


@dataclass(frozen=True)
class ModelManifold:
    """Descriptor of a model geometry with its reduction data."""

    family: str
    m: int
    n: float
    K: float
    sigma: float | None = None
    drift_id: str = "none"           # a DRIFTS id, with its params
    drift_params: tuple = ()         # as sorted (param, value) pairs
    length: float = math.pi          # interval families
    rmax: float = 8.0                # truncation radius for unbounded radial grids
    pole_cut: float = 1e-3           # pole offset for sphere/hyperbolic grids

    # -- structural queries -------------------------------------------------

    @property
    def spec(self) -> Family:
        return FAMILIES[self.family]

    @property
    def has_boundary(self) -> bool:
        return any(self.spec.walls)

    # -- coefficients of the reduction --------------------------------------

    def b(self, x, out=None):
        """Volume-element drift of the reduction, into out if given."""
        x = np.asarray(x, dtype=float)
        if self.spec.b is not None:
            out = self.spec.b(self.m - 1, x, out)
        elif out is None:
            out = np.zeros_like(x)
        else:
            out.fill(0.0)
        return out if out.ndim else float(out)

    def drift(self, x):
        """The drift Z of a drift model."""
        return DRIFTS[self.drift_id].Z(x, **dict(self.drift_params))

    def b_total(self, x, out=None):
        """Full first-order coefficient b(x) + Z(x) of the generator, into
        out if given: b itself when the model has no drift."""
        if self.drift_id == "none":
            return self.b(x, out)
        out = np.add(self.b(x, out), self.drift(x), out=out)
        return out if out.ndim else float(out)

    def weight(self, x):
        """Density of the Riemannian volume element in the coordinate."""
        out = self.spec.profile(np.asarray(x, dtype=float)) ** (self.m - 1)
        return out if out.ndim else float(out)

    # -- domains and grids ---------------------------------------------------

    def domain(self):
        """Coordinate range (lo, hi) covered by solver grids."""
        spec = self.spec
        return spec.ends(*(getattr(self, key) for key in spec.keys))

    def grid(self, size: int) -> np.ndarray:
        lo, hi = self.domain()
        return np.linspace(lo, hi, size, endpoint=not self.spec.periodic)

    def boundaries(self):
        """Reflecting walls as (coordinate, inward direction) pairs."""
        return tuple((pos, direction) for pos, direction, wall
                     in zip(self.domain(), (+1.0, -1.0), self.spec.walls)
                     if wall)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Every field the family reads, for manifold_from_dict."""
        drift = None if self.drift_id == "none" else {
            "id": self.drift_id, "params": dict(self.drift_params)}
        doc = {"family": self.family, "m": self.m, "n": self.n,
               "K": self.K, "drift": drift, "sigma": self.sigma}
        doc.update((key, getattr(self, key)) for key in self.spec.keys)
        return doc


def make_model_manifold(family: str, m: int = 1, n: float | None = None,
                        drift: dict | None = None, *, K: float | None = None,
                        sigma: float | None = None, length: float = math.pi,
                        rmax: float | None = None,
                        pole_cut: float = 1e-3) -> ModelManifold:
    """Instantiate a model manifold with its curvature table filled in.

    K defaults to the sharp CD(K, n) constant, and a given K may only lower
    it: the family's sharp_K(m), or with a drift {"id", "params"} from
    DRIFTS (flat 1-D families only, and n > 1) the infimum of -Z' -
    Z^2/(n-1) over the domain of the walk, a line or half line in full.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    spec = FAMILIES[family]
    for key, value in (("m", m), ("n", n), ("K", K), ("sigma", sigma),
                       ("length", length), ("rmax", rmax),
                       ("pole_cut", pole_cut)):
        if value is not None:
            check_real(value, f"manifold key {key!r}")
    if m < 1 or m != int(m):
        raise ValueError("m must be a positive integer")
    n = float(m) if n is None else n
    if n < m:
        raise ValueError(f"effective dimension n={n} must be >= m={m}")
    model_K, drift_id, params = spec.sharp_K(m), "none", {}
    if drift is not None:
        reject_unknown(drift, ("id", "params"), "the drift")
        if (drift_id := drift.get("id")) not in DRIFTS:
            raise ValueError(f"unknown drift {drift_id!r}; known: {tuple(DRIFTS)}")
        params = with_defaults(drift.get("params"), DRIFTS[drift_id].params,
                               f"drift {drift_id!r}")
        if spec.b is not None:
            raise ValueError(f"drift not supported on {family}: no radial reduction")
        if n == 1:
            raise ValueError("CD(K, 1) holds for no K with a drift: n must be > 1")
        if spec.periodic and not DRIFTS[drift_id].circle(**params):
            raise ValueError(f"the circle cannot carry the drift {drift}")
        lo, hi = spec.ends(*({"length": length, "rmax": math.inf}[key]
                             for key in spec.keys))   # the walk's domain
        model_K = DRIFTS[drift_id].sharp_K(n, lo, hi, **params)
        if not math.isfinite(model_K):
            raise ValueError(f"drift {drift} has no finite CD constant on {family}")
    if K is not None:
        if K > model_K + 1e-12 * (1.0 + abs(model_K)):
            raise ValueError(f"K={K} is above the sharp CD(K, n) constant {model_K}")
        model_K = K

    if sigma is not None and not any(spec.walls):
        raise ValueError(f"{family} has no boundary, sigma must be absent")
    if sigma is not None and sigma > 1e-12:
        raise ValueError("flat boundaries are totally geodesic: sigma <= 0 only")
    model_sigma = (0.0 if sigma is None else sigma) if any(spec.walls) else None
    return ModelManifold(family=family, m=int(m), n=float(n), K=float(model_K),
                         sigma=model_sigma, drift_id=drift_id,
                         drift_params=tuple(sorted(params.items())),
                         length=float(length),
                         rmax=float(spec.rmax if rmax is None else rmax),
                         pole_cut=float(pole_cut))


def manifold_from_dict(doc: dict) -> ModelManifold:
    """make_model_manifold of the keys doc sets, a None key unset; a key it
    does not read raises."""
    reject_unknown(doc, ("family", "m", "n", "drift", "K", "sigma", "length",
                         "rmax", "pole_cut"), "the manifold")
    return make_model_manifold(**{k: v for k, v in doc.items() if v is not None})
