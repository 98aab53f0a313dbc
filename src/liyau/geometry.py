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
FAMILIES holds each family's Family record, which heatflow and
stochastic read through ModelManifold.spec.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .numerics import check_real


class Family(NamedTuple):
    """The facts of one model family; README's family table lists them."""

    keys: tuple                     # the manifold fields that ends reads
    ends: Callable                  # their values -> the (lo, hi) grid ends
    walls: tuple = (False, False)   # which of lo, hi reflect
    periodic: bool = False          # the grid leaves hi out
    radial: bool = False            # an open pole end: the chart guard
    flux_form: bool = False         # solved as w^{-1} (w u')'
    kernel: bool = False            # the kernel scheme's closed form
    compact: bool = False           # the grid covers the whole space
    sharp_K: Callable = lambda m: 0.0   # the driftless model's K
    profile: Callable = np.ones_like    # volume density profile^(m-1)
    rmax: float = 8.0
    grid_size: int = 401


FAMILIES = {
    "euclidean-line": Family(("rmax",), lambda r: (-r, r), kernel=True),
    "euclidean-radial": Family(("pole_cut", "rmax"), lambda c, r: (c, r),
                               radial=True, kernel=True,
                               profile=lambda x: x),
    "circle": Family((), lambda: (0.0, 2.0 * math.pi), periodic=True,
                     compact=True, grid_size=256),
    "half-line-neumann": Family(("rmax",), lambda r: (0.0, r),
                                walls=(True, False), kernel=True),
    "interval-neumann": Family(("length",), lambda L: (0.0, L),
                               walls=(True, True), compact=True,
                               grid_size=257),
    "sphere-radial": Family(("pole_cut",), lambda c: (c, math.pi - c),
                            radial=True, flux_form=True, compact=True,
                            sharp_K=lambda m: m - 1.0, profile=np.sin),
    "hyperbolic-radial": Family(("pole_cut", "rmax"), lambda c, r: (c, r),
                                radial=True, flux_form=True,
                                sharp_K=lambda m: -(m - 1.0), rmax=3.0,
                                profile=np.sinh),
}

# Named drift coefficients; a driftless model uses "none".
_DRIFTS: dict[str, object] = {"none": None}


def register_drift(drift_id: str, fn) -> None:
    """Register a bounded drift coefficient Z(x) under an id."""
    if drift_id == "none":
        raise ValueError("'none' is reserved for the zero drift")
    _DRIFTS[drift_id] = fn


@dataclass(frozen=True)
class ModelManifold:
    """Descriptor of a model geometry with its reduction data."""

    family: str
    m: int
    n: float
    K: float
    sigma: float | None = None
    drift_id: str = "none"
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
        """Volume-element drift of the radial reduction, into out if given."""
        x = np.asarray(x, dtype=float)
        if self.family == "euclidean-radial":
            out = np.divide(self.m - 1, x, out=out)
        elif self.family == "sphere-radial":
            out = np.divide(self.m - 1, np.tan(x, out=out), out=out)
        elif self.family == "hyperbolic-radial":
            out = np.expm1(np.multiply(2.0, x, out=out), out=out)
            out = np.multiply(self.m - 1, np.add(
                1.0, np.divide(2.0, out, out=out), out=out), out=out)
        elif out is None:
            out = np.zeros_like(x)
        else:
            out.fill(0.0)
        return out if out.ndim else float(out)

    def drift(self, x):
        fn = _DRIFTS[self.drift_id]
        if fn is None:
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            return out if out.ndim else float(out)
        return fn(x)

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
        doc = {"family": self.family, "m": self.m, "n": self.n,
               "K": self.K, "drift": self.drift_id, "sigma": self.sigma}
        doc.update((key, getattr(self, key)) for key in self.spec.keys)
        return doc


def make_model_manifold(family: str, m: int = 1, n: float | None = None,
                        drift: str = "none", *, K: float | None = None,
                        sigma: float | None = None, length: float = math.pi,
                        rmax: float | None = None,
                        pole_cut: float = 1e-3) -> ModelManifold:
    """Instantiate a model manifold with its curvature table filled in.

    A user-supplied K may only lower the model value (any lower bound of
    the curvature is admissible, the sharp one is the default).  Drifts
    are only supported on the flat 1-D families, where the coordinate is
    the manifold itself; they require an explicit K.
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
    if drift not in _DRIFTS:
        raise ValueError(f"unregistered drift {drift!r}")
    if drift != "none":
        if spec.radial:
            raise ValueError(f"drift not supported on {family}: no radial reduction")
        if K is None:
            raise ValueError("a drift model needs an explicit curvature bound K")
        model_K = K
    else:
        # the sharp curvature lower bound of the driftless model
        model_K = spec.sharp_K(m)
        if K is not None:
            if K > model_K + 1e-12:
                raise ValueError(
                    f"K={K} is not a valid lower bound: model value is {model_K}"
                )
            model_K = K

    if sigma is not None and not any(spec.walls):
        raise ValueError(f"{family} has no boundary, sigma must be absent")
    if sigma is not None and sigma > 1e-12:
        raise ValueError("flat boundaries are totally geodesic: sigma <= 0 only")
    model_sigma = (0.0 if sigma is None else sigma) if any(spec.walls) else None
    return ModelManifold(family=family, m=int(m), n=float(n), K=float(model_K),
                         sigma=model_sigma, drift_id=drift, length=float(length),
                         rmax=float(spec.rmax if rmax is None else rmax),
                         pole_cut=float(pole_cut))


_OPTIONAL_KEYS = ("K", "sigma", "length", "rmax", "pole_cut")
# every key manifold_from_dict reads
MANIFOLD_KEYS = ("family", "m", "n", "drift") + _OPTIONAL_KEYS


def manifold_from_dict(doc: dict) -> ModelManifold:
    kwargs = {key: doc[key] for key in _OPTIONAL_KEYS
              if doc.get(key) is not None}
    return make_model_manifold(doc["family"], m=doc.get("m", 1),
                               n=doc.get("n"), drift=doc.get("drift", "none"),
                               **kwargs)


def with_curvature(M: ModelManifold, K: float) -> ModelManifold:
    """Copy of M with a weaker (smaller) curvature bound."""
    if K > M.K + 1e-12:
        raise ValueError(f"K={K} is not below the model bound {M.K}")
    return replace(M, K=float(K))


@dataclass(frozen=True)
class CdCheckReport:
    """Grid minimum of the Bochner defect for a probe function."""

    min_defect: float
    argmin: float
    h: float
    points: int


def cd_check(M: ModelManifold, f, grid, h: float | None = None) -> CdCheckReport:
    """Finite-difference check of the curvature-dimension inequality.

    Evaluates  (1/2) L|f'|^2 - (Lf)' f' - K |f'|^2 - (Lf)^2 / n  at every
    grid point with central second-order stencils and returns the minimum.
    Nonnegative (up to O(h^2)) at every point certifies CD(K, n) on the
    probe set.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 5:
        raise ValueError("grid too coarse for the 5-point stencil")
    if h is None:
        h = 1e-4 * (grid[-1] - grid[0])
    if h <= 0:
        raise ValueError("step h must be positive")

    def Lf_at(x):
        fp = f(x + h) - f(x - h)
        fpp = f(x + h) - 2.0 * f(x) + f(x - h)
        return fpp / h**2 + M.b_total(x) * fp / (2.0 * h)

    x = grid
    df = (f(x + h) - f(x - h)) / (2.0 * h)
    g_mid = df**2                        # |grad f|^2 at x
    g_up = ((f(x + 2 * h) - f(x)) / (2.0 * h)) ** 2
    g_dn = ((f(x) - f(x - 2 * h)) / (2.0 * h)) ** 2
    Lg = (g_up - 2.0 * g_mid + g_dn) / h**2 + M.b_total(x) * (g_up - g_dn) / (2.0 * h)
    Lf = Lf_at(x)
    dLf = (Lf_at(x + h) - Lf_at(x - h)) / (2.0 * h)
    defect = 0.5 * Lg - dLf * df - M.K * g_mid - Lf**2 / M.n
    i = int(np.argmin(defect))
    return CdCheckReport(min_defect=float(defect[i]), argmin=float(x[i]),
                         h=float(h), points=int(grid.size))


def laplacian_comparison(M: ModelManifold, K_region: float, n: float, r: float) -> float:
    """Upper bound for L rho at distance r under curvature >= -K_region.

    Returns sqrt(K_region (n-1)) coth( sqrt(K_region/(n-1)) r ), with the
    flat limit (n-1)/r at K_region = 0.  K_region is the modulus of the
    curvature lower bound on the region, hence nonnegative.
    """
    if r <= 0:
        raise ValueError("distance r must be positive")
    if K_region < 0:
        raise ValueError("K_region is a modulus, must be >= 0")
    if K_region == 0.0:
        return (n - 1.0) / r
    if n <= 1:
        raise ValueError("n must exceed 1 when K_region > 0")
    rate = math.sqrt(K_region / (n - 1.0))
    from .numerics import coth
    return math.sqrt(K_region * (n - 1.0)) * float(coth(rate * r))
