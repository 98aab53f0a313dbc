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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

EUCLIDEAN_LINE = "euclidean-line"
EUCLIDEAN_RADIAL = "euclidean-radial"
CIRCLE = "circle"
HALF_LINE = "half-line-neumann"
INTERVAL = "interval-neumann"
SPHERE = "sphere-radial"
HYPERBOLIC = "hyperbolic-radial"

FAMILIES = (
    EUCLIDEAN_LINE,
    EUCLIDEAN_RADIAL,
    CIRCLE,
    HALF_LINE,
    INTERVAL,
    SPHERE,
    HYPERBOLIC,
)

_BOUNDARY_FAMILIES = (HALF_LINE, INTERVAL)
_RADIAL_FAMILIES = (EUCLIDEAN_RADIAL, SPHERE, HYPERBOLIC)

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
    def has_boundary(self) -> bool:
        return self.family in _BOUNDARY_FAMILIES

    @property
    def is_compact_grid(self) -> bool:
        """True when the default grid covers the whole space."""
        return self.family in (CIRCLE, INTERVAL, SPHERE)

    # -- coefficients of the reduction --------------------------------------

    def b(self, x, out=None):
        """Volume-element drift of the radial reduction, into out if given."""
        x = np.asarray(x, dtype=float)
        if self.family == EUCLIDEAN_RADIAL:
            out = np.divide(self.m - 1, x, out=out)
        elif self.family == SPHERE:
            out = np.divide(self.m - 1, np.tan(x, out=out), out=out)
        elif self.family == HYPERBOLIC:
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
        x = np.asarray(x, dtype=float)
        if self.family == EUCLIDEAN_RADIAL:
            out = x ** (self.m - 1)
        elif self.family == SPHERE:
            out = np.sin(x) ** (self.m - 1)
        elif self.family == HYPERBOLIC:
            out = np.sinh(x) ** (self.m - 1)
        else:
            out = np.ones_like(x)
        return out if out.ndim else float(out)

    # -- domains and grids ---------------------------------------------------

    def domain(self):
        """Coordinate range covered by solver grids (lo, hi, kind)."""
        if self.family == EUCLIDEAN_LINE:
            return -self.rmax, self.rmax, "open"
        if self.family == EUCLIDEAN_RADIAL:
            return self.pole_cut, self.rmax, "pole-open"
        if self.family == CIRCLE:
            return 0.0, 2.0 * math.pi, "periodic"
        if self.family == HALF_LINE:
            return 0.0, self.rmax, "boundary-lo"
        if self.family == INTERVAL:
            return 0.0, self.length, "boundary-both"
        if self.family == SPHERE:
            return self.pole_cut, math.pi - self.pole_cut, "pole-open"
        if self.family == HYPERBOLIC:
            return self.pole_cut, self.rmax, "pole-open"
        raise ValueError(f"unknown family {self.family!r}")

    def grid(self, size: int) -> np.ndarray:
        lo, hi, kind = self.domain()
        if kind == "periodic":
            return np.linspace(lo, hi, size, endpoint=False)
        return np.linspace(lo, hi, size)

    def boundaries(self):
        """Reflecting walls as (coordinate, inward direction) pairs."""
        if self.family == HALF_LINE:
            return ((0.0, +1.0),)
        if self.family == INTERVAL:
            return ((0.0, +1.0), (self.length, -1.0))
        return ()

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        doc = {"family": self.family, "m": self.m, "n": self.n,
               "K": self.K, "drift": self.drift_id}
        doc["sigma"] = self.sigma
        if self.family == INTERVAL:
            doc["length"] = self.length
        if self.family in (EUCLIDEAN_LINE, EUCLIDEAN_RADIAL, HALF_LINE, HYPERBOLIC):
            doc["rmax"] = self.rmax
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
    if m < 1 or m != int(m):
        raise ValueError("m must be a positive integer")
    if n is None:
        n = float(m)
    if n < m:
        raise ValueError(f"effective dimension n={n} must be >= m={m}")
    if drift not in _DRIFTS:
        raise ValueError(f"unregistered drift {drift!r}")
    if drift != "none":
        if family in _RADIAL_FAMILIES:
            raise ValueError(f"drift not supported on {family}: no radial reduction")
        if K is None:
            raise ValueError("a drift model needs an explicit curvature bound K")
        model_K = K
    else:
        # the sharp curvature lower bound of the driftless model
        model_K = {SPHERE: m - 1.0, HYPERBOLIC: -(m - 1.0)}.get(family, 0.0)
        if K is not None:
            if K > model_K + 1e-12:
                raise ValueError(
                    f"K={K} is not a valid lower bound: model value is {model_K}"
                )
            model_K = K

    if family in _BOUNDARY_FAMILIES:
        model_sigma = 0.0 if sigma is None else sigma
        if model_sigma > 1e-12:
            raise ValueError("flat boundaries are totally geodesic: sigma <= 0 only")
    else:
        if sigma is not None:
            raise ValueError(f"{family} has no boundary, sigma must be absent")
        model_sigma = None

    if rmax is None:
        rmax = 3.0 if family == HYPERBOLIC else 8.0
    return ModelManifold(family=family, m=int(m), n=float(n), K=float(model_K),
                         sigma=model_sigma, drift_id=drift, length=float(length),
                         rmax=float(rmax), pole_cut=float(pole_cut))


_OPTIONAL_KEYS = ("K", "sigma", "length", "rmax", "pole_cut")
# every key manifold_from_dict reads
MANIFOLD_KEYS = ("family", "m", "n", "drift") + _OPTIONAL_KEYS


def manifold_from_dict(doc: dict) -> ModelManifold:
    kwargs = {}
    for key in _OPTIONAL_KEYS:
        if key in doc and doc[key] is not None:
            kwargs[key] = doc[key]
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
