import dataclasses
import math

import numpy as np
import pytest

from liyau import make_model_manifold
from liyau.geometry import FAMILIES, manifold_from_dict


def cd_check(M, f, grid, h=None):
    """Grid minimum of the Bochner defect of the probe f on M.

    Evaluates  (1/2) L|f'|^2 - (Lf)' f' - K |f'|^2 - (Lf)^2 / n  at every
    grid point with central second-order stencils.  Nonnegative (up to
    O(h^2)) at every point certifies CD(K, n) on the probe set, so it is
    the oracle for each family's sharp_K.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 5:
        raise ValueError("grid too coarse for the 5-point stencil")
    if h is None:
        h = 1e-4 * (grid[-1] - grid[0])

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
    return float(np.min(0.5 * Lg - dLf * df - M.K * g_mid - Lf**2 / M.n))


class TestMakeManifold:
    def test_curvature_table(self):
        assert make_model_manifold("circle").K == 0.0
        assert make_model_manifold("euclidean-line").K == 0.0
        assert make_model_manifold("sphere-radial", m=2).K == 1.0
        assert make_model_manifold("sphere-radial", m=3).K == 2.0
        assert make_model_manifold("hyperbolic-radial", m=2).K == -1.0

    def test_flat_boundaries_are_geodesic(self):
        assert make_model_manifold("half-line-neumann").sigma == 0.0
        assert make_model_manifold("interval-neumann").sigma == 0.0
        assert make_model_manifold("circle").sigma is None

    def test_n_defaults_to_m_and_validates(self):
        M = make_model_manifold("sphere-radial", m=2, n=3.5)
        assert M.n == 3.5
        with pytest.raises(ValueError):
            make_model_manifold("sphere-radial", m=2, n=1.5)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_model_manifold("torus")

    def test_user_K_must_be_lower_bound(self):
        M = make_model_manifold("sphere-radial", m=2, K=0.5)
        assert M.K == 0.5
        with pytest.raises(ValueError):
            make_model_manifold("sphere-radial", m=2, K=1.5)

    def test_drift_rejected_on_radial_families(self):
        ou = {"id": "ou", "params": {"c": 1.0}}
        with pytest.raises(ValueError, match="no radial reduction"):
            make_model_manifold("sphere-radial", m=2, n=3, drift=ou)
        M = make_model_manifold("interval-neumann", n=2, drift=ou)
        assert M.drift(0.5) == -0.5

    def test_serialization_round_trip(self):
        # every family, each field it reads away from its default
        for family, kwargs in (
                ("euclidean-line", {"rmax": 5.0}),
                ("euclidean-radial", {"m": 2, "rmax": 5.0, "pole_cut": 1e-2}),
                ("circle", {"m": 1, "n": 2.0}),
                ("half-line-neumann", {"rmax": 5.0, "sigma": -0.3}),
                ("interval-neumann", {"length": 2.0, "sigma": -0.3}),
                ("interval-neumann", {"n": 2.0, "drift": {
                    "id": "ou", "params": {"c": 0.5, "center": 1.0}}}),
                ("euclidean-line", {"n": 3.0, "drift": {
                    "id": "sine", "params": {"a": 0.3, "k": 2}}}),
                ("sphere-radial", {"m": 2, "pole_cut": 1e-2}),
                ("hyperbolic-radial", {"m": 3, "rmax": 5.0,
                                       "pole_cut": 1e-2})):
            M = make_model_manifold(family, **kwargs)
            M2 = manifold_from_dict(M.to_dict())
            assert M2 == M, family

    def test_family_records(self):
        # the grid, walls and defaults each family's record gives
        for family, spec in FAMILIES.items():
            M = make_model_manifold(family, m=2)
            lo, hi = M.domain()
            grid = M.grid(9)
            assert grid[0] == lo and (grid[-1] < hi if spec.periodic
                                      else grid[-1] == hi), family
            walls = [pos for pos, wall in zip((lo, hi), spec.walls) if wall]
            assert [pos for pos, _ in M.boundaries()] == walls, family
            assert M.has_boundary == bool(walls)
            assert M.rmax == spec.rmax and M.K == spec.sharp_K(2)
            assert set(M.to_dict()) == {"family", "m", "n", "K", "drift",
                                        "sigma", *spec.keys}
        assert [f for f, s in FAMILIES.items() if s.radial] == [
            "euclidean-radial", "sphere-radial", "hyperbolic-radial"]

    @pytest.mark.parametrize("m", [2, 3])
    def test_record_drift_is_the_log_derivative_of_its_profile(self, m):
        # b = (m-1) d log(profile)/dx by central differences on each
        # record's interior grid, so a new record's b and profile agree
        h = 1e-6
        for family, spec in FAMILIES.items():
            M = make_model_manifold(family, m=m)
            x = M.grid(spec.grid_size)[1:-1]
            log_f = lambda x: np.log(spec.profile(x))
            slope = (m - 1) * (log_f(x + h) - log_f(x - h)) / (2.0 * h)
            # relative, but for the rounding of the differences where b = 0
            np.testing.assert_allclose(M.b(x), slope, rtol=1e-6, atol=1e-9,
                                       err_msg=family)
            # into out, with the same bits, and at a scalar
            out = np.empty_like(x)
            assert M.b(x, out=out) is out
            assert np.array_equal(out.view(np.uint64),
                                  M.b(x).view(np.uint64)), family
            assert M.b(float(x[3])) == M.b(x)[3], family


# each catalog drift on each family that admits it: an ou center outside
# the interval, intervals shorter than pi/k, a sine vertex inside the range
# of cos kx and one clipped to an end of it
DRIFT_CASES = [
    ("interval-neumann", {}, "ou", {"c": 1.0, "center": 2.0}),
    ("interval-neumann", {"length": 2.0}, "ou", {"c": -0.5, "center": 5.0}),
    ("interval-neumann", {"length": 1.0}, "ou", {"c": 0.7, "center": 0.3}),
    ("circle", {}, "sine", {"a": 0.3, "k": 1}),
    ("circle", {}, "sine", {"a": -2.0, "k": 3}),
    ("euclidean-line", {}, "sine", {"a": 0.3, "k": 1}),
    ("euclidean-line", {}, "sine", {"a": 2.0, "k": 0.8}),
    ("half-line-neumann", {}, "sine", {"a": 1.5, "k": -2.0}),
    ("interval-neumann", {}, "sine", {"a": 0.3, "k": 1}),
    ("interval-neumann", {"length": 2.0}, "sine", {"a": 2.0, "k": 1}),
    ("interval-neumann", {"length": 1.0}, "sine", {"a": -2.0, "k": 1}),
    ("interval-neumann", {"length": 1.0}, "sine", {"a": 0.5, "k": 2.5}),
]


def drift_model(case, n):
    family, kwargs, drift_id, params = case
    return make_model_manifold(family, n=n, drift={"id": drift_id,
                                                   "params": params},
                               **kwargs)


def cd_integrand(M, x, h=1e-3):
    """-Z' - Z^2/(n-1), Z' by fourth-order central differences of
    M.drift."""
    Z = M.drift
    dZ = (8.0 * (Z(x + h) - Z(x - h)) - Z(x + 2 * h) + Z(x - 2 * h)) / (12 * h)
    return -dZ - M.drift(x) ** 2 / (M.n - 1.0)


class TestDriftCatalog:
    """A drift model's K is the infimum of -Z' - Z^2/(n-1) over its
    domain, the sharp CD(K, n) constant of L = d^2/dx^2 + Z d/dx."""

    @pytest.mark.parametrize("n", [2.0, 3.5])
    @pytest.mark.parametrize("case", DRIFT_CASES)
    def test_sharp_K_is_the_grid_minimum(self, case, n):
        M = drift_model(case, n)
        # the line's and half line's grids span more than a period of Z
        grid = np.linspace(*M.domain(), 400_001)
        q = cd_integrand(M, grid)
        assert abs(q.min() - M.K) < 1e-8

    @pytest.mark.parametrize("case", DRIFT_CASES)
    @pytest.mark.parametrize("probe", [lambda r: r**2,
                                       lambda r: np.cos(r),
                                       lambda r: r + 0.3 * np.sin(2 * r)])
    def test_probes_hold_at_the_sharp_K(self, case, probe):
        M = drift_model(case, 2.0)
        lo, hi = M.domain()
        grid = np.linspace(max(lo, -3.0) + 0.1, min(hi, 3.0) - 0.1, 50)
        assert cd_check(M, probe, grid) >= -5e-4

    @pytest.mark.parametrize("n", [2.0, 3.5])
    @pytest.mark.parametrize("case", DRIFT_CASES)
    def test_extremal_probe_fails_above_the_sharp_K(self, case, n):
        # f' = 1 and f'' = Z/(n-1) at the minimiser x*: there the defect
        # is -Z' - Z^2/(n-1) - K, so K_sharp + 0.05 leaves -0.05
        M = drift_model(case, n)
        lo, hi = M.domain()
        grid = np.linspace(lo, hi, 400_001)
        xs = grid[np.argmin(cd_integrand(M, grid))]
        curve = M.drift(xs) / (2.0 * (n - 1.0))

        def probe(x):
            return (x - xs) + curve * (x - xs) ** 2

        # off the domain the defect may fall below K_sharp
        near = np.linspace(max(xs - 0.01, lo), min(xs + 0.01, hi), 5)
        assert cd_check(M, probe, near, h=1e-3) >= -5e-4
        above = dataclasses.replace(M, K=M.K + 0.05)
        assert cd_check(above, probe, near, h=1e-3) < -0.04

    def test_K_defaults_to_the_sharp_constant_and_may_only_lower_it(self):
        sine = {"id": "sine", "params": {"a": 0.3, "k": 1}}
        assert make_model_manifold("circle", n=2, drift=sine).K == -0.3
        assert make_model_manifold("circle", n=2, drift=sine, K=-1.0).K == -1.0
        assert make_model_manifold("circle", n=2, drift=sine, K=-0.3).K == -0.3
        with pytest.raises(ValueError, match="above the sharp"):
            make_model_manifold("circle", n=2, drift=sine, K=0.5)

    @pytest.mark.parametrize("family,kwargs,drift,match", [
        ("circle", {"n": 1}, {"id": "sine"}, "n must be > 1"),
        ("interval-neumann", {}, {"id": "ou"}, "n must be > 1"),
        ("euclidean-line", {"n": 2}, {"id": "ou"}, "no finite"),
        ("half-line-neumann", {"n": 2}, {"id": "ou", "params": {"c": -1}},
         "no finite"),
        ("circle", {"n": 2}, {"id": "ou"}, "cannot carry"),
        ("circle", {"n": 2}, {"id": "sine", "params": {"k": 1.5}},
         "cannot carry"),
        ("hyperbolic-radial", {"m": 2, "n": 3}, {"id": "sine"},
         "no radial reduction"),
        ("circle", {"n": 2}, {"id": "cosine"}, "unknown drift"),
        ("circle", {"n": 2}, {"id": "sine", "params": {"a": "0.3"}},
         "must be a real number"),
        ("circle", {"n": 2}, {"id": "sine", "params": {"b": 1}},
         "unknown keys"),
        ("circle", {"n": 2}, {"id": "sine", "parms": {}}, "unknown keys"),
        ("circle", {"n": 2}, "sine", "unknown keys"),
    ])
    def test_rejected(self, family, kwargs, drift, match):
        with pytest.raises(ValueError, match=match):
            make_model_manifold(family, drift=drift, **kwargs)


class TestCdCheck:
    def test_flat_radial_square_is_tight(self):
        # f = r^2 on flat R^m: (1/2) L|grad f|^2 = 4m and (Lf)^2/m = 4m
        M = make_model_manifold("euclidean-radial", m=3)
        defect = cd_check(M, lambda r: r**2, np.linspace(0.5, 3.0, 60))
        assert abs(defect) < 1e-3

    def test_constant_probe_vanishes(self, sphere2):
        defect = cd_check(sphere2, lambda r: np.ones_like(r) * 2.0,
                          np.linspace(0.3, 2.8, 40))
        assert abs(defect) < 1e-9

    def test_circle_sine_mode(self, circle):
        defect = cd_check(circle, np.sin,
                          np.linspace(0.05, 2 * math.pi - 0.05, 80))
        assert defect >= -1e-6

    @pytest.mark.parametrize("family,m", [("sphere-radial", 2),
                                          ("sphere-radial", 3),
                                          ("hyperbolic-radial", 2),
                                          ("euclidean-radial", 2)])
    @pytest.mark.parametrize("probe", [lambda r: r**2,
                                       lambda r: np.cos(r),
                                       lambda r: r + 0.3 * np.sin(2 * r)])
    def test_model_probes_nonnegative(self, family, m, probe):
        M = make_model_manifold(family, m=m)
        lo, hi = M.domain()
        grid = np.linspace(lo + 0.25, min(hi, 3.0) - 0.1, 50)
        defect = cd_check(M, probe, grid, h=1e-4 * (grid[-1] - grid[0]))
        # central differences leave an O(h^2) floor
        assert defect >= -5e-4

    def test_slack_under_weaker_bound(self, sphere2):
        weak = dataclasses.replace(sphere2, K=0.2)
        grid = np.linspace(0.4, 2.7, 50)
        strict = cd_check(sphere2, np.cos, grid)
        slack = cd_check(weak, np.cos, grid)
        assert slack > strict

    def test_grid_too_coarse(self, circle):
        with pytest.raises(ValueError):
            cd_check(circle, np.sin, np.linspace(0, 1, 4))

