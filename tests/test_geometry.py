import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liyau import cd_check, laplacian_comparison, make_model_manifold
from liyau.geometry import FAMILIES, manifold_from_dict


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
        from liyau.geometry import register_drift
        register_drift("test-ou", lambda x: -x)
        with pytest.raises(ValueError):
            make_model_manifold("sphere-radial", m=2, drift="test-ou", K=0.0)
        M = make_model_manifold("euclidean-line", drift="test-ou", K=1.0)
        assert M.drift(0.5) == -0.5

    def test_serialization_round_trip(self):
        # every family, each field it reads away from its default
        for family, kwargs in (
                ("euclidean-line", {"rmax": 5.0}),
                ("euclidean-radial", {"m": 2, "rmax": 5.0, "pole_cut": 1e-2}),
                ("circle", {"m": 1, "n": 2.0}),
                ("half-line-neumann", {"rmax": 5.0, "sigma": -0.3}),
                ("interval-neumann", {"length": 2.0, "sigma": -0.3}),
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


class TestCdCheck:
    def test_flat_radial_square_is_tight(self):
        # f = r^2 on flat R^m: (1/2) L|grad f|^2 = 4m and (Lf)^2/m = 4m
        M = make_model_manifold("euclidean-radial", m=3)
        rep = cd_check(M, lambda r: r**2, np.linspace(0.5, 3.0, 60))
        assert abs(rep.min_defect) < 1e-3

    def test_constant_probe_vanishes(self, sphere2):
        rep = cd_check(sphere2, lambda r: np.ones_like(r) * 2.0,
                       np.linspace(0.3, 2.8, 40))
        assert abs(rep.min_defect) < 1e-9

    def test_circle_sine_mode(self, circle):
        rep = cd_check(circle, np.sin, np.linspace(0.05, 2 * math.pi - 0.05, 80))
        assert rep.min_defect >= -1e-6

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
        rep = cd_check(M, probe, grid, h=1e-4 * (grid[-1] - grid[0]))
        # central differences leave an O(h^2) floor
        assert rep.min_defect >= -5e-4

    def test_slack_under_weaker_bound(self, sphere2):
        from liyau import with_curvature
        weak = with_curvature(sphere2, 0.2)
        grid = np.linspace(0.4, 2.7, 50)
        strict = cd_check(sphere2, np.cos, grid)
        slack = cd_check(weak, np.cos, grid)
        assert slack.min_defect > strict.min_defect

    def test_grid_too_coarse(self, circle):
        with pytest.raises(ValueError):
            cd_check(circle, np.sin, np.linspace(0, 1, 4))


class TestLaplacianComparison:
    def test_flat_limit(self, sphere2):
        assert laplacian_comparison(sphere2, 0.0, 2, 1.0) == pytest.approx(1.0)

    def test_unit_curvature_value(self, sphere2):
        # sqrt(K(n-1)) coth(sqrt(K/(n-1)) r) at K=1, n=2, r=1
        assert laplacian_comparison(sphere2, 1.0, 2, 1.0) == pytest.approx(
            1.3130352854993312, abs=1e-12)

    def test_large_r_limit(self, sphere2):
        val = laplacian_comparison(sphere2, 1.0, 2, 60.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(K=st.floats(0.01, 4.0), n=st.floats(1.5, 6.0))
    def test_decreasing_in_r(self, K, n, sphere2):
        rs = np.linspace(0.05, 8.0, 40)
        vals = [laplacian_comparison(sphere2, K, n, r) for r in rs]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] >= math.sqrt(K * (n - 1)) - 1e-9

    def test_domain_errors(self, sphere2):
        with pytest.raises(ValueError):
            laplacian_comparison(sphere2, 1.0, 2, 0.0)
        with pytest.raises(ValueError):
            laplacian_comparison(sphere2, 1.0, 1.0, 1.0)
