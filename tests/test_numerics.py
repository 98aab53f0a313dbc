import math

import numpy as np
import pytest

from conftest import simpson
from liyau.bounds import _g3_y_coeff
from liyau.numerics import QuadratureError, integrate_smooth, sign_changes


class TestSmoothRule:
    def test_large_value_accepted_at_tight_tol(self):
        # a value near 1e3 at tol = 1e-12: the 32/64-node gap is a few ulps of
        # 1e3, above the absolute tol, so the relative clause must accept it
        c, t = 9.0, 0.77
        f = lambda s: 1e3 * c / math.expm1(c * t) * np.exp(c * s)
        val = integrate_smooth(f, 0.0, t, tol=1e-12)
        assert val == pytest.approx(1e3, rel=1e-14)

    def test_peaked_integrand_raises(self):
        got = []
        with pytest.raises(QuadratureError, match="64 nodes"):
            got.append(integrate_smooth(lambda s: np.exp(-400.0 * s), 0.0, 1.0))
        assert got == []

    def test_nan_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate_smooth(lambda s: np.full_like(s, np.nan), 0.0, 1.0)

    def test_polynomial_and_interval_map(self):
        # exact for degree < 64 up to rounding, on a shifted interval
        val = integrate_smooth(lambda s: 5.0 * s**4 - 3.0 * s**2, -0.5, 2.0)
        assert val == pytest.approx(2.0**5 - 2.0**3 + 0.5**5 - 0.5**3,
                                    rel=1e-14)

    def test_kink_needs_a_break(self):
        f = lambda s: np.abs(s - 1.0 / 3.0)
        with pytest.raises(QuadratureError):
            integrate_smooth(f, 0.0, 1.0)
        kinks = sign_changes(lambda s: s - 1.0 / 3.0, 0.0, 1.0)
        assert kinks == [pytest.approx(1.0 / 3.0, abs=1e-16)]
        assert integrate_smooth(f, 0.0, 1.0, breaks=kinks) == pytest.approx(
            5.0 / 18.0, rel=1e-15)

    def test_sign_changes_of_cosine(self):
        roots = sign_changes(np.cos, 0.0, 10.0)
        assert roots == pytest.approx(
            [math.pi / 2 + k * math.pi for k in range(3)], abs=1e-15)
        # a zero on a sample node counts once; touching zero is no change
        assert sign_changes(lambda s: s - 0.5, 0.0, 1.0, n=4) == [0.5]
        assert sign_changes(lambda s: (s - 0.3) ** 2, 0.0, 1.0) == []


class TestLocalGradCoefficient:
    @staticmethod
    def oracle(beta, K_D, t, eps):
        # the stated integral, by composite Simpson; at beta = 0 its limit
        if beta == 0.0:
            return 2.0 * (1.0 + eps) * simpson(
                lambda s: (t - s) / t**2 * np.exp(2.0 * K_D * s), 0.0, t,
                16384)
        integral = simpson(lambda s: (np.exp(-2.0 * beta * s)
                                      - np.exp(-beta * (s + t)))
                           * np.exp(2.0 * K_D * s), 0.0, t, 16384)
        return 2.0 * (1.0 + eps) * beta * integral / math.expm1(-beta * t) ** 2

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.3, 2.0, 17.5, 80.0])
    @pytest.mark.parametrize("K_D", [0.0, 0.8])
    @pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
    def test_matches_simpson(self, beta, K_D, t):
        # the large-beta integrands are too peaked for the fixed rule: the
        # closed form carries them, and Simpson checks it here
        assert _g3_y_coeff(beta, K_D, t, 1.0) == pytest.approx(
            self.oracle(beta, K_D, t, 1.0), rel=1e-9)

    @pytest.mark.parametrize("t", [0.05, 2.0])
    def test_small_beta_does_not_cancel(self, t):
        # beta ~ 1e-11 (a ball of radius 1e6): the closed form would lose
        # five digits; the value is the beta = 0 limit to O(beta t)
        beta = 1e-11
        assert _g3_y_coeff(beta, 0.4, t, 1.0) == pytest.approx(
            self.oracle(0.0, 0.4, t, 1.0), rel=1e-10)
