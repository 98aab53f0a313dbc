import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simpson
from liyau import (alpha_form_integral, clock_integrals, gamma_integral,
                   make_clock)

FAMILY_CASES = [
    ("linear", {}),
    ("trig", {"K": 0.7, "a": 0.4}),
    ("trig", {"K": -1.2, "a": 0.0}),
    ("exp-integral", {"K": 1.0, "alpha": 2.0}),
    ("exp-integral", {"K": -0.8, "alpha": 1.5}),
    ("exp-linear", {"K": 0.6, "alpha": 3.0}),
    ("bbg", {"K": 1.0, "lam": 0.8}),
    ("bbg", {"K": 1.0, "lam": 0.0}),
    ("bbg", {"K": 1.5, "lam": -0.5}),
    ("local-exp", {"beta": 2.3}),
    ("local-exp", {"beta": -1.1}),
]


@pytest.mark.parametrize("family,params", FAMILY_CASES)
@pytest.mark.parametrize("t", [0.2, 1.0, 2.7])
def test_endpoint_conditions(family, params, t):
    if family == "bbg" and params["lam"] < 0:
        # keep inside the admissible window lam > -pi^2/(Kt)^2
        if params["lam"] <= -math.pi**2 / (params["K"] * t) ** 2:
            pytest.skip("outside bbg window")
    clock = make_clock(family, params, t)
    assert clock.l(0.0) == pytest.approx(1.0, abs=1e-12)
    assert clock.l(t) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("family,params", [
    ("linear", {}),
    ("exp-integral", {"K": 1.3, "alpha": 2.0}),
    ("exp-integral", {"K": -2.0, "alpha": 1.4}),
    ("exp-linear", {"K": 1.0, "alpha": 2.5}),
    ("local-exp", {"beta": 3.0}),
])
def test_monotone_families_decrease(family, params):
    clock = make_clock(family, params, 1.5)
    s = np.linspace(0.0, 1.5, 300)
    assert clock.monotone()
    assert np.all(clock.dl(s) <= 1e-12)


def test_exp_linear_turning_clock_is_not_monotone():
    # K = -2, alpha = 1.5, t = 1: beta t = -4, so l'(0) = -beta - 1 = 3
    clock = make_clock("exp-linear", {"K": -2.0, "alpha": 1.5}, 1.0)
    assert clock.dl(0.0) == pytest.approx(3.0)
    assert not clock.monotone()
    # beta t = -1 exactly is the edge: l'(0) = 0 and l' < 0 after it
    edge = make_clock("exp-linear", {"K": -1.0, "alpha": 2.0}, 1.0)
    assert edge.monotone()
    assert np.all(edge.dl(np.linspace(0.0, 1.0, 201)) <= 1e-12)


def test_derivative_consistency():
    for family, params in FAMILY_CASES:
        clock = make_clock(family, params, 1.1)
        s = np.linspace(0.05, 1.05, 21)
        h = 1e-6
        fd = (clock.l(s + h) - clock.l(s - h)) / (2 * h)
        assert np.max(np.abs(fd - clock.dl(s))) < 1e-6, family


class TestIntegrals:
    def test_linear_closed_forms(self):
        clock = make_clock("linear", t=2.0)
        ints = clock_integrals(clock, 0.0)
        assert ints["deriv_sq"] == pytest.approx(0.5, abs=1e-12)
        assert ints["sq_prime"] == pytest.approx(-1.0, abs=1e-10)
        assert ints["sq"] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_trig_closed_form_value(self):
        # K=1, t=1, a=0: int l'^2 e^{-2Ks} = pi^2/8 - 1/2 and 2K int l^2 = Kt
        clock = make_clock("trig", {"K": 1.0, "a": 0.0}, t=1.0)
        ints = clock_integrals(clock, 1.0)
        assert ints["deriv_sq"] == pytest.approx(math.pi**2 / 8 - 0.5, abs=1e-10)
        assert 2.0 * ints["sq"] == pytest.approx(1.0, abs=1e-10)

    def test_trig_closed_form_with_a(self):
        K, t, a = 0.8, 1.3, 0.45
        clock = make_clock("trig", {"K": K, "a": a}, t=t)
        ints = clock_integrals(clock, K)
        two_k_sq = K * t * (1 + a * a) + 16 * K * t * a / (3 * math.pi)
        assert 2 * K * ints["sq"] == pytest.approx(two_k_sq, rel=1e-9)

    @pytest.mark.parametrize("family,params", FAMILY_CASES[:8])
    @pytest.mark.parametrize("K", [-0.7, 0.0, 1.1])
    def test_parts_identity(self, family, params, K):
        # int (l^2)' e^{-2Ks} = -1 + 2K int l^2 e^{-2Ks} for every clock
        clock = make_clock(family, params, 1.2)
        ints = clock_integrals(clock, K)
        assert ints["sq_prime"] == pytest.approx(-1.0 + 2 * K * ints["sq"],
                                                 abs=1e-9)

    def test_quadrature_matches_simpson(self):
        clock = make_clock("exp-integral", {"K": -1.5, "alpha": 2.5}, t=0.9)
        ints = clock_integrals(clock, -1.5)
        ref = simpson(lambda s: clock.dl(s) ** 2 * np.exp(3.0 * s), 0.0, 0.9)
        assert ints["deriv_sq"] == pytest.approx(ref, rel=1e-9)


class TestGamma:
    def test_exp_linear_gamma_is_polynomial(self):
        # exp-linear clock: 2K int l^2 e^{2Ks/(a-1)} reduces to 2K t/3 scaled
        K, alpha, t = 0.9, 2.0, 1.4
        clock = make_clock("exp-linear", {"K": K, "alpha": alpha}, t=t)
        val = simpson(lambda s: clock.l(s) ** 2
                      * np.exp(2 * K * s / (alpha - 1)), 0.0, t)
        assert 2 * K / alpha * val == pytest.approx(2 * K * t / (3 * alpha),
                                                    rel=1e-9)

    @pytest.mark.parametrize("K", [-1.5, -0.3, 0.4, 2.0])
    @pytest.mark.parametrize("alpha", [1.4, 2.0, 4.5])
    @pytest.mark.parametrize("t", [0.1, 1.0, 2.5])
    def test_gamma_exceeds_lower_bound(self, K, alpha, t):
        clock = make_clock("exp-integral", {"K": K, "alpha": alpha}, t=t)
        val = gamma_integral(clock, K, alpha)
        assert val > 1.0 / alpha - 1.0

    def test_gamma_closed_form_cross_check(self):
        # gamma_integral raises internally if quadrature and closed form split
        for K in (-1.2, 0.8):
            clock = make_clock("exp-integral", {"K": K, "alpha": 1.8}, t=1.1)
            gamma_integral(clock, K, 1.8)

    def test_alpha_form_exp_linear_is_inverse_t(self):
        clock = make_clock("exp-linear", {"K": -0.7, "alpha": 2.2}, t=1.6)
        assert alpha_form_integral(clock, -0.7, 2.2) == pytest.approx(
            1.0 / 1.6, rel=1e-10)

    def test_alpha_form_exp_integral_coth(self):
        K, alpha, t = 1.0, 2.0, 1.0
        clock = make_clock("exp-integral", {"K": K, "alpha": alpha}, t=t)
        x = K * t / (2 * (alpha - 1))
        assert alpha_form_integral(clock, K, alpha) == pytest.approx(
            K / (2 * (alpha - 1)) / math.tanh(x), rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(-3.0, 3.0), t=st.floats(0.1, 2.5))
def test_local_exp_small_beta_limit(beta, t):
    clock = make_clock("local-exp", {"beta": beta * 1e-9}, t=t)
    lin = make_clock("linear", t=t)
    s = np.linspace(0, t, 50)
    assert np.max(np.abs(clock.l(s) - lin.l(s))) < 1e-8


def test_linear_clock_point_values():
    clock = make_clock("linear", t=2.0)
    assert clock.l(1.0) == pytest.approx(0.5, abs=1e-15)
    assert clock.dl(1.0) == pytest.approx(-0.5, abs=1e-15)


def test_bbg_lam_zero_matches_linear_profile():
    clock = make_clock("bbg", {"K": 1.0, "lam": 0.0}, t=2.0)
    s = np.linspace(0, 2, 9)
    profile = clock.l(s) * np.exp(-s)  # strip the e^{Ks} factor
    assert np.max(np.abs(profile - (2.0 - s) / 2.0)) < 1e-12


def test_make_clock_validation():
    with pytest.raises(ValueError):
        make_clock("exp-integral", {"K": 1.0, "alpha": 1.0}, t=1.0)
    with pytest.raises(ValueError):
        make_clock("bbg", {"K": 1.0, "lam": -12.0}, t=1.0)
    with pytest.raises(ValueError):
        make_clock("warp", {}, t=1.0)


def test_make_clock_params_come_from_its_family():
    # the defaults of clocks.FAMILIES fill in; a param the family does not
    # read, or one that is not a real number, raises
    assert make_clock("trig", {"K": 0.5}, 1.0).params == {"a": 0.0, "K": 0.5}
    assert make_clock("linear", None, 1.0).params == {}
    for family, params, message in (
            ("linear", {"alpha": 2.0}, "unknown keys ['alpha']"),
            ("local-exp", {"b": 1.0}, "unknown keys ['b']"),
            ("trig", {"a": "0.5"}, "param 'a' of clock 'trig' must be a real"),
            ("exp-integral", {"alpha": True}, "must be a real number"),
            ("exp-linear", {"K": 1.0}, "exp-linear clock needs alpha > 1"),
            ("bbg", {"lam": 0.5}, "bbg clock needs K > 0")):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_clock(family, params, 1.0)
