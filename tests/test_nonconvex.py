import math

import numpy as np
import pytest

from conftest import simpson
from liyau import make_clock, nonconvex_bound_rhs, nonconvex_constants


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_hand_integrated_constants(d):
    # k=0, theta=1: h = 1-s, h - h(r0) = r0 - s, so with sigma = -1
    #   delta = (-sigma) r0^{d-1} / int_0^r0 (r0-s)^{d-1} ds = -sigma d / r0
    #   kappa = 1 + delta int (r0-s)^{1-d} (r0-s)^d / d ds = 1 - sigma r0 / 2
    #   gamma = delta r0^{1-d} r0^d / d = -sigma
    # and at r0 = 1/2: 2d, 5/4 and 1
    data = nonconvex_constants(k=0.0, theta=1.0, sigma=-1.0, r0=0.5, d=d)
    assert data.delta == pytest.approx(2.0 * d, abs=1e-12)
    assert data.kappa == pytest.approx(1.25, abs=1e-12)
    assert data.gamma == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k, theta, d, x, kappa_ref", [
    (1.0, 1.0, 3, 3, 2.005551312649987),
    (1.0, 1.0, 7, 5, 1.9189756106280784),
    (1.0, 1.0, 2, 8, 2.060060329730801),
    (4.0, 2.5, 7, 5, 1.450931873785614)])
def test_collar_near_the_turn(k, theta, d, x, kappa_ref):
    # r0 = (1 - 10^-x) of the turn of h, where h'(r0) -> 0: the kappa
    # integrand bends in a layer at r0 about as wide as turn - r0.
    # References by mpmath at 30 digits
    turn = (math.pi - math.atan(theta / math.sqrt(k))) / math.sqrt(k)
    data = nonconvex_constants(k=k, theta=theta, sigma=-1.0,
                               r0=(1 - 10.0**-x) * turn, d=d)
    assert data.kappa == pytest.approx(kappa_ref, rel=1e-11)
    assert data.gamma == pytest.approx(1.0, rel=1e-12)  # -sigma


@pytest.mark.parametrize("d", [2, 3, 7])
def test_collar_a_hair_before_the_turn(d):
    # at r0 = (1 - 1e-8) turn, h(s) - h(r0) near s = r0 is some 1e-18, below
    # the rounding of h, so the probe takes it in product form
    k, theta = 4.0, 2.5
    turn = (math.pi - math.atan(theta / math.sqrt(k))) / math.sqrt(k)
    data = nonconvex_constants(k=k, theta=theta, sigma=-1.0,
                               r0=(1 - 1e-8) * turn, d=d)
    assert data.kappa > 1.0 and data.delta > 0.0
    assert data.gamma == pytest.approx(1.0, rel=1e-12)  # -sigma
    # a profile that turns before r0 comes back up to h(r0) and is refused
    for r0 in ((1 + 1e-6) * turn, 1.1 * turn):
        with pytest.raises(ValueError, match="stay positive"):
            nonconvex_constants(k=k, theta=theta, sigma=-1.0, r0=r0, d=d)


def test_trig_profile_against_simpson():
    data = nonconvex_constants(k=0.5, theta=0.4, sigma=-0.7, r0=0.6, d=3)
    h_r0 = float(data.h(0.6))
    base = simpson(lambda s: (data.h(s) - h_r0) ** 2, 0.0, 0.6, 8192)
    delta_ref = 0.7 * (1 - h_r0) ** 2 / base
    assert data.delta == pytest.approx(delta_ref, rel=1e-8)
    assert data.kappa > 1.0 and data.gamma > 0.0


def test_convex_limit_degenerates():
    deltas, kappas, gammas = [], [], []
    for sigma in (-1e-2, -1e-4, -1e-6):
        d = nonconvex_constants(k=0.0, theta=1.0, sigma=sigma, r0=0.5, d=2)
        deltas.append(d.delta)
        kappas.append(d.kappa)
        gammas.append(d.gamma)
    assert deltas[-1] < 1e-5 and abs(kappas[-1] - 1.0) < 1e-5
    assert gammas[-1] < 1e-5
    assert deltas[0] > deltas[-1]


def test_flat_profile_rejected():
    with pytest.raises(ValueError):
        nonconvex_constants(k=0.0, theta=0.0, sigma=-1.0, r0=0.5, d=2)


def test_sign_constraints():
    with pytest.raises(ValueError):
        nonconvex_constants(k=0.0, theta=1.0, sigma=0.5, r0=0.5, d=2)


def test_kalpha_needs_alpha_above_kappa_sq():
    data = nonconvex_constants(k=0.0, theta=1.0, sigma=-1.0, r0=0.5, d=2)
    with pytest.raises(ValueError):
        data.K_alpha_phi(0.0, data.kappa**2)
    val = data.K_alpha_phi(0.0, 2.0)
    # -2 kappa^2 (delta + K^-) / (alpha - kappa^2) with the hand constants
    assert val == pytest.approx(-2 * 1.25**2 * 4.0 / (2.0 - 1.25**2),
                                rel=1e-9)


@pytest.fixture(scope="module")
def data():
    return nonconvex_constants(k=0.0, theta=1.0, sigma=-1.0, r0=0.5, d=2)


class TestRhsRecords:

    def test_plain_mode_dual_quadrature(self, data):
        t, eps, n, K = 1.0, 1.0, 2.0, 0.0
        clock = make_clock("linear", t=t)
        rec = nonconvex_bound_rhs(data, clock, t, eps=eps, n=n, K=K,
                                  mode="plain")
        rate = eps - data.K_phi(K)
        a_ref = simpson(lambda s: 2 * (t - s) / t**2 * np.exp(rate * s), 0, t,
                        8192)
        c_ref = (n / 2 + data.gamma**2 / eps) * simpson(
            lambda s: np.exp(rate * s) / t**2, 0, t, 8192)
        assert rec.a == pytest.approx(a_ref, rel=1e-9)
        assert rec.c == pytest.approx(c_ref, rel=1e-9)
        assert rec.gamma == pytest.approx(1.0 / data.kappa**2)

    def test_alpha_mode_dual_quadrature(self, data):
        t, eps, n, K, alpha = 1.0, 1.0, 2.0, 0.0, 2.0
        clock = make_clock("linear", t=t)
        rec = nonconvex_bound_rhs(data, clock, t, eps=eps, n=n, K=K,
                                  alpha=alpha, mode="alpha")
        kap = data.K_alpha_phi(K, alpha)
        kph = data.K_phi(K)
        g_ref = 2 * (alpha / data.kappa**2 - 1) * simpson(
            lambda s: (t - s) / t**2 * np.exp((kap + kph - eps) * s), 0, t,
            8192)
        scale = (n * alpha**2 / 8
                 + alpha**2 * data.gamma**2 / (4 * eps * (alpha - data.kappa**2)))
        c_ref = scale * simpson(
            lambda s: np.exp((kap - eps) * s)
            * ((kap - eps) * (t - s) / t - 2.0 / t) ** 2, 0, t, 8192)
        assert rec.gamma == pytest.approx(1.0 + g_ref, rel=1e-9)
        assert rec.c == pytest.approx(c_ref, rel=1e-9)

    def test_alpha_mode_sharpening_positive(self, data):
        clock = make_clock("linear", t=0.7)
        for alpha in (1.8, 2.5, 4.0):
            rec = nonconvex_bound_rhs(data, clock, 0.7, eps=0.5, n=2.0,
                                      K=-0.3, alpha=alpha, mode="alpha")
            assert rec.gamma > 1.0

    def test_alpha_below_kappa_sq_rejected(self, data):
        clock = make_clock("linear", t=1.0)
        with pytest.raises(ValueError):
            nonconvex_bound_rhs(data, clock, 1.0, eps=1.0, n=2.0, K=0.0,
                                alpha=1.5, mode="alpha")

    def test_convex_limit_reaches_flat_shape(self):
        # delta -> 0 at K = 0: plain mode tends to the unweighted form
        # a -> 2 int l |l'| = 1 and c -> (n/2) int l'^2 = n/(2t) as eps -> 0
        data = nonconvex_constants(k=0.0, theta=1.0, sigma=-1e-9, r0=0.5, d=2)
        clock = make_clock("linear", t=1.0)
        rec = nonconvex_bound_rhs(data, clock, 1.0, eps=1e-7, n=2.0, K=0.0,
                                  mode="plain")
        assert rec.gamma == pytest.approx(1.0, abs=1e-6)
        assert rec.a == pytest.approx(1.0, abs=1e-5)
        assert rec.c == pytest.approx(1.0, abs=1e-5)  # n/(2t) = 1

    @pytest.mark.parametrize("mode", ["plain", "alpha"])
    def test_turning_clock_against_simpson(self, data, mode):
        # the trig clock rises before it falls: |l'| and |l l'| have a kink,
        # which the quadrature splits at and Simpson just resolves finely
        t, eps, n, K, alpha = 1.0, 1.0, 2.0, 0.0, 2.0
        clock = make_clock("trig", {"a": 0.9, "K": 2.0}, t=t)
        assert float(clock.dl(0.0)) > 0.0 > float(clock.dl(0.9 * t))
        rec = nonconvex_bound_rhs(data, clock, t, eps=eps, n=n, K=K,
                                  alpha=alpha, mode=mode)
        l, dl = clock.l, clock.dl
        if mode == "plain":
            rate = eps - data.K_phi(K)
            ref = 2 * simpson(lambda s: l(s) * np.abs(dl(s))
                              * np.exp(rate * s), 0, t, 2**16)
            assert rec.a == pytest.approx(ref, rel=1e-8)
        else:
            rate = data.K_alpha_phi(K, alpha) + data.K_phi(K) - eps
            ref = 1 + 2 * (alpha / data.kappa**2 - 1) * simpson(
                lambda s: np.abs(l(s) * dl(s)) * np.exp(rate * s), 0, t, 2**16)
            assert rec.gamma == pytest.approx(ref, rel=1e-8)
