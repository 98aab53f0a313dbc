import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simpson
from liyau import (HeatState, beta_t_alpha, bound_margins, bounds,
                   check_inequality, eval_bound, local_betas, phi_bbg)
from liyau.bounds import BOUND_IDS, BOUNDS, hypothesis, sweep
from liyau.harness import ExperimentConfig, run_experiment
from liyau.heatflow import KERNELS


class TestPhi:
    def test_value_at_zero_is_inverse_t(self):
        assert phi_bbg(1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert phi_bbg(2.0, 0.5, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_positive_branch(self):
        assert phi_bbg(1.0, 1.0, 1.0) == pytest.approx(1.3130352854993312,
                                                       abs=1e-12)

    def test_negative_branch_root(self):
        # K t sqrt(-r) = pi/2 makes the cot factor vanish
        assert phi_bbg(1.0, 1.0, -math.pi**2 / 4) == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_continuity_at_zero(self):
        for K, t in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.2)):
            up = phi_bbg(K, t, 1e-10)
            dn = phi_bbg(K, t, -1e-10)
            assert abs(up - 1.0 / t) < 1e-6
            assert abs(dn - 1.0 / t) < 1e-6

    def test_sign_property_on_grid(self):
        K, t = 1.3, 0.8
        r_pos = np.linspace(0.0, 50.0, 500)
        r_neg = np.linspace(-math.pi**2 / (K * t) ** 2 * 0.999, 0.0, 500)
        assert np.all(phi_bbg(K, t, r_pos) >= 1.0 / t - 1e-12)
        assert np.all(phi_bbg(K, t, r_neg) <= 1.0 / t + 1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            phi_bbg(1.0, 1.0, -math.pi**2)
        with pytest.raises(ValueError):
            phi_bbg(0.0, 1.0, 0.5)


class TestBetaRoot:
    def test_zero_at_unit_ratio(self):
        # (1+alpha)/(Kt) = 1 puts the root exactly at zero
        assert beta_t_alpha(1.0, 2.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_value(self):
        shift = (9 * math.pi**2 - 64) / (9 * math.pi**2)
        K, t = 1.0, 1.0
        alpha = shift * K * t - 1.0
        assert beta_t_alpha(K, t, alpha) == pytest.approx(-8 / (3 * math.pi),
                                                          abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(K=st.floats(-2.0, 2.0).filter(lambda k: abs(k) > 0.05),
           t=st.floats(0.05, 3.0), q=st.floats(0.2796, 8.0))
    def test_quadratic_identity(self, K, t, q):
        alpha = q * K * t - 1.0
        beta = beta_t_alpha(K, t, alpha)
        res = beta**2 + 16 * beta / (3 * math.pi) + 1 - (1 + alpha) / (K * t)
        assert abs(res) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta_t_alpha(1.0, 1.0, -0.9)


class TestLocalBetas:
    def test_flat_ball_values(self):
        beta, tbeta = local_betas(2, 0.0, math.pi / 2, eps=1.0, alpha=2.0)
        assert beta == pytest.approx(16.0, abs=1e-12)
        assert tbeta == pytest.approx(16.0, abs=1e-12)

    def test_large_ball_decay(self):
        beta, tbeta = local_betas(2, 0.0, 1e6, eps=1.0, alpha=2.0)
        assert beta < 1e-10 and tbeta < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            local_betas(2, -0.1, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            local_betas(2, 0.0, 1.0, 1.0, 1.0)


class TestEvalBound:
    def test_davies_flat_example(self):
        form = eval_bound("davies", {"n": 2, "t": 1.0, "K": 0.0, "alpha": 2.0})
        assert (form.gamma, form.a, form.c) == (1.0, 2.0, 4.0)

    def test_davies_domain(self):
        assert not eval_bound("davies", {"n": 2, "t": 1.0, "K": 0.0,
                                         "alpha": 1.0}).domain_ok

    def test_lu_range_upper_example(self):
        form = eval_bound("lu-range", {"n": 2, "t": math.pi, "K": 1.0})
        assert form.gamma == 0.0 and form.a == -1.0
        assert form.c == pytest.approx(1.0, abs=1e-12)

    def test_lu_range_lower_flat(self):
        form = eval_bound("lu-range", {"n": 2, "t": 1.0, "K": 0.0})
        assert form.a == 1.0
        assert form.c == pytest.approx(0.5 * (math.pi + math.pi), abs=1e-12)

    def test_linear_alpha_unit_example(self):
        form = eval_bound("linear-alpha", {"n": 1, "t": 0.5, "K": 0.0,
                                           "alpha": 1.0})
        assert (form.gamma, form.a, form.c) == (1.0, 1.0, 1.0)

    def test_linear_alpha_needs_margin_over_Kminus(self):
        form = eval_bound("linear-alpha", {"n": 2, "t": 1.0, "K": -1.0,
                                           "alpha": 1.5})
        assert not form.domain_ok
        form = eval_bound("linear-alpha", {"n": 2, "t": 1.0, "K": -1.0,
                                           "alpha": 2.0})
        assert form.domain_ok

    def test_exp_alpha_flat_limit(self):
        form = eval_bound("exp-alpha", {"n": 2, "t": 1.0, "K": 0.0,
                                        "alpha": 2.0})
        assert form.gamma == pytest.approx(1.0, abs=1e-12)
        assert form.a == 1.0
        assert form.c == pytest.approx(2.0, abs=1e-12)

    def test_exp_alpha_gamma_quadrature_oracle(self):
        # lhs coefficient = 1 + 2K int (1-e^{-Ks/(a-1)})^2 / (a (1-e^{-Kt/(a-1)})^2)
        for K in (-1.7, 0.9):
            t, alpha = 1.3, 2.4
            form = eval_bound("exp-alpha", {"n": 2, "t": t, "K": K,
                                            "alpha": alpha})
            beta = K / (alpha - 1)
            num = simpson(lambda s: (1 - np.exp(-beta * s)) ** 2, 0.0, t)
            ref = 1 + 2 * K * num / (alpha * (1 - math.exp(-beta * t)) ** 2)
            assert form.gamma == pytest.approx(ref, rel=1e-9)

    def test_exp_alpha_continuity_at_zero_curvature(self):
        base = eval_bound("exp-alpha", {"n": 2, "t": 1.0, "K": 0.0, "alpha": 2.0})
        for K in (1e-8, -1e-8):
            near = eval_bound("exp-alpha", {"n": 2, "t": 1.0, "K": K,
                                            "alpha": 2.0})
            assert near.gamma == pytest.approx(base.gamma, abs=1e-7)
            assert near.c == pytest.approx(base.c, abs=1e-7)

    def test_li_xu_flat_limit_and_continuity(self):
        base = eval_bound("li-xu", {"n": 2, "t": 1.0, "K": 0.0})
        assert base.a == pytest.approx(1.0, abs=1e-12)
        assert base.c == pytest.approx(1.0, abs=1e-12)  # n/(2t)
        near = eval_bound("li-xu", {"n": 2, "t": 1.0, "K": -1e-9})
        assert near.a == pytest.approx(base.a, abs=1e-8)
        assert near.c == pytest.approx(base.c, abs=1e-8)

    def test_li_xu_against_direct_formula(self):
        n, t, K = 3.0, 0.7, -1.4
        x = -K * t
        form = eval_bound("li-xu", {"n": n, "t": t, "K": K})
        a_ref = 1 + (math.sinh(x) * math.cosh(x) - x) / math.sinh(x) ** 2
        c_ref = (n * x / t / 2) * (1 + math.cosh(x) / math.sinh(x))
        assert form.a == pytest.approx(a_ref, rel=1e-12)
        assert form.c == pytest.approx(c_ref, rel=1e-12)

    def test_bakry_qian_linear_shape(self):
        form = eval_bound("bakry-qian", {"n": 2, "t": 0.5, "K": -2.0})
        assert form.a == pytest.approx(1 + (2 / 3) * 2 * 0.5)
        assert form.c == pytest.approx(2 / (2 * 0.5)
                                       + 0.5 * 2 * 2 * (1 + 2 * 0.5 / 3))

    def test_trig_alpha_matches_trig_clock_cost(self):
        # with a = beta root, the bound constant is (n/2) int l'^2 e^{-2Ks}
        from liyau import clock_integrals, make_clock
        n, K, t, alpha = 2.0, 1.0, 0.8, 2.0
        beta = beta_t_alpha(K, t, alpha)
        clock = make_clock("trig", {"K": K, "a": beta}, t=t)
        ints = clock_integrals(clock, K)
        form = eval_bound("trig-alpha", {"n": n, "t": t, "K": K, "alpha": alpha})
        # the constant is exactly the clock cost at the completed-square root
        assert form.c == pytest.approx(0.5 * n * ints["deriv_sq"], rel=1e-9)
        # and the identity 2K int l^2 e^{-2Ks} = 1 + alpha pins the Y slope
        assert 2 * K * ints["sq"] == pytest.approx(1 + alpha, rel=1e-9)

    def test_grad_decay_branch_continuity(self):
        # the (1 ^ Kt) split is continuous at t = 1/K
        for t in (0.999999, 1.000001):
            form = eval_bound("grad-decay", {"n": 2, "t": t, "K": 1.0,
                                             "K_prime": 1.0})
            ref = eval_bound("grad-decay", {"n": 2, "t": 1.0, "K": 1.0,
                                            "K_prime": 1.0})
            assert form.c == pytest.approx(ref.c, rel=1e-4)

    def test_lu_range_branch_continuity(self):
        for t in (math.pi - 1e-9, math.pi + 1e-9):
            form = eval_bound("lu-range", {"n": 2, "t": t, "K": 1.0})
            ref = eval_bound("lu-range", {"n": 2, "t": math.pi, "K": 1.0})
            assert form.c == pytest.approx(ref.c, rel=1e-6)

    def test_bbg_needs_Y_and_window(self):
        with pytest.raises(ValueError):
            eval_bound("bbg", {"n": 2, "t": 1.0, "K": 1.0})
        ok = eval_bound("bbg", {"n": 2, "t": 1.0, "K": 1.0, "Y": 0.3})
        assert ok.domain_ok and ok.a == 1.0
        bad = eval_bound("bbg", {"n": 2, "t": 1.0, "K": 1.0, "Y": 100.0})
        assert not bad.domain_ok

    def test_local_grad_constants(self):
        form = eval_bound("local-grad", {"n": 2, "t": 0.5, "K": 1.0,
                                         "K_region": 0.0, "R": math.pi / 2,
                                         "eps": 1.0})
        assert form.domain_ok and form.a >= 0.0
        beta = 16.0
        c_ref = 0.5 * 2 * 4 * beta / (1 - math.exp(-beta * 0.5))
        assert form.c == pytest.approx(c_ref, rel=1e-12)

    def test_local_alpha_constants(self):
        form = eval_bound("local-alpha", {"n": 2, "t": 0.5, "K": 1.0,
                                          "K_region": 0.0, "R": math.pi / 2,
                                          "alpha": 2.0})
        beta = 16.0
        c_ref = 0.5 * 2 * 4 * (0.0 + beta / (1 - math.exp(-beta * 0.5)))
        assert form.c == pytest.approx(c_ref, rel=1e-12)

    def test_catalog_is_enumerable(self):
        assert "davies" in BOUND_IDS
        assert BOUND_IDS == tuple(BOUNDS)
        with pytest.raises(ValueError):
            eval_bound("made-up", {"n": 1, "t": 1.0})


class TestBoundTable:
    """BOUNDS lists the config params each id reads, required or not."""

    SWEEP = ("alpha", "eps", "K_prime", "R", "K_region")
    BASE = {"alpha": 2.0, "eps": 1.0, "K_prime": 1.5, "R": 1.0,
            "K_region": 0.5}
    MOVED = {"alpha": 3.0, "eps": 2.0, "K_prime": 2.0, "R": 2.0,
             "K_region": 1.0}
    # K = 1 and t = 3 put every id in domain, and t > 1/K lets K_prime act
    STATE = {"n": 2.0, "t": 3.0, "K": 1.0, "Y": 0.1}

    def constants(self, bound_id, params):
        form = eval_bound(bound_id, dict(self.STATE, **params))
        return repr((form.gamma, form.a, form.c, form.domain_ok, form.note))

    def test_declared_params_are_exactly_the_read_ones(self):
        for bid, bound in BOUNDS.items():
            declared = list(bound.params)
            assert declared == [k for k in self.SWEEP if k in declared], bid
            params = {k: self.BASE[k] for k in declared}
            base = self.constants(bid, params)
            for key in self.SWEEP:
                moved = self.constants(bid, {**params, key: self.MOVED[key]})
                if key in declared and bid not in ("yau", "bakry-qian-sqrt"):
                    assert moved != base, (bid, key)   # read
                else:
                    assert moved == base, (bid, key)   # ignored

    def test_a_missing_required_param_raises(self):
        for bid, bound in BOUNDS.items():
            params = {k: self.BASE[k] for k in bound.params}
            for key, required in bound.params.items():
                fewer = {k: v for k, v in params.items() if k != key}
                if required:
                    with pytest.raises(KeyError, match=key):
                        eval_bound(bid, dict(self.STATE, **fewer))
                else:
                    eval_bound(bid, dict(self.STATE, **fewer))

    def test_optional_params_default_to_the_model(self):
        # K_prime defaults to K, K_region to K^-
        for bid, key, value in (("grad-decay", "K_prime", 1.0),
                                ("local-grad", "K_region", 0.0),
                                ("local-alpha", "K_region", 0.0)):
            params = {k: self.BASE[k] for k in BOUNDS[bid].params if k != key}
            assert (self.constants(bid, params)
                    == self.constants(bid, dict(params, **{key: value})))

    def test_a_sweep_is_the_product_in_sweep_order(self):
        entry = {"id": "local-grad", "params": {"K_region": 0.0, "R": [0.5, 1.0],
                                                "eps": [1.0, 2.0]}}
        assert sweep(entry) == ("local-grad", [
            {"eps": e, "R": R, "K_region": 0.0}
            for e in (1.0, 2.0) for R in (0.5, 1.0)])
        assert sweep({"id": "yau"}) == ("yau", [{}])
        for entry in ({"id": "yau", "params": {"alpha": 3.0}},
                      {"id": "davies"}, {"id": "davies", "parms": {}},
                      {"id": "local-grad", "params": {"eps": 1.0}},
                      {"id": "davies", "params": {"alpha": 2.0, "n": 3}},
                      {"id": "made-up"}):
            with pytest.raises(ValueError):
                sweep(entry)

    def test_a_sweep_takes_real_numbers_only(self):
        assert sweep({"id": "davies", "params": {"alpha": [2, 2.5]}}) == (
            "davies", [{"alpha": 2}, {"alpha": 2.5}])
        for alpha in ("2", True, None, [1.5, "2"], [2.0, False], {"a": 2}):
            with pytest.raises(ValueError, match="must be a real number"):
                sweep({"id": "davies", "params": {"alpha": alpha}})


class TestCheckInequality:
    def test_constant_state_margin_is_c(self):
        for bid in ("davies", "bakry-qian", "li-xu", "exp-alpha",
                    "linear-alpha"):
            params = {"n": 2, "t": 1.0, "K": 0.0, "alpha": 2.0}
            res = check_inequality(bid, params, 0.0, 0.0)
            form = eval_bound(bid, params)
            assert res.ok and res.margin == pytest.approx(form.c)

    def test_bq_sqrt_flat_reduction(self):
        # K^- = 0 kills the sqrt: margin = Y + n/2t - X
        res = check_inequality("bakry-qian-sqrt", {"n": 2, "t": 0.5, "K": 0.0},
                               1.7, 0.4)
        assert res.margin == pytest.approx(0.4 + 2.0 - 1.7)

    def test_yau_needs_W(self):
        with pytest.raises(ValueError):
            check_inequality("yau", {"n": 2, "t": 0.5, "K": -1.0}, 0.1, 0.0)
        res = check_inequality("yau", {"n": 2, "t": 0.5, "K": -1.0, "W": 0.2},
                               0.1, 0.0)
        ref = (0.0 + math.sqrt(2 * 2 * 1) * math.sqrt(0.2 + 2.0 + 4.0)
               + 2.0 - 0.1)
        assert res.margin == pytest.approx(ref, rel=1e-12)

    def test_gaussian_attains_linear_alpha_equality(self, line):
        # flat heat kernel saturates X = Y + n/(2t) exactly
        grid = np.array([0.3, 0.9, 2.0])
        state = HeatState(line, 0.5, grid,
                          *KERNELS[line.family](line.m, 0.5, grid))
        for i in range(3):
            res = check_inequality("linear-alpha",
                                   {"n": 1, "t": 0.5, "K": 0.0, "alpha": 1.0},
                                   float(state.X()[i]), float(state.Y()[i]))
            assert abs(res.margin) < 1e-12

    def test_out_of_domain_is_distinguished(self):
        res = check_inequality("trig-alpha", {"n": 2, "t": 1.0, "K": 0.0,
                                              "alpha": 2.0}, 0.1, 0.0)
        assert res.status == "out-of-domain" and res.margin is None

    def test_negative_X_rejected(self):
        with pytest.raises(ValueError):
            check_inequality("davies", {"n": 2, "t": 1.0, "K": 0.0,
                                        "alpha": 2.0}, -0.1, 0.0)


class TestBoundMargins:
    def test_bbg_window_per_node(self):
        # the middle node's Y puts lam = 1 - 4Y/nK below -pi^2/(Kt)^2
        params = {"n": 2.0, "t": 1.0, "K": 1.0}
        X = np.array([0.2, 0.2, 0.0])
        Y = np.array([0.3, 100.0, -0.5])
        m = bound_margins("bbg", params, X, Y)
        assert m.domain_ok.tolist() == [True, False, True]
        for i in range(3):
            res = check_inequality("bbg", params, X[i], Y[i])
            form = eval_bound("bbg", dict(params, Y=float(Y[i])))
            assert bool(m.domain_ok[i]) == res.ok == form.domain_ok
            if res.ok:
                assert (float(m.margin[i]).hex() == res.margin.hex()
                        == form.margin(X[i], Y[i]).hex())
                assert float(m.c[i]).hex() == form.c.hex()
            else:
                assert math.isnan(m.margin[i]) and m.c[i] == 0.0
                assert m.note[i] == res.note == form.note

    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 3.0, 50)
    Y = rng.uniform(-2.0, 2.0, 50)
    W = rng.uniform(0.0, 3.0, 50)
    NODES = list(zip(X.tolist(), Y.tolist(), W.tolist()))

    @staticmethod
    def params(K):
        return {"n": 2.0, "t": 0.7, "K": K, "alpha": 2.0, "eps": 1.0,
                "R": 1.5, "K_region": 0.0}

    def test_every_id_matches_its_scalar_form(self):
        # the normal-form ids against eval_bound, bbg against eval_bound at
        # each node's Y and the square-root ids against check_inequality
        # with the node's W; at K = 0.8 every id is in domain, at K = -0.8
        # the ids that need K > 0 skip every node with eval_bound's note
        for K in (0.8, -0.8):
            params = self.params(K)
            for bid in BOUND_IDS:
                m = bound_margins(bid, params, self.X, self.Y, self.W)
                if bid in ("yau", "bakry-qian-sqrt"):
                    assert m.gamma is None and m.domain_ok.all()
                    ref = [check_inequality(bid, dict(params, W=w), x, y).margin
                           for x, y, w in self.NODES]
                    assert not eval_bound(bid, params).domain_ok
                elif bid == "bbg" and K > 0:
                    forms = [eval_bound(bid, dict(params, Y=y))
                             for _, y, _ in self.NODES]
                    assert m.domain_ok.all() and all(f.domain_ok for f in forms)
                    assert m.c.tolist() == [f.c for f in forms]
                    ref = [f.margin(x, y) for f, (x, y, _) in zip(forms,
                                                                  self.NODES)]
                else:
                    form = eval_bound(bid, params)
                    if not form.domain_ok:
                        assert K < 0 and m.skip_all and not m.domain_ok.any()
                        assert m.note.tolist() == [form.note] * self.X.size
                        continue
                    assert m.domain_ok.all() and not m.skip_all
                    assert (m.gamma, m.a, m.c) == (form.gamma, form.a, form.c)
                    ref = [form.margin(x, y) for x, y, _ in self.NODES]
                assert m.margin.tolist() == ref, (bid, K)

    def test_bound_margins_never_calls_eval_bound(self, monkeypatch):
        # one evaluator: eval_bound reads bound_margins, not the reverse
        def no_call(*args, **kwargs):
            raise AssertionError("bound_margins went through eval_bound")

        monkeypatch.setattr(bounds, "eval_bound", no_call)
        for K in (0.8, 0.0, -0.8):
            params = self.params(K)
            for bid in BOUND_IDS:
                bound_margins(bid, params, self.X, self.Y, self.W)
                check_inequality(bid, dict(params, W=0.5), 0.1, 0.2)

    def test_constants_out_of_domain_skip_every_node(self):
        m = bound_margins("linear-unit", {"n": 2, "t": 1.0, "K": -1.0},
                          np.zeros(4), np.zeros(4))
        assert m.skip_all and not m.domain_ok.any()
        assert m.note.tolist() == ["needs K > 0"] * 4


class TestHypotheses:
    """BOUNDS declares what each id assumes; hypothesis reads it."""

    Z0 = "stated for Z = 0, skipped on a drift model"

    def test_the_first_failing_note_in_check_order(self):
        for bid, t, K, p, drift, note in (
                ("davies", 1.0, 0.0, {"alpha": 0.5}, True, self.Z0),
                ("davies", 1.0, 0.0, {"alpha": 0.5}, False,
                 "alpha must exceed 1"),
                ("davies", 1.0, -1.0, {"alpha": 1.5}, False, ""),
                ("yau", 1.0, -1.0, {}, True, self.Z0),
                ("bbg", 1.0, 0.0, {}, False, "needs K > 0"),
                ("linear-unit", 1.0, 1.0, {}, True, ""),
                ("exp-alpha", 1.0, -1.0, {"alpha": 1.0}, True,
                 "alpha must exceed 1"),
                ("linear-alpha", 0.5, -1.0, {"alpha": 1.4}, False,
                 "alpha must satisfy alpha >= 1 + K^- t"),
                ("linear-alpha", 0.5, -1.0, {"alpha": 1.5}, True, ""),
                ("trig-alpha", 1.0, 0.0, {"alpha": 2.0}, False, "needs K != 0"),
                ("trig-alpha", 1.0, -1.0, {"alpha": 2.0}, False,
                 "(1+alpha)/(Kt) below the admissible threshold"),
                ("grad-decay", 1.0, -1.0, {"K_prime": -2.0}, False,
                 "needs K > 0"),
                ("grad-decay", 1.0, 1.0, {"K_prime": 0.5}, False,
                 "needs K_prime >= K"),
                ("grad-decay", 1.0, 1.0, {}, False, ""),   # K_prime = K
                ("local-grad", 1.0, 1.0, {"eps": 0.0}, False, "needs eps > 0"),
                ("local-alpha", 1.0, 1.0, {"alpha": 1.0}, False,
                 "alpha must exceed 1"),
                ("lu-range", 1.0, -1.0, {}, True, "")):
            assert hypothesis(bid, t, K, p, drift) == note, bid
            full = dict(p, n=2.0, t=t, K=K, eps=p.get("eps", 1.0), R=1.0)
            m = bound_margins(bid, full, np.zeros(3), np.zeros(3), np.zeros(3),
                              drift=drift)
            assert m.skip_all is bool(note), bid
            if note:
                assert m.note.tolist() == [note] * 3

    def test_beta_t_alpha_is_real_where_trig_alpha_holds(self):
        # one radicand for the root and the hypothesis
        for K in (-2.0, -0.3, 0.0, 0.3, 2.0):
            for t in (0.05, 0.5, 2.0, 20.0):
                for alpha in (0.5, 1.0, 2.0, 4.0):
                    note = hypothesis("trig-alpha", t, K, {"alpha": alpha})
                    if note:
                        with pytest.raises(ValueError, match=re.escape(note)):
                            beta_t_alpha(K, t, alpha)
                    else:
                        assert math.isfinite(beta_t_alpha(K, t, alpha))

    def test_a_drift_skips_only_the_ids_stated_for_z0(self):
        params = {"n": 2.0, "t": 0.7, "K": 0.8, "alpha": 2.0, "eps": 1.0,
                  "R": 1.5}
        skipped = {bid for bid in BOUND_IDS if bound_margins(
            bid, params, np.zeros(2), np.zeros(2), np.zeros(2),
            drift=True).skip_all}
        assert skipped == {"davies", "bakry-qian", "li-xu", "yau",
                           "bakry-qian-sqrt"}


class TestMutation:
    """A bound whose right-hand side is weakened by the factor 1 - delta
    must fail rows of configs/kernel_line.json, whose heat kernel nearly
    saturates the flat bounds.  The right-hand side is a Y + c, or
    Y + root + n/2t for the square-root forms: margin + gamma X, gamma = 1
    without a normal form."""

    CONFIG = Path(bounds.__file__).parents[2] / "configs" / "kernel_line.json"

    def caught(self, monkeypatch, bound_id, delta) -> bool:
        def weakened(bid, params, X, Y, W=None, drift=False):
            m = bound_margins(bid, params, X, Y, W, drift)
            if bid != bound_id:
                return m
            gamma = 1.0 if m.gamma is None else m.gamma
            return replace(m, margin=m.margin - delta * (m.margin + gamma * X))

        monkeypatch.setattr(bounds, "bound_margins", weakened)
        config = ExperimentConfig.from_json(self.CONFIG)
        one = [e for e in config.bounds if e["id"] == bound_id]
        report = run_experiment(replace(config, bounds=one))
        assert report.checked()
        return bool(report.failures())

    def test_a_weakened_bound_fails(self, monkeypatch):
        for bid in ("bakry-qian", "li-xu", "yau", "bakry-qian-sqrt"):
            assert self.caught(monkeypatch, bid, 1e-2), bid
        for bid in ("exp-alpha", "linear-alpha"):
            assert not self.caught(monkeypatch, bid, 1e-2), bid
            assert self.caught(monkeypatch, bid, 1e-1), bid

    def test_no_bound_fails_unweakened(self, monkeypatch):
        for entry in ExperimentConfig.from_json(self.CONFIG).bounds:
            assert not self.caught(monkeypatch, entry["id"], 0.0), entry


class TestComparisons:
    def test_exp_alpha_improves_davies_constant(self):
        # (K/4) coth(Kt/(2(a-1))) < K^-/2 + (a-1)/(2t) for K < 0
        for K in np.linspace(-3.0, -0.05, 12):
            for alpha in np.linspace(1.05, 4.0, 9):
                for t in np.linspace(0.05, 3.0, 9):
                    x = K * t / (2 * (alpha - 1))
                    lhs = (K / 4) / math.tanh(x)
                    rhs = -K / 2 + (alpha - 1) / (2 * t)
                    assert lhs < rhs

    def test_margin_scale_invariance_of_forms(self):
        # doubling n doubles every constant term of the scale-linear bounds
        p1 = eval_bound("davies", {"n": 1, "t": 0.7, "K": -0.5, "alpha": 2.0})
        p2 = eval_bound("davies", {"n": 2, "t": 0.7, "K": -0.5, "alpha": 2.0})
        assert p2.c == pytest.approx(2 * p1.c)


@settings(max_examples=40, deadline=None)
@given(K=st.floats(-2, 2), t=st.floats(0.05, 2.5), n=st.floats(1, 4))
def test_flat_margins_dominate_gaussian_rate(K, t, n):
    # every catalog bound at X = Y + n/2t (the flat saturation line) has
    # nonnegative margin when K <= 0 is replaced by its negative part
    X = n / (2 * t) + max(0.0, 0.3)
    Y = 0.3
    res = check_inequality("bakry-qian", {"n": n, "t": t, "K": K}, X, Y)
    assert res.margin >= -1e-9
