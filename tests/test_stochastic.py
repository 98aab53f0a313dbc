import math

import numpy as np
import pytest
from scipy import integrate, stats

from liyau import (clock_integrals, cutoff_growth_check, estimate_functional,
                   expected_local_time, expected_value_at, initial_datum,
                   local_time_moment, make_clock, make_model_manifold,
                   simulate_reflected_path, solve_heat, path_weight,
                   time_change)
from liyau.stochastic import _Stepper

TWO_OVER_ROOT_PI = 1.1283791670955126  # E[L_1] for the reflected flat wall


def local_time_mgf(q, t):
    """E[e^{q L_t}] from the wall: L_t ~ |N(0, 2t)|."""
    return 2.0 * math.exp(q * q * t) * stats.norm.cdf(q * math.sqrt(2 * t))


def reference_flat_step(M, dt, scheme, x, rng):
    """The allocating flat-wall step the in-place stepper must reproduce."""
    y = x + math.sqrt(2.0 * dt) * rng.standard_normal(x.shape)
    dL = np.zeros_like(x)
    for pos, direction in M.boundaries():
        if scheme == "bridge":
            E = rng.standard_exponential(x.shape)
            if direction > 0:
                a, b = x - pos, y - pos
            else:
                a, b = pos - x, pos - y
            dist = a - b
            mmin = 0.5 * (a + b - np.sqrt(dist * dist + 4.0 * dt * E))
            push = np.maximum(0.0, -mmin)
        else:
            push = np.maximum(0.0, (pos - y) * direction)
        y += direction * push
        dL += push
    return y, dL


class TestPathEngine:
    def test_circle_has_no_local_time(self, circle):
        ps = simulate_reflected_path(circle, 1.0, 0.5, 1e-3, seed=3)
        assert np.all(ps.dL == 0.0)
        assert np.all((ps.x >= 0.0) & (ps.x < 2 * math.pi))

    def test_half_line_stays_nonnegative(self, half_line):
        ps = simulate_reflected_path(half_line, 0.0, 1.0, 1e-3, seed=4)
        assert np.min(ps.x) >= 0.0
        assert ps.L[-1] > 0.0

    def test_interval_stays_inside(self, interval):
        ps = simulate_reflected_path(interval, 0.1, 2.0, 1e-3, seed=5)
        assert np.min(ps.x) >= 0.0
        assert np.max(ps.x) <= interval.length

    def test_determinism(self, half_line):
        a = simulate_reflected_path(half_line, 0.2, 0.5, 1e-3, seed=9)
        b = simulate_reflected_path(half_line, 0.2, 0.5, 1e-3, seed=9)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.dL, b.dL)
        c = simulate_reflected_path(half_line, 0.2, 0.5, 1e-3, seed=10)
        assert not np.array_equal(a.x, c.x)

    def test_projection_scheme_zero_push_off_wall(self, half_line):
        # with the projection rule, dL > 0 only when the Euler point left
        # the domain; the bridge rule may push from inside by design
        ps = simulate_reflected_path(half_line, 0.5, 0.5, 1e-3, seed=11,
                                     scheme="projection")
        free = ps.x[:-1] + np.diff(ps.x) - ps.dL  # reconstruct free endpoint
        assert np.all(ps.dL[free > 0] == 0.0)

    def test_sphere_chart_guard(self, sphere2):
        ps = simulate_reflected_path(sphere2, 1.5, 0.5, 1e-3, seed=12)
        assert np.all((ps.x > 0.0) & (ps.x < math.pi))
        assert ps.dL.sum() == 0.0


class TestStepCount:
    """Every entry point runs a whole number of steps or refuses."""

    @pytest.mark.parametrize("run", [
        lambda M, t, dt: simulate_reflected_path(M, 0.2, t, dt, seed=1),
        lambda M, t, dt: estimate_functional(
            M, initial_datum("gaussian", {"amp": 1.0, "width": 0.3}), 0.2,
            t, None, "gradient_rhs", 10, dt, seed=1),
        lambda M, t, dt: local_time_moment(M, 0.0, t, 1.0, 10, dt, seed=1),
        lambda M, t, dt: expected_local_time(M, 0.0, t, 10, dt, seed=1),
        lambda M, t, dt: expected_value_at(
            M, initial_datum("gaussian", {"amp": 1.0, "width": 0.3}), 0.2,
            t, 10, dt, seed=1),
        lambda M, t, dt: cutoff_growth_check(
            M, 0.2, np.ones_like, [0.1], horizon=t, dt=dt, n_paths=10,
            seed=1),
    ], ids=["simulate_reflected_path", "estimate_functional",
            "local_time_moment", "expected_local_time", "expected_value_at",
            "cutoff_growth_check"])
    def test_horizon_must_be_whole_steps(self, half_line, run):
        with pytest.raises(ValueError, match="not a multiple"):
            run(half_line, 0.25, 0.1)
        run(half_line, 0.3, 0.1)  # 3 steps, up to rounding of 0.3 / 0.1


class TestBridgeExactness:
    """The bridge scheme's per-step transition is exact on flat walls, so
    even a coarse dt must reproduce the reflected laws; the projection
    scheme visibly fails the same tests at this resolution."""

    def _endpoints(self, half_line, scheme, n, dt):
        rng = np.random.default_rng(77)
        stepper = _Stepper(half_line, dt, scheme)
        x = np.full(n, 0.3)
        dL = np.zeros(n)
        L = np.zeros(n)
        for _ in range(int(round(0.25 / dt))):
            x = stepper(x, rng, dL)
            L += dL
        return x, L

    def test_endpoint_distribution_coarse_steps(self, half_line):
        sig = math.sqrt(2 * 0.25)
        cdf = lambda z: (stats.norm.cdf((z - 0.3) / sig)
                         + stats.norm.cdf((z + 0.3) / sig) - 1.0)
        x, _ = self._endpoints(half_line, "bridge", 20000, dt=0.05)
        ks = stats.kstest(x, cdf)
        assert ks.pvalue > 0.01, ks
        x, _ = self._endpoints(half_line, "projection", 20000, dt=0.05)
        ks_bad = stats.kstest(x, cdf)
        assert ks_bad.pvalue < 1e-4  # coarse projection is visibly biased

    def test_local_time_distribution_from_wall(self, half_line):
        # started on the wall, L_t has the half-normal law scale sqrt(2t)
        rng = np.random.default_rng(78)
        stepper = _Stepper(half_line, 0.05, "bridge")
        x = np.zeros(20000)
        dL = np.zeros(20000)
        L = np.zeros(20000)
        for _ in range(5):
            x = stepper(x, rng, dL)
            L += dL
        ks = stats.kstest(L, lambda z: stats.halfnorm.cdf(
            z, scale=math.sqrt(2 * 0.25)))
        assert ks.pvalue > 0.01, ks


class TestInPlaceStepper:
    """The flat-wall stepper updates its input in place with exactly the
    draws and rounding of the allocating formulas."""

    @pytest.mark.parametrize("scheme", ["bridge", "projection"])
    @pytest.mark.parametrize("family", ["half-line-neumann",
                                        "interval-neumann"])
    def test_bit_identical_to_allocating_formulas(self, family, scheme):
        M = make_model_manifold(family)
        top = M.boundaries()[-1][0] if family == "interval-neumann" else 3.0
        starts = [0.0, 0.0, 1e-3, 0.05, 0.5, top / 2, top - 0.05, top]
        x = np.tile(starts, 25)  # mixed starts, some on a wall
        ref = x.copy()
        dL = np.zeros_like(x)
        stepper = _Stepper(M, 0.01, scheme)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        pushed = 0
        for _ in range(50):
            ref, ref_dL = reference_flat_step(M, 0.01, scheme, ref, ref_rng)
            assert stepper(x, rng, dL) is x
            # bit patterns, so a changed sign of zero shows as well
            assert np.array_equal(x.view(np.uint64), ref.view(np.uint64))
            assert np.array_equal(dL.view(np.uint64),
                                  ref_dL.view(np.uint64))
            pushed += np.count_nonzero(dL)
        assert pushed > 100  # the walls were exercised


class TestLocalTime:
    def test_flat_wall_oracle_small(self, half_line):
        # E[L_1] = 2/sqrt(pi) in the sqrt(2) dB normalisation
        est = local_time_moment(half_line, 0.0, 1.0, 1.0, n_paths=4000,
                                dt=1e-3, seed=21)
        mean_L = est.meta["mean_L"]
        # mean_L is a plain average; its spread is about 0.85/sqrt(n)
        assert abs(mean_L - TWO_OVER_ROOT_PI) < 3.0 * 0.853 / math.sqrt(4000)

    @pytest.mark.parametrize("p,seed", [(0.5, 81), (1.0, 82)])
    def test_moment_closed_form_from_wall(self, half_line, p, seed):
        # the bridge step is exact on a flat wall, so a coarse dt suffices
        est = local_time_moment(half_line, 0.0, 1.0, p, n_paths=20000,
                                dt=0.05, seed=seed)
        assert abs(est.value - local_time_mgf(p, 1.0)) <= 3.0 * est.stderr

    def test_moment_is_one_at_p_zero(self, half_line):
        est = local_time_moment(half_line, 0.0, 1.0, 0.0, 100, 1e-2, seed=1)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_moment_finite_and_stable_under_dt_halving(self, half_line):
        a = local_time_moment(half_line, 0.0, 1.0, 1.0, 4000, 2e-3, seed=31)
        b = local_time_moment(half_line, 0.0, 1.0, 1.0, 4000, 1e-3, seed=32)
        assert math.isfinite(a.value) and math.isfinite(b.value)
        joint = math.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) <= 3.0 * joint

    def test_far_from_wall_is_unit(self, half_line):
        est = local_time_moment(half_line, 10.0, 0.01, 1.0, 500, 1e-4, seed=5)
        assert abs(est.value - 1.0) < 1e-6

    def test_needs_boundary(self, circle):
        with pytest.raises(ValueError):
            local_time_moment(circle, 0.0, 1.0, 1.0, 100, 1e-2, seed=0)


class TestWeights:
    def test_unit_weight_without_fields(self, half_line):
        ps = simulate_reflected_path(half_line, 0.5, 0.4, 1e-3, seed=7)
        assert path_weight(ps, K_field=0.0, sigma_field=0.0) == 1.0

    def test_constant_curvature_weight(self, half_line):
        ps = simulate_reflected_path(half_line, 0.5, 0.4, 1e-3, seed=7)
        w = path_weight(ps, K_field=0.7, sigma_field=0.0, s=0.25)
        assert w == pytest.approx(math.exp(-2 * 0.7 * 0.25), rel=1e-9)

    def test_boundary_weight_uses_local_time(self, half_line):
        ps = simulate_reflected_path(half_line, 0.0, 0.6, 1e-3, seed=8)
        w = path_weight(ps, K_field=0.0, sigma_field=1.0)
        L = float(np.sum(ps.dL))
        assert w == pytest.approx(math.exp(-2 * L), rel=1e-12)
        assert w <= 1.0

    def test_manifold_defaults(self, half_line):
        ps = simulate_reflected_path(half_line, 0.3, 0.4, 1e-3, seed=9)
        assert path_weight(ps) == 1.0  # K = 0, sigma = 0 on the half line

    def test_path_dump_and_estimate_serialization(self, half_line, tmp_path):
        ps = simulate_reflected_path(half_line, 0.3, 0.1, 1e-3, seed=9)
        out = tmp_path / "path.csv"
        ps.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[1].endswith("s,x,dL,A,B")
        assert len(lines) == 2 + ps.times.size
        est = local_time_moment(half_line, 0.0, 0.1, 1.0, 200, 1e-3, seed=2)
        doc = est.to_dict()
        for key in ("functional_id", "value", "stderr", "n_paths", "dt",
                    "seed", "manifold"):
            assert key in doc


class TestRepresentation:
    # E[u0(X_t)] must match the PDE solve within Monte Carlo error
    @pytest.mark.parametrize("family,datum_spec,x0", [
        ("circle", ("cosine", {"k": 1, "amp": 0.5}), 2.0),
        ("interval-neumann", ("cosine", {"k": 1, "amp": 0.5}), 1.0),
        ("half-line-neumann", ("gaussian", {"amp": 1.0, "width": 0.3}), 0.6),
        ("euclidean-line", ("gaussian", {"amp": 1.0, "width": 0.4}), 0.2),
        ("hyperbolic-radial", ("cosine", {"k": 1, "amp": 0.4}), 1.5),
    ])
    def test_endpoint_law(self, family, datum_spec, x0):
        M = make_model_manifold(family, m=2 if family == "hyperbolic-radial"
                                else 1)
        datum = initial_datum(*datum_spec)
        est = expected_value_at(M, datum, x0, 0.25, n_paths=6000, dt=2.5e-4,
                                seed=41)
        scheme = ("kernel" if family in ("euclidean-line",
                                         "half-line-neumann") else "spectral")
        st = solve_heat(M, datum, 0.25, scheme=scheme)
        target = float(np.interp(x0, st.grid, st.u))
        assert abs(est.value - target) <= 3.0 * est.stderr

    def test_endpoint_law_sphere_exact_mode(self, sphere2):
        datum = initial_datum("legendre", {"index": 1, "amp": 0.4})
        est = expected_value_at(sphere2, datum, 1.2, 0.2, n_paths=6000,
                                dt=2.5e-4, seed=43)
        target = 1 + 0.4 * math.exp(-2 * 0.2) * math.cos(1.2)
        assert abs(est.value - target) <= 3.0 * est.stderr

    def test_endpoint_law_flat_radial(self):
        # radial Gaussian has the closed evolution (s0/(s0+t))^{m/2} profile
        M = make_model_manifold("euclidean-radial", m=2)
        datum = initial_datum("gaussian", {"amp": 1.0, "width": 0.4})
        t, x0 = 0.2, 1.1
        est = expected_value_at(M, datum, x0, t, n_paths=6000, dt=2.5e-4,
                                seed=44)
        st = 0.4 + t
        target = 1 + (0.4 / st) * math.exp(-x0**2 / (4 * st))
        assert abs(est.value - target) <= 3.0 * est.stderr


class TestFunctionals:
    def test_constant_datum_harnack_rhs(self, interval):
        # u0 = c: Lu0 = 0 and the estimate is (n/2) c / t with no noise
        datum = initial_datum("constant", {"c": 2.0})
        clock = make_clock("linear", t=0.5)
        est = estimate_functional(interval, datum, 1.0, 0.5, clock,
                                  "harnack_rhs", 500, 1e-3, seed=51)
        assert est.value == pytest.approx(0.5 * 1 * 2.0 / 0.5, abs=1e-12)
        assert est.stderr == 0.0

    def test_gradient_rhs_constant_is_zero(self, interval):
        datum = initial_datum("constant", {"c": 1.0})
        est = estimate_functional(interval, datum, 1.0, 0.5, None,
                                  "gradient_rhs", 500, 1e-3, seed=52)
        assert est.value == 0.0

    @pytest.mark.parametrize("K", [0.0, 0.5, -0.5])
    def test_matches_deterministic_quadrature(self, interval, K):
        datum = initial_datum("cosine", {"k": 1, "amp": 0.5})
        clock = make_clock("linear", t=0.5)
        est = estimate_functional(interval, datum, 1.0, 0.5, clock,
                                  "harnack_rhs", 20000, 1e-3, seed=53,
                                  K_field=K)
        ints = clock_integrals(clock, K)
        st = solve_heat(interval, datum, 0.5)
        i = st.index_of(1.0)
        target = (0.5 * interval.n * ints["deriv_sq"] * float(st.u[i])
                  - ints["sq_prime"] * float(st.Lu[i]))
        tol = 3.0 * est.stderr if est.stderr else 1e-12
        assert abs(est.value - target) <= tol

    def test_pathwise_weight_route_agrees(self, interval):
        # a callable constant field must reproduce the scalar fast path
        datum = initial_datum("cosine", {"k": 1, "amp": 0.5})
        clock = make_clock("linear", t=0.4)
        a = estimate_functional(interval, datum, 1.0, 0.4, clock,
                                "harnack_rhs", 4000, 5e-4, seed=54,
                                K_field=0.5)
        b = estimate_functional(interval, datum, 1.0, 0.4, clock,
                                "harnack_rhs", 4000, 5e-4, seed=54,
                                K_field=lambda x: np.full_like(x, 0.5))
        assert b.value == pytest.approx(a.value, rel=2e-3)

    def test_harnack_inequality_holds(self, interval):
        # W = |grad u_t|^2/u_t at x is below the estimated right side
        datum = initial_datum("cosine", {"k": 1, "amp": 0.5})
        clock = make_clock("linear", t=0.4)
        est = estimate_functional(interval, datum, 1.0, 0.4, clock,
                                  "harnack_rhs", 20000, 1e-3, seed=55)
        st = solve_heat(interval, datum, 0.4)
        W = float(st.W()[st.index_of(1.0)])
        assert W <= est.value + 3.0 * est.stderr

    def test_gradient_inequality_holds(self, half_line):
        datum = initial_datum("gaussian", {"amp": 1.0, "width": 0.3})
        est = estimate_functional(half_line, datum, 0.8, 0.5, None,
                                  "gradient_rhs", 20000, 1e-3, seed=56)
        st = solve_heat(half_line, datum, 0.5, scheme="kernel")
        grad = abs(float(st.grad_u[st.index_of(0.8)]))
        assert grad <= est.value + 3.0 * est.stderr

    def test_boundary_weight_gradient_oracle(self):
        # from the wall (X_t, L_t) = sqrt(2) (M_t - B_t, M_t) (Levy), and
        # (m, y) = (M_t, M_t - B_t) has density 2 (m+y)/sqrt(2 pi t^3)
        # e^{-(m+y)^2/2t}; so E[|u0'(X_t)| e^{-sigma L_t}] is a double
        # integral
        sigma, t, s0 = -0.5, 0.5, 0.3
        M = make_model_manifold("half-line-neumann", sigma=sigma)
        datum = initial_datum("gaussian", {"amp": 1.0, "width": s0})
        est = estimate_functional(M, datum, 0.0, t, None, "gradient_rhs",
                                  20000, 0.05, seed=83)

        def integrand(y, m):
            x = math.sqrt(2.0) * y
            grad = x / (2.0 * s0) * math.exp(-x * x / (4.0 * s0))
            density = (2.0 * (m + y) / math.sqrt(2.0 * math.pi * t**3)
                       * math.exp(-(m + y) ** 2 / (2.0 * t)))
            return grad * math.exp(-sigma * math.sqrt(2.0) * m) * density

        edge = 12.0 * math.sqrt(t)
        target, _ = integrate.dblquad(integrand, 0.0, edge, 0.0, edge)
        assert abs(est.value - target) <= 3.0 * est.stderr

    def test_boundary_weight_harnack_oracle(self):
        # u0 = c leaves (n/2) c sum_k l'(s_k)^2 e^{-2 sigma L_{s_k}} dt per
        # path, whose mean is exact at the grid times on a flat wall
        sigma, t, dt, c = -0.5, 0.5, 0.05, 2.0
        M = make_model_manifold("half-line-neumann", sigma=sigma)
        clock = make_clock("linear", t=t)
        est = estimate_functional(M, initial_datum("constant", {"c": c}),
                                  0.0, t, clock, "harnack_rhs", 20000, dt,
                                  seed=84)
        s = np.arange(10) * dt
        target = 0.5 * M.n * c * dt * sum(
            clock.dl(sk) ** 2 * local_time_mgf(-2.0 * sigma, sk) for sk in s)
        assert abs(est.value - target) <= 3.0 * est.stderr

    def test_alpha_functional_positive_and_bounds(self, interval):
        datum = initial_datum("cosine", {"k": 1, "amp": 0.5})
        clock = make_clock("exp-integral", {"K": 0.0, "alpha": 2.0}, t=0.5)
        est = estimate_functional(interval, datum, 1.0, 0.5, clock,
                                  "harnack_alpha_rhs", 10000, 1e-3, seed=57,
                                  alpha=2.0)
        st = solve_heat(interval, datum, 0.5)
        i = st.index_of(1.0)
        lhs = float(st.W()[i]) - 2.0 * float(st.Lu[i])
        assert lhs <= est.value + 3.0 * est.stderr

    def test_alpha_functional_on_positive_curvature(self, sphere2):
        # sharpened form on the sphere: (1 + gamma) W - alpha Lu <= MC rhs
        from liyau import gamma_integral
        datum = initial_datum("legendre", {"index": 1, "amp": 0.4})
        t, x0, alpha = 0.4, 1.2, 2.0
        clock = make_clock("exp-integral", {"K": 1.0, "alpha": alpha}, t=t)
        est = estimate_functional(sphere2, datum, x0, t, clock,
                                  "harnack_alpha_rhs", 10000, 5e-4, seed=58,
                                  alpha=alpha)
        gam = gamma_integral(clock, 1.0, alpha)
        # closed-form state: u = 1 + a e^{-2t} cos r
        a_t = 0.4 * math.exp(-2 * t)
        u = 1 + a_t * math.cos(x0)
        W = (a_t * math.sin(x0)) ** 2 / u
        Lu = -2 * a_t * math.cos(x0)
        lhs = (1 + gam) * W - alpha * Lu
        assert lhs <= est.value + 3.0 * est.stderr

    def test_validation(self, interval):
        datum = initial_datum("cosine", {"k": 1, "amp": 0.5})
        with pytest.raises(ValueError):
            estimate_functional(interval, datum, 1.0, 0.5, None,
                                "harnack_rhs", 100, 1e-3, seed=1)
        with pytest.raises(ValueError):
            estimate_functional(interval, datum, 1.0, 0.5,
                                make_clock("linear", t=0.5), "unknown", 100,
                                1e-3, seed=1)


class TestTimeChange:
    def test_identity_cutoff(self, sphere2):
        ps = simulate_reflected_path(sphere2, 1.3, 0.4, 1e-3, seed=61)
        tc = time_change(ps, lambda r: np.ones_like(r))
        ts = np.linspace(0, 0.35, 8)
        assert np.max(np.abs(tc.tau(ts) - ts)) < 1e-12

    def test_roundtrip_and_slowdown(self, sphere2):
        R, x0 = 1.0, 1.3
        f = lambda r: np.where(np.abs(r - x0) < R,
                               np.cos(math.pi * np.abs(r - x0) / (2 * R)),
                               0.0)
        ps = simulate_reflected_path(sphere2, x0, 0.4, 1e-3, seed=62)
        tc = time_change(ps, f)
        ts = np.linspace(0, float(tc.T[tc.last]) * 0.9, 12)
        assert tc.roundtrip_error(ts) < 1e-10
        assert np.all(tc.tau(ts) <= ts + 1e-12)

    def test_cutoff_growth_bound(self, sphere2):
        from liyau import cutoff_growth_check
        R, x0 = 1.2, 1.4
        f = lambda r: np.where(np.abs(r - x0) < R,
                               np.cos(math.pi * np.abs(r - x0) / (2 * R)),
                               0.0)
        # K_f = sup (6 |grad f|^2 - f L f) on the ball, via a fine grid
        rr = np.linspace(x0 - R + 1e-6, x0 + R - 1e-6, 4001)
        w = math.pi / (2 * R)
        rho = np.abs(rr - x0)
        df = -w * np.sin(w * rho) * np.sign(rr - x0)
        d2f = -w * w * np.cos(w * rho)
        Lf = d2f + sphere2.b(rr) * df
        K_f = float(np.max(6 * df**2 - np.cos(w * rho) * Lf))
        checkpoints = [0.05, 0.15, 0.3]
        means, ses, covered = cutoff_growth_check(
            sphere2, x0, f, checkpoints, horizon=1.5, dt=1e-3, n_paths=3000,
            seed=63)
        for s, mval, se in zip(checkpoints, means, ses):
            assert mval <= math.exp(K_f * s) + 3.0 * se
