import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from liyau import (exact_kernel, gaussian_kernel_state, harnack_quantities,
                   initial_datum, make_model_manifold, solve_heat)
from liyau.geometry import FAMILIES, manifold_from_dict, register_drift
from liyau import heatflow
from liyau.heatflow import (_MODE_CUT, _apply, _basis, _generator,
                            _kernel_spectral, _kernel_wrapped,
                            _radial_spectral, radial_eigenpair)
from liyau.numerics import SolverError


class TestKernels:
    def test_line_normalisation(self, line):
        t = 1.0 / (4.0 * math.pi)
        assert exact_kernel(line, t, 0.3, 0.3) == pytest.approx(1.0, abs=1e-14)

    def test_half_line_doubling_at_wall(self, half_line):
        t = 0.25
        ref = 2.0 * (4 * math.pi * t) ** -0.5
        assert exact_kernel(half_line, t, 0.0, 0.0) == pytest.approx(ref,
                                                                     abs=1e-14)

    def test_circle_dual_representations(self):
        for t in (0.01, 0.05, 0.4, 1.0, 5.0):
            for d in (0.0, 0.7, 3.1):
                w = _kernel_wrapped(d, t, 2.0 * math.pi)
                s = _kernel_spectral(d, t, 2.0 * math.pi)
                assert abs(w - s) < 1e-12

    def test_interval_dual_representations(self):
        # the interval's kernel is the circle's of length 2L at x - y and
        # x + y, in either form
        L = math.pi
        for t in (0.02, 0.3, 1.5):
            for x, y in ((0.3, 1.1), (0.0, 0.0), (3.0, 0.2)):
                a = (_kernel_wrapped(x - y, t, 2.0 * L)
                     + _kernel_wrapped(x + y, t, 2.0 * L))
                b = (_kernel_spectral(x - y, t, 2.0 * L)
                     + _kernel_spectral(x + y, t, 2.0 * L))
                assert abs(a - b) < 1e-11

    def test_kernel_mass_is_one(self, half_line, interval, line, circle):
        from scipy.integrate import quad
        for M, lo, hi in ((line, -12, 12), (half_line, 0, 14),
                          (interval, 0, math.pi), (circle, 0, 2 * math.pi)):
            val, _ = quad(lambda y: exact_kernel(M, 0.7, 0.9, y), lo, hi,
                          epsabs=1e-12, limit=200)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_kernel_symmetry(self, interval):
        assert exact_kernel(interval, 0.4, 0.5, 1.3) == pytest.approx(
            exact_kernel(interval, 0.4, 1.3, 0.5), rel=1e-13)

    def test_radial_kernel_centered_only(self):
        M = make_model_manifold("euclidean-radial", m=2)
        val = exact_kernel(M, 0.5, 1.0, 0.0)
        assert val == pytest.approx((4 * math.pi * 0.5) ** -1.0
                                    * math.exp(-1.0 / 2.0), rel=1e-13)
        with pytest.raises(ValueError):
            exact_kernel(M, 0.5, 1.0, 0.3)

    def test_no_kernel_on_sphere(self, sphere2):
        with pytest.raises(ValueError):
            exact_kernel(sphere2, 0.5, 1.0, 1.0)

    def test_kernel_time_positive(self, line):
        with pytest.raises(ValueError):
            exact_kernel(line, 0.0, 0.0, 0.0)


class TestGaussianSaturation:
    def test_line_identity(self, line):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.uniform(0.05, 2.0)
            grid = rng.uniform(-3, 3, size=7)
            st = gaussian_kernel_state(line, t, grid)
            assert np.max(np.abs(st.X() - st.Y() - 1.0 / (2 * t))) < 1e-9

    def test_kernel_state_matches_finite_difference(self, line):
        st = gaussian_kernel_state(line, 0.7, np.array([0.4]))
        h = 1e-6
        u = lambda x: exact_kernel(line, 0.7, x, 0.0)
        fd = (u(0.4 + h) - u(0.4 - h)) / (2 * h)
        assert fd == pytest.approx(float(st.grad_u[0]), rel=1e-8)


class TestSolvers:
    def test_circle_eigen_decay(self, circle):
        datum = initial_datum("eigen", {"index": 1, "amp": 0.5})
        st = solve_heat(circle, datum, 1.0)
        exact = 1 + 0.5 * math.exp(-1.0) * np.cos(st.grid)
        assert np.max(np.abs(st.u - exact)) < 1e-10

    def test_interval_eigen_decay(self, interval):
        datum = initial_datum("cosine", {"k": 1, "amp": 1.0})
        for t in (0.3, 1.0):
            st = solve_heat(interval, datum, t)
            exact = 1 + math.exp(-t) * np.cos(st.grid)
            assert np.max(np.abs(st.u - exact)) < 1e-10

    def test_constants_are_invariant(self, circle, interval, sphere2,
                                     hyperbolic2):
        datum = initial_datum("constant", {"c": 2.5})
        for M in (circle, interval, sphere2, hyperbolic2):
            st = solve_heat(M, datum, 0.8)
            assert np.max(np.abs(st.u - 2.5)) < 1e-11
            assert np.max(np.abs(st.grad_u)) < 1e-9
            assert np.max(np.abs(st.Lu)) < 1e-8

    def test_discrete_eigen_decay_on_sphere(self, sphere2):
        lam, vec = radial_eigenpair(sphere2, 401, 1)
        datum = initial_datum("eigen", {"index": 1, "amp": 0.5})
        st = solve_heat(sphere2, datum, 0.7)
        exact = 1 + 0.5 * math.exp(-lam * 0.7) * vec
        assert np.max(np.abs(st.u - exact)) < 1e-10

    def test_sphere_first_eigenvalue(self, sphere2):
        lam, _ = radial_eigenpair(sphere2, 401, 1)
        assert lam == pytest.approx(2.0, abs=2e-5)

    def test_semigroup_property(self, circle, sphere2):
        datum = initial_datum("eigen", {"index": 1, "amp": 0.5})
        for M in (circle, sphere2):
            a = solve_heat(M, datum, 0.9)
            b = solve_heat(M, datum, 0.4)
            # evolve b.u for 0.5 more by hand through the same basis
            if M is circle:
                freq = np.fft.rfftfreq(b.u.size, d=1.0 / b.u.size)
                u2 = np.fft.irfft(np.fft.rfft(b.u) * np.exp(-freq**2 * 0.5),
                                  n=b.u.size)
            else:
                kept = _basis(M, b.u.size).below(_MODE_CUT / 0.5)
                u2 = _radial_spectral(M, b.u, 0.5, *kept)
            assert np.max(np.abs(u2 - a.u)) < 1e-8

    def test_self_convergence_order(self, sphere2):
        # nested grids share nodes, so the comparison point is common to
        # every resolution; consecutive-difference Richardson orders are
        # measured above the O(pole_cut^2) modeling floor of the scheme
        datum = initial_datum("cosine", {"k": 3, "amp": 0.3})
        t = 0.2
        coarse = solve_heat(sphere2, datum, t, grid_size=51)
        x_eval = float(coarse.grid[coarse.index_of(1.3)])
        vals = {}
        for size in (51, 101, 201, 401):
            st = solve_heat(sphere2, datum, t, grid_size=size)
            assert abs(st.grid[st.index_of(x_eval)] - x_eval) < 1e-12
            vals[size] = harnack_quantities(st, x_eval)[:2]
        for a, b, c in ((51, 101, 201), (101, 201, 401)):
            orderX = math.log2(abs(vals[a][0] - vals[b][0])
                               / abs(vals[b][0] - vals[c][0]))
            orderY = math.log2(abs(vals[a][1] - vals[b][1])
                               / abs(vals[b][1] - vals[c][1]))
            assert orderX > 1.8
            assert orderY > 1.8

    def test_crank_nicolson_tracks_spectral(self, interval, sphere2, circle):
        cases = ((interval, initial_datum("cosine", {"k": 1, "amp": 0.5})),
                 (circle, initial_datum("cosine", {"k": 1, "amp": 0.5})),
                 (sphere2, initial_datum("legendre", {"index": 1,
                                                      "amp": 0.4})))
        for M, datum in cases:
            sp = solve_heat(M, datum, 0.5)
            cn = solve_heat(M, datum, 0.5, scheme="crank-nicolson-fd")
            assert np.max(np.abs(sp.u - cn.u)) < 5e-4, M.family

    def test_crank_nicolson_periodic_drift_matches_dense(self):
        # a drift makes the two periodic corners of I - dt/2 L unequal;
        # reference: dense CN on the textbook central stencil
        register_drift("heatflow-sin", lambda x: 0.3 * np.sin(x))
        M = make_model_manifold("circle", drift="heatflow-sin", K=-0.3)
        t = 0.5
        st = solve_heat(M, initial_datum("cosine", {"k": 2, "amp": 0.5}), t,
                        scheme="crank-nicolson-fd")
        x = st.grid
        n, h = x.size, x[1] - x[0]
        b = 0.3 * np.sin(x)
        A = np.zeros((n, n))
        for i in range(n):
            A[i, i] = -2.0 / h**2
            A[i, (i + 1) % n] = 1.0 / h**2 + b[i] / (2.0 * h)
            A[i, (i - 1) % n] = 1.0 / h**2 - b[i] / (2.0 * h)
        steps = math.ceil(t / h)
        dt = t / steps
        eye = np.identity(n)
        u = 1.0 + 0.5 * np.cos(2.0 * x)
        for _ in range(steps):
            u = np.linalg.solve(eye - 0.5 * dt * A, (eye + 0.5 * dt * A) @ u)
        assert np.max(np.abs(st.u - u)) < 1e-12
        assert np.max(np.abs(st.Lu - A @ u)) < 1e-12 * np.max(np.abs(A))

    @pytest.mark.parametrize("family, size", [("hyperbolic-radial", 2401),
                                              ("sphere-radial", 301)])
    def test_radial_eigenpair_residuals(self, family, size):
        M = make_model_manifold(family, m=2)
        _, dn, dg, up = _generator(M, size)
        tol = 1e-13 * np.max(np.abs(dg))
        lams = []
        for index in (0, 1, 2, 10, size // 2, size - 1):
            lam_i, v = radial_eigenpair(M, size, index)
            lams.append(lam_i)
            Lv = dg * v
            Lv[:-1] += up[:-1] * v[1:]
            Lv[1:] += dn[1:] * v[:-1]
            assert np.max(np.abs(Lv + lam_i * v)) < tol, index
        assert np.all(np.diff(lams) > 0)
        assert abs(lams[0]) < tol

    @pytest.mark.parametrize("family, size", [("hyperbolic-radial", 2401),
                                              ("sphere-radial", 301)])
    def test_constant_mode_eigenvalue_is_exactly_zero(self, family, size):
        # L 1 = 0; the computed eigenvalue is rounding whose sign depends
        # on the bisection, as the basis's mu[0] shows
        M = make_model_manifold(family, m=2)
        basis = _basis(M, size)
        basis.lowest(1)
        lam, v = radial_eigenpair(M, size, 0)
        assert lam == 0.0 and basis.mu[0] != 0.0
        assert np.max(np.abs(v - 1.0)) < 1e-9

    def test_interval_spectral_is_the_cosine_series(self, interval):
        # the DCT-I by real FFT against the cosine series summed directly,
        # on samples that are no single mode
        size = 65
        u0v = 1.0 + np.random.default_rng(3).random(size)
        n = np.arange(size)
        angle = np.pi * np.outer(n, n) / (size - 1)
        w = np.where((n == 0) | (n == size - 1), 1.0, 2.0)
        co = np.cos(angle) @ (w * u0v)   # DCT-I
        k = n * math.pi / interval.length
        for t in (0.0, 0.01, 0.3):
            c = w * co * np.exp(-k**2 * t) / (2 * (size - 1))
            u, grad_u, Lu = heatflow._fourier(interval, u0v, t)
            assert np.max(np.abs(u - np.cos(angle) @ c)) < 1e-13, t
            assert np.max(np.abs(Lu - np.cos(angle) @ (-k**2 * c))) < (
                1e-13 * np.max(k**2)), t
            du = np.sin(angle) @ (-k * c)
            assert np.max(np.abs(grad_u - du)) < 1e-13 * np.max(k), t
            assert grad_u[0] == grad_u[-1] == 0.0

    @pytest.mark.parametrize("family, size", [("hyperbolic-radial", 2401),
                                              ("sphere-radial", 301)])
    def test_eigen_datum_is_the_exact_discrete_solution(self, family, size):
        # u = 1 + amp e^{-lam1 t} v1 solves the discrete flow exactly
        M = make_model_manifold(family, m=2)
        lam, v = radial_eigenpair(M, size, 1)
        _, dn, dg, up = _generator(M, size)
        datum = initial_datum("eigen", {"index": 1, "amp": 0.5})
        for t in (0.05, 0.5, 2.0):
            st = solve_heat(M, datum, t, grid_size=size)
            exact = 1 + 0.5 * math.exp(-lam * t) * v
            assert np.max(np.abs(st.u - exact)) < 1e-10, t
            Y = _apply(dn, dg, up, exact) / exact
            assert np.max(np.abs(st.Y() - Y)) < 1.5e-8, t

    @pytest.mark.parametrize("family, size", [("hyperbolic-radial", 2401),
                                              ("sphere-radial", 301)])
    def test_kept_modes_match_the_full_basis(self, family, size):
        from scipy import linalg
        M = make_model_manifold(family, m=2)
        datum = initial_datum("cosine", {"k": 3, "amp": 0.4})
        basis = _basis(M, size)
        dg, d, off = basis.dg, basis.d, basis.off
        mu, V = linalg.eigh_tridiagonal(-dg, -off)   # every mode, N x N
        mu[0] = 0.0   # L 1 = 0: mu[0] is rounding (6e-11 at hyperbolic 2401)
        coef = V.T @ (d * datum.values(M, M.grid(size)))
        for t in (0.05, 0.5, 2.0):
            full = (V @ (np.exp(-mu * t) * coef)) / d
            st = solve_heat(M, datum, t, grid_size=size)
            assert np.max(np.abs(st.u - full)) < 1e-10, t

    def test_small_time_keeps_few_modes(self, monkeypatch):
        kept = []
        below = heatflow._Basis.below

        def recording(basis, cut):
            mu, V = below(basis, cut)
            kept.append(V.shape)
            return mu, V

        monkeypatch.setattr(heatflow._Basis, "below", recording)
        M = make_model_manifold("hyperbolic-radial", m=2)
        st = solve_heat(M, initial_datum("eigen", {"index": 1, "amp": 0.5}),
                        0.05, grid_size=2401)
        (k, n), = kept
        assert n == 2401 and k <= 64
        lam, _ = radial_eigenpair(M, 2401, k)   # the first mode dropped
        assert lam * st.t > _MODE_CUT

    @pytest.mark.parametrize("family, size, count", [
        ("sphere-radial", 301, 40), ("hyperbolic-radial", 2401, 16)])
    def test_a_mode_has_the_same_bits_alone_and_in_a_batch(self, family,
                                                           size, count):
        M = make_model_manifold(family, m=2)
        basis = _basis(M, size)
        dg, off = basis.dg, basis.off
        mu, V = heatflow._tridiagonal_modes(-dg, -off, np.arange(count))
        for j in (0, 1, 7, count - 1):
            alone, vec = heatflow._tridiagonal_modes(-dg, -off, np.array([j]))
            assert alone[0] == mu[j] and np.array_equal(vec[0], V[j]), j

    @pytest.mark.parametrize("size", [100, heatflow._BLOCK,
                                      2 * heatflow._BLOCK + 37])
    def test_blocked_sturm_counts_match_the_full_pivots(self, size):
        rng = np.random.default_rng(size)
        a, b2 = rng.normal(size=size), rng.uniform(0.01, 1.0, size - 1)
        x = np.linspace(-7.0, 7.0, 57)   # past both Gershgorin ends
        full = np.count_nonzero(heatflow._pivots(a, b2, x) < 0.0, axis=0)
        counts = heatflow._sturm_counts(a, b2, x)
        assert np.array_equal(counts, full)
        assert counts[0] == 0 and counts[-1] == size

    def test_a_zero_pivot_keeps_the_sturm_count(self):
        # T = (1, 2, 1) with unit off-diagonal has the eigenvalues 0, 1, 3
        a, b2 = np.array([1.0, 2.0, 1.0]), np.array([1.0, 1.0])
        counts = heatflow._sturm_counts(a, b2, np.array([0.0, 1.0, 3.0, 3.5]))
        assert counts.tolist() == [0, 1, 2, 3]
        # at x = 0, a_i = b2_{i-1} / p_{i-1} makes the pivot p_i exactly 0:
        # on the last row of the first block, which the next block starts
        # from, and on the last row, so that 0 is an eigenvalue of T
        block = heatflow._BLOCK
        a, b2 = np.full(2 * block, 2.0), np.full(2 * block - 1, 0.5)
        for i in (block - 1, 2 * block - 1):
            p = heatflow._pivots(a, b2, np.zeros(1))[:, 0]
            a[i] = b2[i - 1] / p[i - 1]
        p = heatflow._pivots(a, b2, np.zeros(1))[:, 0]
        assert p[block - 1] == p[-1] == 0.0 and p[block] == -np.inf
        x = np.array([-1.0, 0.0, 1e-300, 1.0, 3.0])
        full = np.count_nonzero(heatflow._pivots(a, b2, x) < 0.0, axis=0)
        assert np.array_equal(heatflow._sturm_counts(a, b2, x), full)

    def test_the_eigen_datum_joins_the_first_solve(self, monkeypatch):
        # the first solve fetches its modes before it samples the datum, so
        # one multisection serves the datum's mode and all five times; each
        # solve asks for its modes once, and only the first counts the
        # modes below its cut: the four smaller cuts are read off the prefix
        calls = {"_tridiagonal_modes": 0, "below": 0, "other counts": 0}
        multisections = []
        modes, counts = heatflow._tridiagonal_modes, heatflow._sturm_counts
        below = heatflow._Basis.below

        def multisection(*args):
            calls["_tridiagonal_modes"] += 1
            multisections.append(args)
            try:
                return modes(*args)
            finally:
                multisections.pop()

        def counting(*args):
            calls["other counts"] += not multisections
            return counts(*args)

        def asking(basis, cut):
            calls["below"] += 1
            return below(basis, cut)

        monkeypatch.setattr(heatflow, "_tridiagonal_modes", multisection)
        monkeypatch.setattr(heatflow, "_sturm_counts", counting)
        monkeypatch.setattr(heatflow._Basis, "below", asking)
        heatflow._basis.cache_clear()
        radial_eigenpair.cache_clear()
        M = make_model_manifold("hyperbolic-radial", m=2)
        datum = initial_datum("eigen", {"index": 1, "amp": 0.5})
        for t in (0.05, 0.1, 0.5, 1.0, 2.0):
            solve_heat(M, datum, t, grid_size=2401)
        assert calls == {"_tridiagonal_modes": 1, "below": 5,
                         "other counts": 1}

    def test_kept_modes_match_the_sturm_count_on_every_shipped_config(self):
        # at each (grid size, t) a shipped radial spectral config solves,
        # the modes below the cut are as many as the Sturm count at it; in
        # ascending times the later, smaller cuts are read off the prefix,
        # and in descending ones each cut extends it
        root = Path(__file__).parents[1]
        solves = {}
        for path in sorted([*root.glob("configs/*.json"),
                            *root.glob("perfbench/configs/*.json")]):
            doc = json.loads(path.read_text())
            M = manifold_from_dict(doc["manifold"])
            if M.spec.flux_form and doc.get("scheme") == "spectral":
                size = doc.get("grid_size") or M.spec.grid_size
                solves.setdefault((M, size), set()).update(doc["times"])
        assert {(M.family, size) for M, size in solves} == {
            ("sphere-radial", 301), ("sphere-radial", 401),
            ("hyperbolic-radial", 401), ("hyperbolic-radial", 2401)}
        for (M, size), times in solves.items():
            for order in (sorted(times), sorted(times, reverse=True)):
                basis = heatflow._Basis(M, size)
                for t in order:
                    cut = _MODE_CUT / t
                    mu, V = basis.below(cut)
                    count = heatflow._sturm_counts(
                        -basis.dg, basis.off * basis.off, np.array([cut]))
                    assert mu.size == V.shape[0] == count[0], (M, size, t)
                    assert np.count_nonzero(basis.mu < cut) == count[0]
                    assert basis.mu.size == size or basis.mu[-1] >= cut

    @pytest.mark.parametrize("family, size", [("hyperbolic-radial", 2401),
                                              ("hyperbolic-radial", 4801),
                                              ("sphere-radial", 301)])
    def test_refined_eigenpairs_have_tiny_residuals(self, family, size):
        # one step of inverse iteration puts every pair 10x inside the
        # 1e-13 max|L| of test_radial_eigenpair_residuals
        M = make_model_manifold(family, m=2)
        _, dn, dg, up = _generator(M, size)
        for index in (0, 1, 2, 10, size // 2, size - 1):
            lam, v = radial_eigenpair(M, size, index)
            Lv = _apply(dn, dg, up, v)
            assert np.max(np.abs(Lv + lam * v)) < 1e-14 * np.max(np.abs(dg)), (
                index)

    def test_an_exact_shift_keeps_the_twisted_vector(self):
        # T - 3 I is singular, so gamma_r = 0 and z = (1, 2, 1) is an exact
        # eigenvector; the solve would divide by gamma_r, so z is kept
        a, b = np.array([1.0, 2.0, 1.0]), np.array([1.0, 1.0])
        mu, V = heatflow._twisted_vectors(a, b, np.array([3.0]))
        assert mu.tolist() == [3.0]
        assert np.array_equal(V[0], np.array([1.0, 2.0, 1.0]) / np.sqrt(6.0))

    @pytest.mark.parametrize("size", [401, 2401])
    def test_kept_modes_do_not_depend_on_the_solve_order(self, size):
        # t = 2 keeps a few modes and t = 0.05 adds the rest to the prefix;
        # the reverse order computes them all in one batch
        M = make_model_manifold("hyperbolic-radial", m=2)
        datum = initial_datum("cosine", {"k": 2, "amp": 0.5})
        runs = []
        for order in ((2.0, 0.05), (0.05, 2.0)):
            heatflow._basis.cache_clear()
            runs.append({t: solve_heat(M, datum, t, grid_size=size)
                         for t in order})
        for t in (2.0, 0.05):
            for name in ("u", "grad_u", "Lu"):
                assert np.array_equal(getattr(runs[0][t], name),
                                      getattr(runs[1][t], name)), (t, name)

    def test_a_solve_at_zero_returns_the_datum(self, sphere2):
        datum = initial_datum("cosine", {"k": 2, "amp": 0.5})
        st = solve_heat(sphere2, datum, 0.0)
        assert np.array_equal(st.u, datum.values(sphere2, st.grid))

    @pytest.mark.parametrize("family, size, t", [
        ("sphere-radial", 1025, 0.05), ("sphere-radial", 1025, 2.0),
        ("circle", 256, 0.5), ("interval-neumann", 257, 0.5)])
    def test_crank_nicolson_scan_matches_lapack(self, monkeypatch, family,
                                                size, t):
        # the same steps with LAPACK's tridiagonal factor and solve
        from scipy.linalg import lapack

        def lapack_solver(sub, main, sup):
            *factors, info = lapack.dgttrf(sub, main, sup)
            assert info == 0
            return lambda rhs: lapack.dgttrs(*factors, rhs)[0]

        if family == "circle":   # unequal corners: Sherman-Morrison
            register_drift("heatflow-sin", lambda x: 0.3 * np.sin(x))
            M = make_model_manifold(family, drift="heatflow-sin", K=-0.3)
        else:
            M = make_model_manifold(family, m=2)
        datum = initial_datum("cosine", {"k": 2, "amp": 0.5})
        scan = solve_heat(M, datum, t, grid_size=size,
                          scheme="crank-nicolson-fd")
        monkeypatch.setattr(heatflow, "_tridiagonal_solver", lapack_solver)
        ref = solve_heat(M, datum, t, grid_size=size,
                         scheme="crank-nicolson-fd")
        assert np.max(np.abs(scan.u - ref.u) / ref.u) < 1e-12

    def test_crank_nicolson_needs_a_dominant_matrix(self):
        # a drift of 400 sin x makes the stencil's weights change sign
        register_drift("heatflow-steep", lambda x: 400.0 * np.sin(x))
        M = make_model_manifold("circle", drift="heatflow-steep", K=-400.0)
        with pytest.raises(SolverError, match="diagonally dominant"):
            solve_heat(M, initial_datum("constant"), 0.1,
                       scheme="crank-nicolson-fd")

    def test_radial_solves_are_pure(self):
        # the result depends on (M, size, t, u0) only, not on earlier solves
        M = make_model_manifold("hyperbolic-radial", m=2)
        datum = initial_datum("cosine", {"k": 2, "amp": 0.5})
        before = solve_heat(M, datum, 2.0, grid_size=2401)
        solve_heat(M, datum, 0.01, grid_size=2401)
        after = solve_heat(M, datum, 2.0, grid_size=2401)
        for name in ("u", "grad_u", "Lu"):
            assert np.array_equal(getattr(before, name), getattr(after, name))

    def test_half_line_kernel_scheme_closed_form(self, half_line):
        datum = initial_datum("gaussian", {"amp": 1.0, "width": 0.3})
        st = solve_heat(half_line, datum, 0.5, scheme="kernel")
        stt = 0.3 + 0.5
        exact = 1 + math.sqrt(0.3 / stt) * np.exp(-st.grid**2 / (4 * stt))
        assert np.max(np.abs(st.u - exact)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("t", [0.01, 0.5, 3.0])
    def test_flat_radial_kernel_scheme_generator(self, m, t):
        # Lu = u'' + (m - 1)/x u' against the radial closed form
        # amp scale (x^2/4st^2 - m/2st) e of the gaussian of width st
        M = make_model_manifold("euclidean-radial", m=m)
        datum = initial_datum("gaussian", {"amp": 0.7, "width": 0.3})
        st = solve_heat(M, datum, t, scheme="kernel")
        s, x = 0.3 + t, st.grid
        scale = (0.3 / s) ** (m / 2.0)
        e = np.exp(-x**2 / (4.0 * s))
        exact = 0.7 * scale * (x**2 / (4.0 * s**2) - m / (2.0 * s)) * e
        assert np.max(np.abs(st.Lu - exact)) <= 1e-13 * np.max(np.abs(exact))
        assert np.max(np.abs(st.u - 1.0 - 0.7 * scale * e)) < 1e-15

    def test_radial_diagonals_cached_on_equal_manifolds(self):
        a = make_model_manifold("sphere-radial", m=2)
        b = make_model_manifold("sphere-radial", m=2)
        assert a == b and a is not b
        assert _basis(a, 65) is _basis(b, 65)
        assert radial_eigenpair(a, 65, 1) is radial_eigenpair(b, 65, 1)
        c = make_model_manifold("sphere-radial", m=3)
        assert _basis(c, 65) is not _basis(a, 65)
        assert not _basis(a, 65).dg.flags.writeable
        assert not _basis(a, 65).V.flags.writeable

    def test_positivity_and_max_principle_enforced(self, circle):
        datum = initial_datum("eigen", {"index": 2, "amp": 0.25})
        st = solve_heat(circle, datum, 0.05)
        assert st.u.min() > 0
        assert st.u.max() <= 1.25 + 1e-9

    def test_neumann_incompatible_rejected(self, interval):
        bad = initial_datum("gaussian", {"amp": 1.0, "width": 0.3})
        with pytest.raises(ValueError):
            solve_heat(interval, bad, 0.1)

    def test_neumann_check_rejects_a_sloped_wall(self, interval):
        # the cosine of half a wave number has u0'(L) = -amp w, w = pi / 2L
        bad = initial_datum("cosine", {"k": 0.5, "amp": 0.5})
        with pytest.raises(ValueError, match="not Neumann compatible"):
            solve_heat(interval, bad, 0.1)

    @pytest.mark.parametrize("bend, match", [
        (lambda u: np.put(u, 3, 0.0), "positivity lost"),
        (lambda u: np.put(u, 3, 1.5 + 1e-6), "maximum principle"),
        (lambda u: u.fill(1.2), "mass drift")])
    def test_state_invariants_raise(self, circle, bend, match):
        # a hand-built state of the circle against u0 = 1 + 0.5 cos x
        grid = circle.grid(16)
        u0v = 1.0 + 0.5 * np.cos(grid)
        u = u0v.copy()
        bend(u)
        state = heatflow.HeatState(circle, 0.5, grid, u, np.zeros(16),
                                   np.zeros(16), scheme="spectral")
        with pytest.raises(SolverError, match=match):
            heatflow._check_state(circle, u0v, state)
        heatflow._check_state(circle, u0v, replace(state, u=u0v))

    def test_datum_table(self):
        # initial_datum fills in DATA's defaults, and a datum has a closed
        # form exactly on the families DATA lists (the grid-only radial
        # eigen datum aside)
        assert initial_datum("cosine", {"amp": 0.25}).params == {
            "k": 1, "amp": 0.25, "base": 1.0}
        for expr, (defaults, families) in heatflow.DATA.items():
            datum = initial_datum(expr)
            assert datum.params == defaults
            for family in FAMILIES:
                M = make_model_manifold(family, m=2)
                if family in families:
                    datum.callables(M)
                    continue
                with pytest.raises(ValueError, match=f"{expr} datum has no "
                                   f"closed form on {family}"):
                    datum.callables(M)
                if not (expr == "eigen" and M.spec.flux_form):
                    with pytest.raises(ValueError, match="no closed form"):
                        datum.check(M)

    def test_datum_params_are_real_numbers(self, circle, sphere2):
        for expr, params, message in (
                ("cosine", {"k": "2"}, "param 'k' of datum 'cosine' must be "
                                       "a real number, not '2'"),
                ("gaussian", {"width": None}, "must be a real number"),
                ("constant", {"c": True}, "must be a real number")):
            with pytest.raises(ValueError, match=message):
                initial_datum(expr, params)
        # k and index must be whole: the cosine of k = 1.5 jumps at 0 = 2 pi
        for M, expr, params in ((circle, "cosine", {"k": 1.5}),
                                (circle, "eigen", {"index": 2.5}),
                                (sphere2, "eigen", {"index": 1.7}),
                                (sphere2, "legendre", {"index": 1.5})):
            with pytest.raises(ValueError, match="must be a whole number"):
                initial_datum(expr, params).check(M)
        initial_datum("cosine", {"k": 2.0}).check(circle)

    def test_no_closed_form_datum_rejected_on_line(self, line):
        datum = initial_datum("cosine", {"k": 1, "amp": 0.5})
        with pytest.raises(ValueError, match="no closed form"):
            solve_heat(line, datum, 0.5)

    def test_exact_schemes_need_zero_drift(self, circle, interval, sphere2):
        register_drift("heatflow-sin", lambda x: 0.3 * np.sin(x))
        datum = initial_datum("constant")
        for family, scheme in (("circle", "spectral"),
                               ("interval-neumann", "spectral"),
                               ("euclidean-line", "kernel")):
            M = make_model_manifold(family, drift="heatflow-sin", K=-0.3)
            with pytest.raises(SolverError, match="needs Z = 0"):
                solve_heat(M, datum, 0.5, scheme=scheme)
        for M in (circle, interval, sphere2):
            with pytest.raises(ValueError, match="no kernel evolution"):
                solve_heat(M, datum, 0.5, scheme="kernel")

    def test_nonpositive_datum_rejected(self, circle):
        with pytest.raises(ValueError):
            solve_heat(circle, initial_datum("cosine", {"k": 1, "amp": 1.5}),
                       0.1)

    @pytest.mark.parametrize("m", [2, 3])
    def test_second_legendre_mode(self, m):
        # ((m+1) cos^2 r - 1)/m is the zonal eigenfunction of eigenvalue
        # 2(m+1) on the m-sphere, so u0 - base decays as e^{-2(m+1) t}
        M = make_model_manifold("sphere-radial", m=m)
        base, lam = 1.0, 2.0 * (m + 1)
        datum = initial_datum("legendre", {"index": 2, "amp": 0.5,
                                           "base": base})
        u0, du0, d2u0 = datum.callables(M)
        x = M.grid(401)
        Lu0 = d2u0(x) + M.b(x) * du0(x)
        assert np.max(np.abs(Lu0 + lam * (u0(x) - base))) < 1e-12
        for t in (0.05, 0.5):
            st = solve_heat(M, datum, t)
            exact = base + (u0(st.grid) - base) * math.exp(-lam * t)
            assert np.max(np.abs(st.u - exact)) < 1e-4, t

    def test_mass_conservation_reported(self, sphere2):
        datum = initial_datum("legendre", {"index": 1, "amp": 0.5})
        st0 = solve_heat(sphere2, datum, 0.0)
        st1 = solve_heat(sphere2, datum, 1.5)
        assert st1.mass() == pytest.approx(st0.mass(), rel=1e-9)


class TestHarnackQuantities:
    def test_constant_state_is_zero(self, circle):
        st = solve_heat(circle, initial_datum("constant", {"c": 3.0}), 0.4)
        X, Y, W = harnack_quantities(st, 1.0)
        assert (X, W) == (0.0, 0.0)
        assert abs(Y) < 1e-12

    def test_circle_mode_values(self, circle):
        # u = 1 + (1/2) e^{-1} cos theta: at theta = pi/2 the gradient is
        # (1/2) e^{-1} and Lu vanishes; at theta = 0 the ratio Y is extremal
        st = solve_heat(circle, initial_datum("eigen", {"index": 1,
                                                        "amp": 0.5}), 1.0)
        amp = 0.5 * math.exp(-1.0)
        X, Y, W = harnack_quantities(st, math.pi / 2)
        assert X == pytest.approx(amp**2, abs=1e-10)
        assert abs(Y) < 1e-10
        assert W == pytest.approx(amp**2, abs=1e-10)
        X0, Y0, _ = harnack_quantities(st, 0.0)
        assert X0 == pytest.approx(0.0, abs=1e-12)
        assert Y0 == pytest.approx(-amp / (1 + amp), abs=1e-10)

    def test_positivity_floor_guard(self, line):
        st = gaussian_kernel_state(line, 0.05, np.array([0.0, 12.0]))
        with pytest.raises(SolverError):
            harnack_quantities(st, 12.0)

    def test_csv_export(self, circle, tmp_path):
        st = solve_heat(circle, initial_datum("eigen", {"index": 1,
                                                        "amp": 0.5}), 0.3)
        path = tmp_path / "state.csv"
        st.to_csv(path)
        body = path.read_text().splitlines()
        assert "family=circle" in body[0]
        assert body[1].endswith("coord,u,grad_u,Lu")
        assert len(body) == 2 + st.grid.size
