"""Tests for the step rules, the step-size adaptation, and the drivers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waveinv.optim import (
    OptimizeOptions,
    OptState,
    SingularMatrixError,
    bfgs_baseline,
    corrected_gd_step,
    eta_bar,
    gd_step,
    gn_step,
    lambda_k,
    metric_norm,
    modified_lm_step,
    optimize,
    rescale_jacobian,
    write_trace_csv,
)


def random_spd(rng, lo=0.1, hi=10.0):
    """SPD matrix with eigenvalues log-uniform in [lo, hi]."""
    theta = rng.uniform(0, 2 * np.pi)
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    d = np.exp(rng.uniform(np.log(lo), np.log(hi), size=2))
    return q @ np.diag(d) @ q.T


def make_state(J, r, x, r0_norm=None):
    return OptState(
        x=np.asarray(x, float),
        r=np.asarray(r, float),
        J=np.asarray(J, float),
        r0_norm=float(np.linalg.norm(r)) if r0_norm is None else r0_norm,
    )


class TestRescale:
    def test_unit_parameters_leave_jacobian_alone(self):
        J = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(rescale_jacobian(J, np.array([1.0, 1.0])), J)

    def test_identity_jacobian(self):
        got = rescale_jacobian(np.eye(2), np.array([2.0, 3.0]))
        np.testing.assert_array_equal(got, np.diag([2.0, 3.0]))

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            rescale_jacobian(np.eye(2), np.array([1.0, 0.0]))

    def test_equalizes_material_jacobian_columns(self):
        # raw modulus/ratio columns differ by ~9 orders of magnitude (E is
        # in pascals); after rescaling they agree within one order
        from waveinv.forward import MaterialParams, default_config, forward_jacobian

        peek = MaterialParams(E=3.9559e9, nu=0.40079, rho=1400.3)
        d_e, d_nu = forward_jacobian(peek, default_config())
        raw = np.column_stack([d_e.samples, d_nu.samples])
        raw_ratio = np.linalg.norm(raw[:, 1]) / np.linalg.norm(raw[:, 0])
        assert raw_ratio > 1e8
        scaled = rescale_jacobian(raw, np.array([peek.E, peek.nu]))
        scaled_ratio = np.linalg.norm(scaled[:, 1]) / np.linalg.norm(scaled[:, 0])
        assert 0.1 <= scaled_ratio <= 10.0


class TestGnStep:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        r = rng.standard_normal(8)
        np.testing.assert_allclose(gn_step(q, r), q.T @ r, atol=1e-12)

    def test_hand_example(self):
        np.testing.assert_allclose(
            gn_step(np.array([[1.0], [1.0]]), np.array([1.0, 0.0])), [0.5], atol=1e-14
        )

    def test_exact_on_linear_model(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        x0 = rng.standard_normal(3)
        dx = gn_step(a, y - a @ x0)
        xs, *_ = np.linalg.lstsq(a, y, rcond=None)
        np.testing.assert_allclose(x0 + dx, xs, atol=1e-10)

    def test_rank_deficient_raises_with_condition(self):
        J = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularMatrixError) as exc:
            gn_step(J, np.ones(3))
        assert exc.value.rcond < 1e-14


class TestGdStep:
    def test_orthonormal_equals_gn(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((9, 2)))
        r = rng.standard_normal(9)
        np.testing.assert_allclose(gd_step(q, r), gn_step(q, r), atol=1e-12)

    def test_orthogonal_residual_gives_zero(self):
        jt = np.array([[1.0], [0.0]])
        assert gd_step(jt, np.array([0.0, 5.0])) == pytest.approx(0.0)

    def test_hand_example(self):
        np.testing.assert_allclose(
            gd_step(np.array([[2.0], [0.0]]), np.array([1.0, 1.0])), [2.0]
        )


class TestMetricNorm:
    def test_identity_is_euclidean(self):
        dx = np.array([3.0, 4.0])
        assert metric_norm(np.eye(2), dx) == pytest.approx(5.0)

    def test_hand_example(self):
        assert metric_norm(np.diag([4.0, 9.0]), np.array([1.0, 1.0])) == pytest.approx(np.sqrt(13))

    def test_zero_step(self):
        assert metric_norm(np.diag([4.0, 9.0]), np.zeros(2)) == 0.0

    def test_negative_form_clamped_with_warning(self):
        g = np.diag([1.0, -1e-8])  # numerically indefinite
        with pytest.warns(RuntimeWarning):
            assert metric_norm(g, np.array([0.0, 1.0])) == 0.0


class TestLambda:
    def test_identity_metric(self):
        assert lambda_k(np.eye(2), np.array([1.0, 2.0])) == pytest.approx(1.0)

    def test_scaled_identity(self):
        dx = np.array([0.3, -0.7])
        g = np.diag([4.0, 4.0])
        lam = lambda_k(g, dx)
        assert lam == pytest.approx(0.25)
        np.testing.assert_allclose(lam * dx, np.linalg.solve(g, dx), atol=1e-14)

    def test_defining_property_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = random_spd(rng)
            dx = rng.standard_normal(2)
            lam = lambda_k(g, dx)
            lhs = metric_norm(g, lam * dx)
            rhs = metric_norm(g, np.linalg.solve(g, dx))
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            lambda_k(np.eye(2), np.zeros(2))

    def test_singular_metric_rejected(self):
        with pytest.raises(SingularMatrixError):
            lambda_k(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, -1.0]))


class TestEtaBar:
    def test_initial_iterate(self):
        st = make_state(np.eye(2), np.array([3.0, 4.0]), np.ones(2))
        assert eta_bar(st) == pytest.approx(1.0)

    def test_half_residual(self):
        st = make_state(np.eye(2), np.array([1.5, 2.0]), np.ones(2), r0_norm=5.0)
        assert eta_bar(st) == pytest.approx(0.5)

    def test_uphill_allowed(self):
        st = make_state(np.eye(2), np.array([6.0, 8.0]), np.ones(2), r0_norm=5.0)
        assert eta_bar(st) == pytest.approx(2.0)

    def test_zero_initial_rejected(self):
        st = make_state(np.eye(2), np.array([1.0, 1.0]), np.ones(2), r0_norm=0.0)
        with pytest.raises(ValueError):
            eta_bar(st)


class TestModifiedLm:
    def test_zero_damping_is_gauss_newton(self):
        # r0_norm = inf realizes eta_bar = 0 exactly
        rng = np.random.default_rng(4)
        J = rng.standard_normal((10, 2))
        x = np.array([2.0, 3.0])
        r = rng.standard_normal(10)
        report = modified_lm_step(make_state(J, r, x, r0_norm=np.inf))
        gn = x * gn_step(rescale_jacobian(J, x), r)
        np.testing.assert_allclose(report.dx, gn, atol=1e-12)
        assert report.eta_bar == 0.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eta=st.floats(min_value=1e-9, max_value=1e-2))
    def test_step_tends_to_gauss_newton_linearly_in_eta(self, seed, eta):
        # dxt_GN - dxt_LM = mu (G + mu I)^-1 G^-1 Jt' r with mu = eta / lambda,
        # so ||dx_LM - dx_GN|| <= max|x| mu / sigma_min(G) ||dxt_GN||
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        jt = rng.standard_normal((10, 2))
        assume(np.linalg.cond(jt) < 30.0)
        r = rng.standard_normal(10)
        report = modified_lm_step(make_state(jt / x, r, x, r0_norm=np.linalg.norm(r) / eta))
        assert report.eta_bar == pytest.approx(eta, rel=1e-12)
        dxt_gn = gn_step(jt, r)
        sigma_min = np.linalg.eigvalsh(jt.T @ jt)[0]
        bound = np.max(np.abs(x)) * (eta / report.lambda_) / sigma_min * np.linalg.norm(dxt_gn)
        assert np.linalg.norm(report.dx - x * dxt_gn) <= bound + 1e-12 * np.linalg.norm(x * dxt_gn)

    def test_unit_metric_unit_eta_halves_gradient_step(self):
        rng = np.random.default_rng(5)
        x = np.array([2.0, 3.0])
        q, _ = np.linalg.qr(rng.standard_normal((10, 2)))
        J = q / x[None, :]  # rescaled Jacobian is orthonormal: G = I, lambda = 1
        r = rng.standard_normal(10)
        report = modified_lm_step(make_state(J, r, x))
        dx_star = gd_step(rescale_jacobian(J, x), r)
        np.testing.assert_allclose(report.dx, x * dx_star / 2.0, atol=1e-12)

    def test_large_eta_shrinks_to_gradient_direction(self):
        rng = np.random.default_rng(6)
        J = rng.standard_normal((10, 2))
        x = np.array([1.5, 0.5])
        r = rng.standard_normal(10)
        dx_star = gd_step(rescale_jacobian(J, x), r)
        norms = []
        prev_dir = None
        for r0 in (1e2, 1e4, 1e8):
            report = modified_lm_step(make_state(J, r * r0, x, r0_norm=1.0))
            dxt = report.dx / x
            norms.append(np.linalg.norm(dxt))
            prev_dir = dxt / np.linalg.norm(dxt)
        scaled_dir = dx_star * r0 if False else dx_star  # direction only
        np.testing.assert_allclose(
            prev_dir, scaled_dir / np.linalg.norm(scaled_dir), atol=1e-4
        )

    def test_damping_sweep_monotone(self):
        # ||dxt|| decreases continuously from the GN step toward zero
        rng = np.random.default_rng(7)
        J = rng.standard_normal((12, 2))
        x = np.array([1.0, 2.0])
        r = rng.standard_normal(12)
        jt = rescale_jacobian(J, x)
        g = jt.T @ jt
        dx_star = gd_step(jt, r)
        gn_norm = np.linalg.norm(gn_step(jt, r))
        prev = np.inf
        for eta in np.logspace(-8, 8, 33):
            dxt = np.linalg.solve(g + eta * np.eye(2), dx_star)
            norm = np.linalg.norm(dxt)
            assert norm <= prev + 1e-12
            prev = norm
            if eta <= 1e-7:
                assert norm == pytest.approx(gn_norm, rel=1e-4)
        assert prev <= 1e-6 * gn_norm


class TestCorrectedGd:
    def test_unit_metric_matches_gn(self):
        rng = np.random.default_rng(8)
        x = np.array([2.0, 5.0])
        q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        J = q / x[None, :]
        r = rng.standard_normal(8)
        report = corrected_gd_step(make_state(J, r, x))
        gn = x * gn_step(rescale_jacobian(J, x), r)
        np.testing.assert_allclose(report.dx, gn, atol=1e-12)

    def test_metric_length_matches_gn_step(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            J = rng.standard_normal((10, 2))
            x = np.abs(rng.standard_normal(2)) + 0.5
            r = rng.standard_normal(10)
            report = corrected_gd_step(make_state(J, r, x))
            jt = rescale_jacobian(J, x)
            g = jt.T @ jt
            lhs = metric_norm(g, report.dx / x)
            rhs = metric_norm(g, gn_step(jt, r))
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_parallel_to_gradient(self):
        rng = np.random.default_rng(10)
        J = rng.standard_normal((10, 2))
        x = np.array([1.0, 4.0])
        r = rng.standard_normal(10)
        report = corrected_gd_step(make_state(J, r, x))
        dx_star = gd_step(rescale_jacobian(J, x), r)
        cross = report.dx[0] / x[0] * dx_star[1] - report.dx[1] / x[1] * dx_star[0]
        assert abs(cross) <= 1e-12 * np.linalg.norm(dx_star) ** 2


def linear_problem(a, y):
    def evaluate(x, need_jacobian):
        return y - a @ x, a
    return evaluate


class TestOptimize:
    def test_gauss_newton_on_linear_model(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((20, 2))
        truth = np.array([1.3, 0.7])
        y = a @ truth
        trace = optimize(linear_problem(a, y), np.array([2.0, 2.0]), OptimizeOptions(method="gauss-newton"))
        assert trace.status == "converged"
        assert len(trace.records) <= 3
        np.testing.assert_allclose(trace.final_x, truth, rtol=1e-8)

    def test_start_at_truth(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((10, 2))
        truth = np.array([0.8, 1.9])
        trace = optimize(linear_problem(a, a @ truth), truth, OptimizeOptions(method="modified-lm"))
        assert trace.status == "converged"
        assert trace.eval_count == 1

    def test_modified_lm_on_nonlinear_model(self):
        # two-exponential decay fit: r_i = y_i - (exp(-x1 t_i) + exp(-x2 t_i))
        t = np.linspace(0.1, 4.0, 40)
        truth = np.array([0.8, 2.5])

        def model(x):
            return np.exp(-x[0] * t) + np.exp(-x[1] * t)

        def jac(x):
            return np.column_stack([-t * np.exp(-x[0] * t), -t * np.exp(-x[1] * t)])

        y = model(truth)

        def evaluate(x, need_jacobian):
            return y - model(x), jac(x)

        trace = optimize(
            evaluate,
            np.array([0.5, 4.0]),
            OptimizeOptions(method="modified-lm", ground_truth=truth),
        )
        assert trace.status == "converged"
        np.testing.assert_allclose(trace.final_x, truth, rtol=1e-6)
        rel1 = [rec.rel1 for rec in trace.records]
        assert rel1[-1] < 1e-7

    def test_gradient_matches_finite_differences(self):
        # 0.5 ||r(xt)||^2 gradient in rescaled coordinates is -Jt' r
        rng = np.random.default_rng(13)
        t = np.linspace(0.1, 3.0, 25)

        def model(x):
            return np.exp(-x[0] * t) * np.cos(x[1] * t)

        def jac(x):
            return np.column_stack(
                [-t * np.exp(-x[0] * t) * np.cos(x[1] * t), -t * np.exp(-x[0] * t) * np.sin(x[1] * t)]
            )

        for _ in range(10):
            x = np.array([rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)])
            y = model(np.array([1.0, 1.0])) + 0.1 * rng.standard_normal(t.size)
            r = y - model(x)
            jt = rescale_jacobian(jac(x), x)
            grad = -gd_step(jt, r)

            def obj(xt):
                return 0.5 * np.sum((y - model(x * xt)) ** 2)

            h = 1e-7
            fd = np.zeros(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd[i] = (obj(np.ones(2) + e) - obj(np.ones(2) - e)) / (2 * h)
            assert np.max(np.abs(grad - fd)) <= 1e-5 * max(np.max(np.abs(fd)), 1.0)

    def test_rescale_round_trip_fixed_point(self):
        # GN fixed point is unchanged by rescaling on a well-conditioned model
        rng = np.random.default_rng(14)
        a = rng.standard_normal((15, 2)) + 2 * np.eye(15, 2)
        y = rng.standard_normal(15)
        x0 = np.array([1.1, 0.9])
        raw = x0 + gn_step(a, y - a @ x0)
        jt = rescale_jacobian(a, x0)
        rescaled = x0 + x0 * gn_step(jt, y - a @ x0)
        np.testing.assert_allclose(raw, rescaled, atol=1e-8)

    def test_bounds_backtracking(self):
        # huge proposed steps get halved into the box
        a = np.array([[1.0, 0.0], [0.0, 1e-4]])
        y = np.array([0.5, 0.49 * 1e-4])

        trace = optimize(
            linear_problem(a, y),
            np.array([0.45, 0.45]),
            OptimizeOptions(method="gauss-newton", bounds=((0.0, np.inf), (0.0, 0.5))),
        )
        assert trace.status in ("converged", "max-iters")
        for rec in trace.records:
            assert 0.0 < rec.x[1] < 0.5

    def test_stall_detection(self):
        def evaluate(x, need_jacobian):
            return np.array([1.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]) * 1e-300

        trace = optimize(evaluate, np.array([1.0, 1.0]), OptimizeOptions(method="modified-lm"))
        assert trace.status in ("stalled", "error")

    def test_eval_budget(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((10, 2))
        y = a @ np.array([2.0, 3.0])
        trace = optimize(
            linear_problem(a, y), np.array([20.0, 30.0]), OptimizeOptions(method="gauss-newton", max_evals=1)
        )
        assert trace.eval_count == 1
        assert trace.status in ("max-iters", "converged")

    def test_model_error_propagates_with_trace(self):
        calls = {"n": 0}

        def evaluate(x, need_jacobian):
            calls["n"] += 1
            if calls["n"] > 2:
                raise ValueError("synthetic forward failure")
            return np.array([1.0, 2.0]) - x, np.eye(2) * 0.5

        trace = optimize(evaluate, np.array([5.0, 5.0]), OptimizeOptions(method="gauss-newton"))
        assert trace.status == "error"
        assert "synthetic" in trace.message
        assert len(trace.records) == 2

    @pytest.mark.parametrize("method", ["modified-lm", "bfgs"])
    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_programming_error_propagates(self, method, failing_call):
        # only model-domain errors (ValueError, LinAlgError) end a run with
        # status "error"; a TypeError in an objective is a bug and escapes,
        # whether it comes from the first evaluation or a later one
        calls = {"n": 0}

        def evaluate(x, need_jacobian):
            calls["n"] += 1
            if calls["n"] == failing_call:
                raise TypeError("synthetic programming error")
            return np.array([1.0, 2.0]) - x, np.eye(2)

        def fg(x):
            r, jac = evaluate(x, True)
            return 0.5 * float(r @ r), -(jac.T @ r)

        with pytest.raises(TypeError, match="synthetic"):
            if method == "bfgs":
                bfgs_baseline(fg, np.array([5.0, 5.0]), OptimizeOptions(method="bfgs"))
            else:
                optimize(evaluate, np.array([5.0, 5.0]), OptimizeOptions(method=method))

    @pytest.mark.parametrize("bad", ["nan-residual", "inf-residual", "nan-jacobian"])
    def test_non_finite_evaluation_ends_the_run(self, bad):
        # the third evaluation returns NaN or inf: the run ends at its record
        calls = {"n": 0}
        a = np.array([[1.0, 0.0], [0.0, 0.05], [0.3, 0.1]])

        def evaluate(x, need_jacobian):
            calls["n"] += 1
            r, jac = a @ np.array([1.0, 2.0]) - a @ x, a
            if calls["n"] == 3:
                if bad == "nan-jacobian":
                    jac = jac * np.nan
                else:
                    r = r * (np.nan if bad == "nan-residual" else np.inf)
            return r, jac

        trace = optimize(evaluate, np.array([5.0, 5.0]), OptimizeOptions(method="scaled-gd"))
        assert trace.status == "non-finite"
        assert trace.eval_count == 3 == calls["n"]
        assert "evaluation 3" in trace.message

    def test_eval_counts_strictly_increasing(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((10, 2))
        y = a @ np.array([1.0, 2.0])
        trace = optimize(linear_problem(a, y), np.array([3.0, 1.0]), OptimizeOptions(method="modified-lm"))
        counts = [rec.eval_count for rec in trace.records]
        assert counts == sorted(set(counts))


class TestBfgs:
    def quad(self, a):
        def fg(x):
            return 0.5 * float(x @ a @ x), a @ x
        return fg

    def test_quadratic_exactness(self):
        # BFGS terminates on quadratics with (near-)exact line searches;
        # tolerance relaxed for the inexact search: |x| < 1e-8 within m+2 iterations
        a = np.diag([0.5, 2.0])
        trace = bfgs_baseline(self.quad(a), np.array([1.0, 1.0]), OptimizeOptions(method="bfgs"))
        assert trace.status == "converged"
        iters = {}
        for rec in trace.records:
            iters[rec.k] = min(iters.get(rec.k, np.inf), np.linalg.norm(rec.x))
        first_good = min(k for k, v in iters.items() if v < 1e-8)
        assert first_good <= 4

    def test_start_at_optimum(self):
        trace = bfgs_baseline(self.quad(np.eye(2)), np.zeros(2), OptimizeOptions(method="bfgs"))
        assert trace.status == "converged"
        assert trace.eval_count == 1

    def test_eval_count_at_least_iterations(self):
        a = np.array([[3.0, 0.4], [0.4, 1.0]])
        trace = bfgs_baseline(self.quad(a), np.array([2.0, -1.0]), OptimizeOptions(method="bfgs"))
        iters = max(rec.k for rec in trace.records)
        assert trace.eval_count >= iters

    def test_line_search_failure_stalls(self):
        # adversarial callback: claims steep descent but the value never drops
        def fg(x):
            return 1.0 + float(np.sum(x**2)), np.ones_like(x) * 10.0

        trace = bfgs_baseline(fg, np.array([1.0, 1.0]), OptimizeOptions(method="bfgs"))
        assert trace.status == "stalled"

    def test_non_finite_start_ends_the_run(self):
        trace = bfgs_baseline(lambda x: (np.nan, np.ones_like(x)), np.array([1.0, 1.0]), OptimizeOptions(method="bfgs"))
        assert trace.status == "non-finite"
        assert trace.eval_count == 1

    def test_non_finite_gradient_in_line_search_ends_the_run(self):
        calls = {"n": 0}

        def fg(x):
            calls["n"] += 1
            g = x.copy()
            if calls["n"] == 2:
                g[1] = np.inf
            return 0.5 * float(x @ x), g

        trace = bfgs_baseline(fg, np.array([1.0, 2.0]), OptimizeOptions(method="bfgs"))
        assert trace.status == "non-finite"
        assert trace.eval_count == 2 == calls["n"]

    def test_budget_respected(self):
        a = np.diag([1.0, 4.0])
        trace = bfgs_baseline(
            self.quad(a), np.array([3.0, 3.0]), OptimizeOptions(method="bfgs", max_evals=4)
        )
        assert trace.eval_count <= 4


class TestTraceCsv:
    def test_columns_and_rows(self, tmp_path):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((10, 2))
        y = a @ np.array([1.0, 2.0])
        trace = optimize(
            linear_problem(a, y),
            np.array([3.0, 1.0]),
            OptimizeOptions(method="modified-lm", ground_truth=np.array([1.0, 2.0]), ref_norm=float(np.linalg.norm(y))),
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, header_comments=["seed=17"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=17"
        assert lines[1] == "iter,eval_count,objective,E,nu,lambda,eta_bar,rel1,rel2,status"
        assert len(lines) == 2 + len(trace.records)
        fields = lines[2].split(",")
        assert fields[-1] == trace.status
        assert float(fields[2]) == trace.records[0].objective
