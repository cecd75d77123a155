"""Tests for the step rules, the step-size adaptation, and the drivers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waveinv import optim
from waveinv.optim import (
    OptimizeOptions,
    SingularMatrixError,
    bfgs_baseline,
    optimize,
    write_trace_csv,
)


def random_spd(rng, lo=0.1, hi=10.0):
    """SPD matrix with eigenvalues log-uniform in [lo, hi]."""
    theta = rng.uniform(0, 2 * np.pi)
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    d = np.exp(rng.uniform(np.log(lo), np.log(hi), size=2))
    return q @ np.diag(d) @ q.T


def metric_length(g, dx):
    """Length sqrt(dx' G dx) of dx in the metric G."""
    return float(np.sqrt(dx @ (g @ dx)))


def lambda_k(G, dx_star):
    """lambda for a 2x2 metric G and gradient step dx*, from the step at
    x = (1, 1), where Jt = J: G and dx* go in as the Gram and J' r."""
    (g00, g01), (_, g11) = np.asarray(G, float).tolist()
    p, q = np.asarray(dx_star, float).tolist()
    return optim.modified_lm_step([1.0, 1.0], (g00, g01, g11, p, q), 0.0)[2]


def modified_lm_step(J, r, x, eta=1.0):
    """The step (dx as an array, lambda) for the model Jacobian J and
    residual r at x, from the five dot products the driver takes (J's
    columns with each other and with r) and eta_bar."""
    c0, c1 = np.asarray(J, float).T
    r = np.asarray(r, float)
    dots = (float(c0.dot(c0)), float(c0.dot(c1)), float(c1.dot(c1)), float(c0.dot(r)), float(c1.dot(r)))
    dx0, dx1, lam = optim.modified_lm_step(np.asarray(x, float).tolist(), dots, eta)
    return np.array([dx0, dx1]), lam


def gauss_newton_step(J, r, x):
    """The Gauss-Newton step: the modified-LM step at eta_bar = 0."""
    return modified_lm_step(J, r, x, eta=0.0)


def lstsq_step(jt, r):
    """The Gauss-Newton increment argmin ||jt dxt - r|| from numpy's
    least-squares solver."""
    return np.linalg.lstsq(jt, r, rcond=None)[0]


class TestRescale:
    """The step works on the rescaled Jacobian Jt = J diag(x)."""

    def test_unit_parameters_leave_jacobian_alone(self):
        # at x = (1, 1), Jt is J: the steps are those of J itself
        rng = np.random.default_rng(19)
        J = rng.standard_normal((6, 2))
        r = rng.standard_normal(6)
        dx, lam = gauss_newton_step(J, r, np.ones(2))
        np.testing.assert_allclose(dx, lstsq_step(J, r), rtol=1e-12)
        assert lam == pytest.approx(lambda_k(J.T @ J, J.T @ r), rel=1e-14)

    def test_identity_jacobian(self):
        # J = I at x = (2, 3): Jt = diag(2, 3), so G = diag(4, 9) and
        # dxt* = (2 r0, 3 r1); the Gauss-Newton step solves J dx = r
        r = np.array([0.5, -1.5])
        x = np.array([2.0, 3.0])
        dx, lam = gauss_newton_step(np.eye(2), r, x)
        assert lam == lambda_k(np.diag([4.0, 9.0]), [1.0, -4.5])
        np.testing.assert_allclose(dx, r, rtol=1e-15)

    def test_zero_parameter_rejected(self):
        for step in (modified_lm_step, gauss_newton_step):
            with pytest.raises(ValueError, match="zero parameter components"):
                step(np.eye(2), np.ones(2), np.array([1.0, 0.0]))

    def test_equalizes_material_jacobian_columns(self):
        # raw modulus/ratio columns differ by ~9 orders of magnitude (E is
        # in pascals); after rescaling, Jt = J diag(x), they agree within one
        # order
        from waveinv.forward import ForwardConfig, MaterialParams, forward_jacobian

        peek = MaterialParams(E=3.9559e9, nu=0.40079, rho=1400.3)
        d_e, d_nu = forward_jacobian(peek.as_vector(), peek.rho, ForwardConfig())
        raw = np.column_stack([d_e.samples, d_nu.samples])
        raw_ratio = np.linalg.norm(raw[:, 1]) / np.linalg.norm(raw[:, 0])
        assert raw_ratio > 1e8
        scaled = raw * np.array([peek.E, peek.nu])
        scaled_ratio = np.linalg.norm(scaled[:, 1]) / np.linalg.norm(scaled[:, 0])
        assert 0.1 <= scaled_ratio <= 10.0


class TestGnStep:
    """The Gauss-Newton step: the modified-LM step at zero damping."""

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        r = rng.standard_normal(8)
        x = np.array([2.0, -3.0])
        dx, lam = gauss_newton_step(q / x, r, x)
        np.testing.assert_allclose(dx / x, q.T @ r, atol=1e-12)
        # an orthonormal Jt has the unit Gram, on which lambda is 1
        assert lam == pytest.approx(1.0, rel=1e-14)

    def test_hand_example(self):
        # rows (1, 0), (1, 0), (0, 1): dx0 is the mean of r0 and r1
        J = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        dx, _ = gauss_newton_step(J, np.array([1.0, 0.0, 2.0]), np.ones(2))
        np.testing.assert_allclose(dx, [0.5, 2.0], atol=1e-14)

    def test_exact_on_linear_model(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        x0 = rng.standard_normal(2)
        dx, _ = gauss_newton_step(a, y - a @ x0, x0)
        xs, *_ = np.linalg.lstsq(a, y, rcond=None)
        np.testing.assert_allclose(x0 + dx, xs, atol=1e-10)

    def test_rank_deficient_raises_with_condition(self):
        J = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularMatrixError) as exc:
            gauss_newton_step(J, np.ones(3), np.ones(2))
        assert exc.value.rcond < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 64),
        log_x=st.tuples(st.floats(-3.0, 10.0), st.floats(-3.0, 10.0)),
        log_cond=st.floats(0.0, 6.0),
    )
    def test_matches_least_squares(self, seed, rows, log_x, log_cond):
        # rescaled Jacobians with condition numbers up to 1e6, any parameter
        # scale: the closed form agrees with numpy's least-squares solver to
        # the accuracy the normal equations allow, cond(Jt)^2 eps
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((rows, 2)))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        jt = basis @ np.diag([1.0, 10.0**-log_cond]) @ rot.T
        x = 10.0 ** np.array(log_x) * rng.choice([-1.0, 1.0], size=2)
        r = rng.standard_normal(rows)
        dx, _ = gauss_newton_step(jt / x, r, x)
        ref = lstsq_step(jt, r)
        cond = 10.0**log_cond
        assert np.linalg.norm(dx / x - ref) <= 1e-13 * cond**2 * max(np.linalg.norm(ref), np.linalg.norm(r))


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
            lhs = metric_length(g, lam * dx)
            rhs = metric_length(g, np.linalg.solve(g, dx))
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_zero_step_rejected(self):
        # a zero gradient step has no lambda: the step reports NaN
        assert np.isnan(lambda_k(np.eye(2), np.zeros(2)))

    def test_singular_metric_rejected(self):
        with pytest.raises(SingularMatrixError):
            lambda_k(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, -1.0]))


class TestModifiedLm:
    def test_zero_damping_is_gauss_newton(self):
        rng = np.random.default_rng(4)
        J = rng.standard_normal((10, 2))
        x = np.array([2.0, 3.0])
        r = rng.standard_normal(10)
        dx, _ = modified_lm_step(J, r, x, 0.0)
        gn = x * lstsq_step(J * x, r)
        np.testing.assert_allclose(dx, gn, atol=1e-12)

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
        dx, lam = modified_lm_step(jt / x, r, x, eta)
        dxt_gn = lstsq_step(jt, r)
        sigma_min = np.linalg.eigvalsh(jt.T @ jt)[0]
        bound = np.max(np.abs(x)) * (eta / lam) / sigma_min * np.linalg.norm(dxt_gn)
        assert np.linalg.norm(dx - x * dxt_gn) <= bound + 1e-12 * np.linalg.norm(x * dxt_gn)

    def test_unit_metric_unit_eta_halves_gradient_step(self):
        rng = np.random.default_rng(5)
        x = np.array([2.0, 3.0])
        q, _ = np.linalg.qr(rng.standard_normal((10, 2)))
        J = q / x[None, :]  # rescaled Jacobian is orthonormal: G = I, lambda = 1
        r = rng.standard_normal(10)
        dx, _ = modified_lm_step(J, r, x)
        dx_star = (J * x).T @ r
        np.testing.assert_allclose(dx, x * dx_star / 2.0, atol=1e-12)

    def test_large_eta_shrinks_to_gradient_direction(self):
        rng = np.random.default_rng(6)
        J = rng.standard_normal((10, 2))
        x = np.array([1.5, 0.5])
        r = rng.standard_normal(10)
        dx_star = (J * x).T @ r
        for r0 in (1e2, 1e4, 1e8):
            # the residual r * r0 against an initial norm of 1
            dx, _ = modified_lm_step(J, r * r0, x, float(np.linalg.norm(r * r0)))
            dxt = dx / x
        np.testing.assert_allclose(dxt / np.linalg.norm(dxt), dx_star / np.linalg.norm(dx_star), atol=1e-4)

    def test_damping_sweep_monotone(self):
        # ||dxt|| decreases continuously from the GN step toward zero
        rng = np.random.default_rng(7)
        J = rng.standard_normal((12, 2))
        x = np.array([1.0, 2.0])
        r = rng.standard_normal(12)
        jt = J * x
        g = jt.T @ jt
        dx_star = jt.T @ r
        gn_norm = np.linalg.norm(lstsq_step(jt, r))
        prev = np.inf
        for eta in np.logspace(-8, 8, 33):
            dxt = np.linalg.solve(g + eta * np.eye(2), dx_star)
            norm = np.linalg.norm(dxt)
            assert norm <= prev + 1e-12
            prev = norm
            if eta <= 1e-7:
                assert norm == pytest.approx(gn_norm, rel=1e-4)
        assert prev <= 1e-6 * gn_norm


def linear_problem(a, y):
    def evaluate(x, need_jacobian):
        return y - a @ x, a
    return evaluate


def reference_step(J, r, x, eta):
    """The step on numpy's array path: rescaled Jacobian, BLAS Gram matrix
    and np.linalg.solve (the formulation the closed form replaced)."""
    jt = J * x
    dx_star = jt.T @ r
    metric = jt.T @ jt
    lam = np.sqrt((dx_star @ np.linalg.solve(metric, dx_star)) / (dx_star @ metric @ dx_star))
    return x * np.linalg.solve(metric + eta / lam * np.eye(2), dx_star), lam


class TestClosedFormStep:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 64),
        log_x=st.tuples(st.floats(-3.0, 10.0), st.floats(-3.0, 10.0)),
        eta=st.floats(1e-6, 1e3),
    )
    def test_matches_the_array_formulation(self, seed, rows, log_x, eta):
        # Gram eigenvalues in [0.1, 10] in rescaled units, any parameter scale
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((rows, 2)))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        jt = basis @ np.diag(np.sqrt(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))) @ rot.T
        x = 10.0 ** np.array(log_x) * rng.choice([-1.0, 1.0], size=2)
        r = rng.standard_normal(rows)
        assume(np.linalg.norm(jt.T @ r) > 1e-6 * np.linalg.norm(r))
        dx, lam = modified_lm_step(jt / x, r, x, eta)
        ref_dx, ref_lam = reference_step(jt / x, r, x, eta)
        assert abs(lam - ref_lam) <= 1e-12 * ref_lam
        assert np.linalg.norm((dx - ref_dx) / x) <= 1e-12 * np.linalg.norm(ref_dx / x)

    @pytest.mark.parametrize("step", [modified_lm_step, gauss_newton_step])
    @pytest.mark.parametrize("case", ["identical-columns", "tiny", "huge", "orthogonal-residual"])
    def test_degenerate_systems_are_model_errors(self, step, case):
        # a singular Gram is a model error for the step and status error for
        # the run, never a ZeroDivisionError or OverflowError from the float
        # arithmetic.  A residual orthogonal to J has no lambda: it is a
        # zero step, which converges at any damping
        rng = np.random.default_rng(18)
        col = rng.standard_normal(12)
        J = rng.standard_normal((12, 2))
        r = rng.standard_normal(12)
        if case == "identical-columns":
            J = np.column_stack([col, col])
        elif case == "tiny":
            J = J * 1e-300
        elif case == "huge":
            J = J * 1e200
        else:
            J = np.zeros((12, 2))
            J[0, 0] = J[1, 1] = 1.0
            r = np.zeros(12)
            r[2:] = 1.0
        x = np.array([3.9e9, 0.4])

        def evaluate(x, need_jacobian):
            return r, J / np.array([3.9e9, 0.4])

        method = "gauss-newton" if step is gauss_newton_step else "modified-lm"
        # J * 1e200 overflows the Gram in numpy's dot products, which warn
        with np.errstate(over="ignore", invalid="ignore"):
            if case == "orthogonal-residual":
                dx, lam = step(J / x, r, x)
                assert dx.tolist() == [0.0, 0.0] and np.isnan(lam)
            else:
                with pytest.raises(SingularMatrixError):
                    step(J / x, r, x)
            trace = optimize(evaluate, x, OptimizeOptions(method=method))
        if case == "orthogonal-residual":
            assert (trace.status, trace.message, trace.eval_count) == ("converged", "rescaled step below tolerance", 1)
        else:
            # the Gram of parallel, underflowing or overflowing columns is
            # singular: the run ends at its first evaluation
            assert trace.status == "error" and "reciprocal condition" in trace.message
            assert trace.eval_count == 1


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

    @pytest.mark.parametrize("method", ["modified-lm", "gauss-newton"])
    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1)])
    def test_two_parameters_required(self, method, shape):
        def evaluate(x, need_jacobian):
            raise AssertionError("no evaluation for a rejected start")

        with pytest.raises(ValueError, match=f"{method} takes two parameters"):
            optimize(evaluate, np.ones(shape), OptimizeOptions(method=method))

    @pytest.mark.parametrize("method", ["modified-lm", "gauss-newton"])
    @pytest.mark.parametrize("shape", [(10, 3), (11, 2)])
    def test_jacobian_of_another_shape_raises(self, method, shape):
        # a Jacobian that is not (residual rows, 2) is a bug in the callback:
        # optimize raises instead of ending the run with status error
        calls = {"n": 0}

        def evaluate(x, need_jacobian):
            calls["n"] += 1
            return np.ones(10), np.ones(shape)

        with pytest.raises(ValueError, match=r"Jacobian shape \(%d, %d\)" % shape):
            optimize(evaluate, np.array([1.0, 2.0]), OptimizeOptions(method=method))
        assert calls["n"] == 1

    @pytest.mark.parametrize("method", ["modified-lm", "gauss-newton"])
    def test_records_carry_eta_bar_and_lambda(self, method):
        # every record the run went on from took a step: it holds
        # eta_bar = ||r_k|| / ||r_0|| and the step's lambda.  On the
        # exponential model the first step from (1, 1) overshoots, and
        # eta_bar > 1 is recorded as it is, without clamping
        a = np.array([[1.0, 0.2], [0.3, 2.0], [0.5, -1.0], [2.0, 0.1]])
        y = a @ np.array([1.0, 2.0]) + np.array([0.01, -0.02, 0.03, 0.0])
        y_exp = np.exp([4.0, 3.0])

        def residual_exp(x):
            return y_exp - np.exp(x)

        def exponential(x, need_jacobian):
            return residual_exp(x), np.diag(np.exp(x))

        problems = [
            (linear_problem(a, y), lambda x: y - a @ x, np.array([3.0, 1.0])),
            (exponential, residual_exp, np.ones(2)),
        ]
        for evaluate, residual, x0 in problems:
            trace = optimize(evaluate, x0, OptimizeOptions(method=method, max_evals=6))
            r0_norm = np.linalg.norm(residual(trace.records[0].x))
            for rec in trace.records[:-1]:
                assert rec.eta_bar == np.linalg.norm(residual(rec.x)) / r0_norm
                assert rec.lambda_ > 0.0
        assert trace.records[1].eta_bar > 1.0  # the exponential run went uphill

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
            jt = jac(x) * x
            grad = -(jt.T @ r)

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
        raw = x0 + lstsq_step(a, y - a @ x0)
        rescaled = x0 + gauss_newton_step(a, y - a @ x0, x0)[0]
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
        assert trace.status in ("converged", "budget")
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
        assert trace.status in ("budget", "converged")

    @pytest.mark.parametrize("max_evals", [0, -1])
    def test_budget_below_one_rejected(self, max_evals):
        with pytest.raises(ValueError, match="max_evals must be at least 1"):
            OptimizeOptions(max_evals=max_evals)

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

        trace = optimize(evaluate, np.array([5.0, 5.0]), OptimizeOptions(method="modified-lm"))
        assert trace.status == "non-finite"
        assert trace.eval_count == 3 == calls["n"]
        assert "evaluation 3" in trace.message

    @pytest.mark.parametrize("method", ["modified-lm", "gauss-newton"])
    def test_non_finite_jacobian_outranks_a_converged_residual(self, method):
        # the second evaluation's residual meets the relative-residual test
        # (1e-13 of the first), but its Jacobian holds NaN: the finiteness
        # check runs before every stopping test
        calls = {"n": 0}
        a = np.array([[1.0, 0.0], [0.0, 0.05], [0.3, 0.1]])

        def evaluate(x, need_jacobian):
            calls["n"] += 1
            if calls["n"] == 1:
                return np.ones(3), a
            jac = a.copy()
            jac[1, 1] = np.nan
            return np.full(3, 1e-13), jac

        trace = optimize(evaluate, np.array([5.0, 5.0]), OptimizeOptions(method=method))
        assert (trace.status, trace.eval_count) == ("non-finite", 2)
        assert "evaluation 2" in trace.message

    def test_eval_counts_strictly_increasing(self, tmp_path):
        # the trace CSV's eval_count column reads 1..N on a BFGS run whose
        # line-search trials share their iteration k
        a = np.array([[3.0, 0.4], [0.4, 1.0]])

        def fg(x):
            return 0.5 * float(x @ a @ x), a @ x

        trace = bfgs_baseline(fg, np.array([2.0, -1.0]), OptimizeOptions(method="bfgs"))
        iters = [rec.k for rec in trace.records]
        assert len(set(iters)) < len(iters)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == iters
        assert [int(row[1]) for row in rows] == list(range(1, len(trace.records) + 1))


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

    @pytest.mark.parametrize(
        "offset, message", [(0.0, "relative residual below tolerance"), (1.0, "gradient vanished")]
    )
    def test_convergence_message_names_the_test(self, offset, message):
        # offset + 0.5 x'Ax: at offset 0 the objective falls below 1e-24 of
        # its start with the gradient, and its test is checked first; at
        # offset 1 it never does, and only the gradient test can fire
        a = np.diag([0.5, 2.0])

        def fg(x):
            f, g = self.quad(a)(x)
            return offset + f, g

        trace = bfgs_baseline(fg, np.ones(2), OptimizeOptions(method="bfgs"))
        assert (trace.status, trace.message) == ("converged", message)

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

    def test_independent_of_units(self):
        # the same quadratic posed in (4e9, 0.4) units and in unit
        # coordinates: the start rescaling makes both runs one run
        a = np.array([[3.0, 0.4], [0.4, 1.0]])
        u_star = np.array([1.3, 0.7])
        d = np.array([4e9, 0.4])

        def unit(u):
            e = u - u_star
            return 0.5 * float(e @ a @ e), a @ e

        def physical(x):
            f, g = unit(x / d)
            return f, g / d

        unit_trace = bfgs_baseline(unit, np.ones(2), OptimizeOptions(method="bfgs"))
        trace = bfgs_baseline(physical, d, OptimizeOptions(method="bfgs"))
        assert trace.status == unit_trace.status == "converged"
        assert trace.eval_count == unit_trace.eval_count
        for rec, unit_rec in zip(trace.records, unit_trace.records):
            np.testing.assert_allclose(rec.x / d, unit_rec.x, rtol=1e-12)

    def test_budget_respected(self):
        a = np.diag([1.0, 4.0])
        trace = bfgs_baseline(
            self.quad(a), np.array([3.0, 3.0]), OptimizeOptions(method="bfgs", max_evals=4)
        )
        assert trace.eval_count <= 4

    def test_budget_ends_a_run_it_cannot_finish(self):
        # 1 + |x|_1 has its kink at the origin: the gradient never vanishes
        # and the step relative to x never drops below tolerance, so only
        # the evaluation budget ends the run, after more than 100 iterations
        def fg(x):
            return 1.0 + float(np.abs(x).sum()), np.sign(x)

        trace = bfgs_baseline(fg, np.array([1.0, 2.0]), OptimizeOptions(method="bfgs", max_evals=2000))
        assert trace.eval_count == 2000
        assert (trace.status, trace.message) == ("budget", "evaluation budget exhausted")
        assert max(rec.k for rec in trace.records) > 100

    def test_stall_without_repeating_the_identity_search(self):
        # the gradient points uphill: the first search runs along steepest
        # descent with h = I, so the retry would repeat it trial for trial
        # and the run stalls after one search
        def fg(x):
            return float(x @ x), -2.0 * x

        trace = bfgs_baseline(fg, np.array([1.0, 2.0]), OptimizeOptions(method="bfgs"))
        assert trace.status == "stalled"
        assert trace.eval_count == 21
        assert trace.message == "line search failed after 20 evaluated trials"

    def test_stall_message_counts_both_searches(self):
        # one quadratic step moves h away from the identity; after it every
        # trial value rises, so the quasi-Newton search and the
        # steepest-descent retry both spend all their trials
        a = np.diag([1.0, 2.0])
        calls = {"n": 0}

        def fg(x):
            calls["n"] += 1
            if calls["n"] <= 2:
                return 0.5 * float(x @ a @ x), a @ x
            return 11.0, np.array([0.0, -2.0])

        trace = bfgs_baseline(fg, np.ones(2), OptimizeOptions(method="bfgs"))
        assert trace.status == "stalled"
        assert trace.eval_count == 42
        assert trace.message == "line search failed after 40 evaluated trials"
        # the retry searched along -g, not along the updated -h g
        first, retry = trace.records[2].x - trace.records[1].x, trace.records[22].x - trace.records[1].x
        assert abs(first[0]) > 0.0
        assert retry[0] == 0.0


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
