"""Tests for the benchmark harness: config parsing, reference generation,
batches, surfaces, manifold export, reports, and the CLI."""

import importlib.util
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from waveinv import bench, cli, forward, optim, signals
from waveinv.bench import (
    BenchResult,
    ConfigError,
    ExperimentConfig,
    RunResult,
    config_checksum,
    draw_starts,
    gen_refs,
    load_config,
    make_objective,
    manifold_export,
    mean_reference,
    optimize_batch,
    read_refs,
    report,
    run_single,
    surface_scan,
    write_batch,
    write_manifold,
    write_refs,
    write_surface,
)
from waveinv.bench import _count_interior_minima
from waveinv.cli import main as cli_main
from waveinv.forward import EvalCounter, ForwardConfig, MaterialParams, forward_jacobian, forward_response
from waveinv.optim import OptRecord, OptTrace
from waveinv.stats import BUILTIN_PRIORS, MATERIALS, gamma_inv_cdf


def small_cfg(**overrides):
    base = dict(material="PEEK", n_refs=3, seed=11, eval_budget=50, lhs_restarts=10)
    base.update(overrides)
    return load_config(None, base)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.material == "PEEK"
        assert cfg.cutoff == 1e-6
        assert cfg.eval_budget == 200

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# benchmark config\n"
            "material = PA6\n"
            "objective = envelope\n"
            "n_refs = 5   # small batch\n"
            "seed = 99\n"
            "cutoff = 1e-4\n"
        )
        cfg = load_config(path)
        assert cfg.material == "PA6"
        assert cfg.objective == "envelope"
        assert cfg.n_refs == 5
        assert cfg.seed == 99
        assert cfg.cutoff == 1e-4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("materia = PEEK\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("n_refs = lots\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_material_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(material="PVC")

    def test_checksum_tracks_content(self):
        a = small_cfg()
        b = small_cfg(seed=12)
        assert config_checksum(a) != config_checksum(b)
        assert config_checksum(a) == config_checksum(small_cfg())

    def test_seed_override(self):
        cfg = load_config(None, {"seed": 1234})
        assert cfg.seed == 1234

    def test_override_keys_read_as_file_keys(self):
        # an override key takes the file's spelling rules and its
        # unknown-key check
        assert load_config(None, {"n-refs": 3}).n_refs == 3
        for value in (1, None):
            with pytest.raises(ConfigError, match="unknown key 'bogus'"):
                load_config(None, {"bogus": value})

    def test_geometry_defaults_are_the_forward_defaults(self):
        assert ExperimentConfig().forward_config() == ForwardConfig()

    def test_damping_just_below_underflow_limit_evaluates(self):
        # the limit at the default grid is 745 (bT)^2 / (n/2 - 1)^2 = 4.923
        cfg = small_cfg(damping=4.9)
        ref = mean_reference(cfg)
        evaluate = make_objective(cfg, ref)[0]
        r, jac = evaluate(ref.truth.as_vector())
        assert np.all(np.isfinite(r)) and np.all(np.isfinite(jac))
        with pytest.raises(ConfigError):
            small_cfg(damping=4.93)
        # the raw-signal objectives never form the phase weights
        assert small_cfg(damping=4.93, objective="signal").damping == 4.93


class TestGenRefs:
    def test_deterministic(self, tmp_path):
        cfg = small_cfg()
        a = gen_refs(cfg)
        b = gen_refs(cfg)
        assert len(a) == 3
        for ra, rb in zip(a, b):
            assert ra.truth == rb.truth
            assert np.array_equal(ra.signal.samples, rb.signal.samples)

    def test_truths_physical(self):
        for mat in ("PEEK", "PA6", "PP"):
            refs = gen_refs(small_cfg(material=mat, n_refs=8))
            for ref in refs:
                assert ref.truth.E > 0.0
                assert 0.0 < ref.truth.nu < 0.5

    def test_round_trip_through_files(self, tmp_path):
        cfg = small_cfg()
        refs = gen_refs(cfg)
        write_refs(refs, cfg, tmp_path)
        back = read_refs(tmp_path)
        assert len(back) == len(refs)
        for ra, rb in zip(refs, back):
            assert rb.truth.E == ra.truth.E
            assert rb.truth.nu == ra.truth.nu
            np.testing.assert_array_equal(rb.signal.samples, ra.signal.samples)

    @pytest.mark.parametrize("material", ["PEEK", "PA6", "PP"])
    def test_references_are_forward_response_records(self, material):
        # one reference simulator: every record gen_refs and mean_reference
        # emit is forward_response's, bit for bit
        cfg = small_cfg(material=material, n_refs=5)
        fwd = cfg.forward_config()
        refs = gen_refs(cfg) + [mean_reference(cfg)]
        assert len(refs) == 6
        for ref in refs:
            want = forward_response(ref.truth.as_vector(), ref.truth.rho, fwd)
            assert ref.signal.dt == want.dt
            assert ref.signal.samples.tobytes() == want.samples.tobytes()

    def test_impossible_window_yields_no_refs(self):
        # 256 samples at the default rate: every packet is truncated
        cfg = small_cfg(n=256)
        assert gen_refs(cfg) == []

    def test_missing_refs_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            read_refs(tmp_path)


class TestStarts:
    def test_within_one_sigma(self):
        cfg = small_cfg(n_refs=40)
        starts = draw_starts(cfg, 40)
        prior = BUILTIN_PRIORS["PEEK"]
        (e_mean, nu_mean), (e_std, nu_std) = prior.mean_params_si(), prior.std_params_si()
        assert np.all(np.abs(starts[:, 0] - e_mean) <= 1.001 * e_std)
        assert np.all(np.abs(starts[:, 1] - nu_mean) <= 1.001 * nu_std)

    def test_optimizer_independent(self):
        a = draw_starts(small_cfg(optimizer="modified-lm"), 5)
        b = draw_starts(small_cfg(optimizer="bfgs"), 5)
        np.testing.assert_array_equal(a, b)


class TestOptimizeBatch:
    def test_truth_start_succeeds_at_first_eval(self):
        cfg = small_cfg(n_refs=1)
        refs = gen_refs(cfg)
        trace, counter = run_single(cfg, refs[0], refs[0].truth.as_vector())
        assert trace.status == "converged"
        assert trace.eval_count == 1
        assert counter.count == 1

    def test_budget_one_distant_start_fails(self):
        cfg = small_cfg(eval_budget=1)
        refs = gen_refs(cfg)
        result = optimize_batch(cfg, refs)
        assert not any(run.success for run in result.runs)

    def test_run_spends_the_whole_budget(self):
        # modified-LM neither converges nor stalls within 5 evaluations from
        # a drawn start; the evaluation budget is the run's only cost limit
        cfg = small_cfg(n_refs=1, eval_budget=5)
        refs = gen_refs(cfg)
        trace, counter = run_single(cfg, refs[0], draw_starts(cfg, 1)[0])
        assert trace.eval_count == counter.count == 5
        assert (trace.status, trace.message) == ("budget", "evaluation budget exhausted")

    def test_reference_within_grid_tolerance_inverts_like_an_exact_one(self):
        # optimize_batch accepts a dt within GRID_RTOL of the configured one;
        # the phase feature is then taken on the configured grid
        cfg = small_cfg(eval_budget=30)
        refs = gen_refs(cfg)
        shifted = [replace(ref, signal=signals.Signal(ref.signal.samples, ref.signal.dt * (1 + 1e-12))) for ref in refs]
        assert shifted[0].signal.dt != cfg.dt
        exact, near = optimize_batch(cfg, refs), optimize_batch(cfg, shifted)
        for a, b in zip(exact.runs, near.runs):
            assert a.trace.status == b.trace.status != "error"
            assert a.trace.eval_count == b.trace.eval_count
            np.testing.assert_array_equal(a.trace.final_x, b.trace.final_x)

    def test_modified_lm_batch_succeeds(self):
        cfg = small_cfg(n_refs=4)
        result = optimize_batch(cfg, gen_refs(cfg))
        assert all(run.success for run in result.runs)
        for run in result.runs:
            assert run.evals_to_success <= 50

    def test_trace_eval_count_matches_model_counter(self):
        cfg = small_cfg(n_refs=1)
        refs = gen_refs(cfg)
        starts = draw_starts(cfg, 1)
        trace, counter = run_single(cfg, refs[0], starts[0])
        assert trace.eval_count == counter.count

    def test_eval_count_mismatch_raises(self, monkeypatch):
        cfg = small_cfg(n_refs=1)
        refs = gen_refs(cfg)
        trace = OptTrace(
            records=[OptRecord(k=0, x=refs[0].truth.as_vector(), objective=0.0)],
            status="converged",
        )
        counter = EvalCounter()
        counter.add(2)
        monkeypatch.setattr(bench, "run_single", lambda cfg, ref, x0: (trace, counter))
        with pytest.raises(RuntimeError, match="trace counted 1 evaluations, model counted 2"):
            optimize_batch(cfg, refs)

    def test_failed_evaluation_may_go_unrecorded(self, monkeypatch):
        # an evaluation that raised was counted but left no record
        cfg = small_cfg(n_refs=1)
        refs = gen_refs(cfg)
        trace = OptTrace(
            records=[OptRecord(k=0, x=refs[0].truth.as_vector(), objective=1.0)],
            status="error",
        )
        counter = EvalCounter()
        counter.add(2)
        monkeypatch.setattr(bench, "run_single", lambda cfg, ref, x0: (trace, counter))
        assert optimize_batch(cfg, refs).runs[0].trace.status == "error"

    @pytest.mark.parametrize("optimizer", ["modified-lm", "bfgs"])
    def test_programming_error_propagates(self, optimizer, monkeypatch):
        # a TypeError inside the objective is a bug, not a failed run
        cfg = small_cfg(n_refs=1, optimizer=optimizer)
        refs = gen_refs(cfg)

        def broken(*args, **kwargs):
            raise TypeError("synthetic programming error")

        # LM evaluates residuals and Jacobians, BFGS the objective and its
        # reverse-mode gradient: each reaches its own forward function
        target = {"modified-lm": "phase_objective_terms", "bfgs": "phase_objective_gradient"}[optimizer]
        monkeypatch.setattr(bench, target, broken)
        with pytest.raises(TypeError, match="synthetic"):
            optimize_batch(cfg, refs)

    def test_histogram_conservation(self, tmp_path):
        cfg = small_cfg(n_refs=5)
        result = optimize_batch(cfg, gen_refs(cfg))
        write_batch(result, tmp_path)
        report(tmp_path, cfg)
        lines = (tmp_path / "report" / "histogram.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith(("#", "evals"))]
        assert sum(int(count) for _, count in rows) == sum(r.success for r in result.runs)
        assert sum(r.success for r in result.runs) + sum(not r.success for r in result.runs) == len(result.runs)

    def test_success_monotone_in_cutoff(self):
        cfg = small_cfg(n_refs=4, eval_budget=12)
        refs = gen_refs(cfg)
        tight = optimize_batch(cfg, refs)
        loose = optimize_batch(replace(cfg, cutoff=1e-4), refs)
        for t_run, l_run in zip(tight.runs, loose.runs):
            assert l_run.success >= t_run.success

    def test_error_curves_shape(self):
        cfg = small_cfg(n_refs=3)
        result = optimize_batch(cfg, gen_refs(cfg))
        rows = result.error_curves()
        assert rows, "expected at least one curve row"
        evals = [row[0] for row in rows]
        assert evals == list(range(1, len(rows) + 1))
        for _, logmean, lo, hi in rows:
            assert lo <= logmean <= hi

    def test_bfgs_and_lm_see_identical_starts(self):
        cfg = small_cfg(n_refs=2, eval_budget=30)
        refs = gen_refs(cfg)
        lm = optimize_batch(cfg, refs)
        bf = optimize_batch(replace(cfg, optimizer="bfgs"), refs)
        for lm_run, bf_run in zip(lm.runs, bf.runs):
            # the first record of either optimizer holds its start bit for bit
            np.testing.assert_array_equal(lm_run.trace.records[0].x, bf_run.trace.records[0].x)

    def test_gauss_newton_near_linear_surrogate(self):
        # Gauss-Newton in (E, nu) from a 1% start converges quadratically:
        # each record's parameter error is at most ten times the square of
        # the one before, and the run stops at its fourth record.  A single
        # packet would leave nu unobservable (a zero Jacobian column), so
        # this runs the three-packet model
        from waveinv.forward import ForwardConfig, forward_response, phase_objective_terms
        from waveinv.optim import OptimizeOptions, optimize
        from waveinv.signals import damping_weights, transform_pipeline

        fwd = ForwardConfig()
        gamma = damping_weights(fwd.n // 2, fwd.b, fwd.duration, 1.0)
        truth, rho = np.array([3.9559e9, 0.40079]), 1400.3
        ref = transform_pipeline(forward_response(truth, rho, fwd), gamma)

        def evaluate(x, need_jacobian):
            features, jac = phase_objective_terms(x, rho, fwd, gamma)
            return ref - features, jac

        trace = optimize(
            evaluate, truth * np.array([0.99, 1.01]), OptimizeOptions(method="gauss-newton", ground_truth=truth)
        )
        assert trace.status == "converged"
        assert len(trace.records) <= 4
        errors = [rec.rel1 for rec in trace.records]
        assert all(e1 <= 10.0 * e0 * e0 for e0, e1 in zip(errors, errors[1:]))
        assert errors[-1] < 1e-12

    @pytest.mark.parametrize("objective", ["signal", "envelope"])
    def test_other_objectives_run(self, objective):
        # near-truth starts keep the non-convex objectives in their basin
        cfg = small_cfg(n_refs=1, objective=objective, optimizer="gauss-newton")
        refs = gen_refs(cfg)
        x0 = refs[0].truth.as_vector() * np.array([1.0005, 1.0002])
        trace, _ = run_single(cfg, refs[0], x0)
        assert trace.records[-1].rel1 < trace.records[0].rel1


def full_fft_analytic_signal(u):
    """The analytic signal through a full complex FFT of the demeaned
    samples: the reference formula the one-sided version must match."""
    n = u.size
    w = np.zeros(n)
    w[0] = 1.0
    w[1 : n // 2] = 2.0
    w[n // 2] = 1.0
    return np.fft.ifft(np.fft.fft(u - u.mean()) * w)


class TestRawObjectives:
    """The signal and envelope objectives, taken from the response spectrum."""

    def setup_method(self):
        self.cfg = small_cfg(n_refs=1)
        self.ref = gen_refs(self.cfg)[0]
        self.x = self.ref.truth.as_vector() * np.array([1.004, 0.997])
        self.fwd = self.cfg.forward_config()

    def evaluate(self, objective):
        return make_objective(replace(self.cfg, objective=objective), self.ref)[0]

    @staticmethod
    def from_real_fourier(v, n):
        """The time record whose orthonormal real Fourier coordinates are v:
        [Re c_0, Re c_1, Im c_1, ..., Re c_{n/2}] scaled by sqrt(1/n) at the
        two real bins and sqrt(2/n) elsewhere."""
        coeffs = np.empty(n // 2 + 1, dtype=complex)
        coeffs[0] = v[0] * np.sqrt(n)
        coeffs[1:-1] = (v[1:-1:2] + 1j * v[2:-1:2]) * np.sqrt(n / 2)
        coeffs[-1] = v[-1] * np.sqrt(n)
        return np.fft.irfft(coeffs, n)

    def check_signal_terms(self, evaluate, x):
        # r and J are the time-domain residual and Jacobian in an orthonormal
        # basis: mapped back they are ref - y and dy, and ||r||, J^T J and
        # J^T r keep their values, to rounding on the Cauchy-Schwarz scale.
        # The residual's rounding scales with its operands, ref and y, not
        # with ref - y, which cancels where the two records agree
        r, jac = evaluate(x, True)
        y = forward_response(x, self.ref.truth.rho, self.fwd).samples
        r_time = self.ref.signal.samples - y
        jac_time = np.column_stack([d.samples for d in forward_jacobian(x, self.ref.truth.rho, self.fwd)])
        assert r.shape == (self.fwd.n,) and jac.shape == (self.fwd.n, 2)
        r_scale = max(np.max(np.abs(self.ref.signal.samples)), np.max(np.abs(y)))
        for got, want, scale in [
            (r, r_time, r_scale),
            (jac[:, 0], jac_time[:, 0], np.max(np.abs(jac_time[:, 0]))),
            (jac[:, 1], jac_time[:, 1], np.max(np.abs(jac_time[:, 1]))),
        ]:
            assert np.max(np.abs(self.from_real_fourier(got, self.fwd.n) - want)) <= 1e-15 * scale
        r_norm, col_norms = np.linalg.norm(r_time), np.linalg.norm(jac_time, axis=0)
        assert abs(np.linalg.norm(r) - r_norm) <= 1e-13 * r_norm
        assert np.all(np.abs(jac.T @ jac - jac_time.T @ jac_time) <= 1e-13 * np.outer(col_norms, col_norms))
        assert np.all(np.abs(jac.T @ r - jac_time.T @ r_time) <= 1e-13 * col_norms * r_norm)
        r_only, none = evaluate(x, False)
        assert none is None
        assert r_only.tobytes() == r.tobytes()

    def test_signal_terms_equal_the_time_domain_response(self):
        self.check_signal_terms(self.evaluate("signal"), self.x)

    @settings(max_examples=40, deadline=None)
    @given(u_e=st.floats(0.01, 0.99), u_nu=st.floats(0.01, 0.99))
    @example(u_e=0.19921875, u_nu=0.75)  # ref - y cancels: a bound on its own scale failed here
    def test_signal_terms_over_prior_draws(self, u_e, u_nu):
        prior = self.cfg.prior()
        x = np.array([1.0e9 * gamma_inv_cdf(prior.marginals["E"], u_e), gamma_inv_cdf(prior.marginals["nu"], u_nu)])
        self.check_signal_terms(self.evaluate("signal"), x)

    def test_envelope_terms_match_the_time_domain_formula(self):
        # |a| and Re(conj(a) da) / max(|a|, 1e-12 max|a|) from the analytic
        # signals of the time-domain response and its derivatives
        r, jac = self.evaluate("envelope")(self.x, True)
        a = full_fft_analytic_signal(forward_response(self.x, self.ref.truth.rho, self.fwd).samples)
        env = np.abs(a)
        env_safe = np.maximum(env, 1e-12 * env.max())
        want = np.column_stack(
            [(a.conj() * full_fft_analytic_signal(d.samples)).real / env_safe for d in forward_jacobian(self.x, self.ref.truth.rho, self.fwd)]
        )
        ref_env = np.abs(full_fft_analytic_signal(self.ref.signal.samples))
        assert np.max(np.abs(r - (ref_env - env))) <= 1e-12 * np.max(env)
        assert np.max(np.abs(jac - want)) <= 1e-12 * np.max(np.abs(want))
        r_only, none = self.evaluate("envelope")(self.x, False)
        assert none is None
        np.testing.assert_array_equal(r_only, r)

    @pytest.mark.parametrize("objective", ["signal", "envelope"])
    def test_jacobian_matches_central_differences(self, objective):
        evaluate = self.evaluate(objective)
        _, jac = evaluate(self.x, True)
        for i in range(2):
            h = np.zeros(2)
            h[i] = 1e-6 * self.x[i]
            # r = ref - f, so the model derivative is -(r(x + h) - r(x - h)) / 2h
            fd = -(evaluate(self.x + h, False)[0] - evaluate(self.x - h, False)[0]) / (2 * h[i])
            assert np.max(np.abs(jac[:, i] - fd)) <= 1e-5 * np.max(np.abs(jac[:, i]))

    @pytest.mark.parametrize("objective", ["signal", "envelope"])
    def test_one_transform_per_evaluation(self, objective, monkeypatch):
        # at most one: signal reads the residual and Jacobian off the
        # spectrum, envelope makes one batched inverse transform of [Y; dY]
        transforms = {"signal": 0, "envelope": 1}[objective]
        evaluate = self.evaluate(objective)
        evaluate(self.x, True)  # fills the excitation cache
        calls = {"fft": 0, "analytic_signal": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "fft"))
        monkeypatch.setattr(signals, "analytic_signal", counted(signals.analytic_signal, "analytic_signal"))
        _, jac = evaluate(self.x, True)
        assert jac.shape == (self.fwd.n, 2)
        assert calls == {"fft": transforms, "analytic_signal": 0}

    @pytest.mark.parametrize("need_jacobian", [True, False])
    @pytest.mark.parametrize("objective", ["signal", "envelope"])
    def test_evaluation_allocates_little_beyond_its_outputs(self, objective, need_jacobian):
        # after a warm-up call, every temporary as long as the record lives
        # in this thread's scratch arrays: the peak traced allocation of an
        # evaluation is the arrays it returns plus 32 KiB, one 4096-sample
        # float row.  Fresh [Y; dY] spectra or a cast buffer for the
        # analytic weights would each exceed it
        evaluate = self.evaluate(objective)
        evaluate(self.x, need_jacobian)
        tracemalloc.start()
        try:
            out = evaluate(self.x, need_jacobian)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert self.fwd.n == 4096
        returned = sum(a.nbytes for a in out if a is not None)
        assert peak <= returned + 32 * 1024, (peak - returned) / 1024


class TestPhaseGradient:
    """The phase objective's ``fg``: 0.5 ||r||^2 and its gradient from one
    reverse pass, against ``evaluate(x, True)``'s forward-mode -J^T r."""

    @staticmethod
    def prior_draws(cfg, rng, count):
        prior = cfg.prior()
        for _ in range(count):
            e = 1.0e9 * gamma_inv_cdf(prior.marginals["E"], rng.uniform(0.01, 0.99))
            yield np.array([e, gamma_inv_cdf(prior.marginals["nu"], rng.uniform(0.01, 0.99))])

    def test_matches_the_forward_mode_gradient(self):
        # 100 prior draws per material against the prior-mean reference: the
        # objective is 0.5 r.r bit for bit, the gradient -J^T r to 1e-8 in norm
        rng = np.random.default_rng(11)
        worst = 0.0
        for material in MATERIALS:
            cfg = load_config(None, {"material": material})
            evaluate, fg, _, _ = make_objective(cfg, mean_reference(cfg))
            for x in self.prior_draws(cfg, rng, 100):
                r, jac = evaluate(x, True)
                value, grad = fg(x)
                assert value == 0.5 * float(r @ r)
                want = -(jac.T @ r)
                worst = max(worst, float(np.linalg.norm(grad - want) / np.linalg.norm(want)))
        assert worst <= 1e-8

    @staticmethod
    def zero_excitation(cfg):
        return (np.zeros(cfg.n // 2 + 1, dtype=complex),) * 2

    @staticmethod
    def single_line_excitation(cfg):
        # one nonzero coefficient: every lag > 0 of the autocorrelation is zero
        p_spec = np.zeros(cfg.n // 2 + 1, dtype=complex)
        p_spec[3] = 1.0 + 0.5j
        return p_spec, -1j * 2 * np.pi * np.arange(p_spec.size) / cfg.duration * p_spec

    @pytest.mark.parametrize(
        "case, error",
        [
            ("outside-the-domain", ValueError),
            ("truncated-window", forward.TruncationError),
            ("all-zero-spectrum", signals.PipelineError),
            ("zero-lag-undamped", signals.PipelineError),
        ],
    )
    def test_fails_like_the_jacobian(self, case, error, monkeypatch):
        cfg = small_cfg(n_refs=1)
        ref = gen_refs(cfg)[0]
        x = ref.truth.as_vector()
        if case == "outside-the-domain":
            x = np.array([x[0], 0.6])
        elif case == "truncated-window":
            x = np.array([1e-3 * x[0], x[1]])
        else:
            excite = self.zero_excitation if case == "all-zero-spectrum" else self.single_line_excitation
            grid = forward._grid
            monkeypatch.setattr(forward, "_grid", lambda c: grid(c)._replace(**dict(zip(("p_spec", "p_rate"), excite(c)))))
        evaluate, fg, _, _ = make_objective(cfg, ref)
        with pytest.raises(error) as jacobian:
            evaluate(x, True)
        with pytest.raises(error) as gradient:
            fg(x)
        assert type(gradient.value) is type(jacobian.value)

    def test_each_call_counts_one_evaluation(self):
        cfg = small_cfg(n_refs=1)
        ref = gen_refs(cfg)[0]
        _, fg, counter, _ = make_objective(cfg, ref)
        for i, scale in enumerate((1.0, 1.02, 0.97), start=1):
            fg(ref.truth.as_vector() * scale)
            assert counter.count == i

    def test_exact_zero_lags_raise_no_floating_point_error(self):
        # PEEK, seed 1, reference 1 at 1.03 x truth: its autocorrelation has
        # lags that are exactly zero, which the masked fix-ups of the phase,
        # its derivative and the adjoint weights skip, on the gradient, on
        # the residual with and without the Jacobian, and on every row of a
        # 16-row batch that holds the point
        cfg = load_config(None, {"material": "PEEK", "seed": 1})
        ref = gen_refs(cfg)[1]
        x = 1.03 * ref.truth.as_vector()
        y, _ = forward.response_spectrum(x, ref.truth.rho, cfg.forward_config())
        assert (signals._autocorr(y[1:])[0] == 0.0).any()
        rows = x * (1.0 + 0.01 * np.random.default_rng(4).standard_normal((16, 2)))
        rows[5] = x
        evaluate, fg, _, _ = make_objective(cfg, ref)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            value, grad = fg(x)
            for need_jacobian in (True, False):
                r, jac = evaluate(rows, need_jacobian)
                assert np.isfinite(r).all()
                if need_jacobian:
                    assert np.isfinite(jac).all()
                for i, row in enumerate(rows):
                    r1, jac1 = evaluate(row, need_jacobian)
                    assert r[i].tobytes() == r1.tobytes()
                    if need_jacobian:
                        assert np.ascontiguousarray(jac[i]).tobytes() == np.ascontiguousarray(jac1).tobytes()
        assert np.isfinite(value) and np.isfinite(grad).all()


class TestBatchedEvaluation:
    """``evaluate`` on the rows of an (N, 2) array: the same bits as N
    single calls, failures as NaN rows."""

    @pytest.mark.parametrize("objective", ["autocorr-phase", "signal", "envelope"])
    def test_rows_equal_single_evaluations(self, objective):
        # 16 rows, a surface chunk (bench._CHUNK): the kernels write a batch
        # one row at a time, into the same scratch arrays as a single row
        cfg = small_cfg(n_refs=1, objective=objective)
        ref = gen_refs(cfg)[0]
        rng = np.random.default_rng(8)
        x = ref.truth.as_vector() * (1.0 + 0.03 * rng.standard_normal((16, 2)))
        for need_jacobian in (True, False):
            evaluate, _, counter, _ = make_objective(cfg, ref)
            r, jac = evaluate(x, need_jacobian)
            assert counter.count == len(x)
            for i, row in enumerate(x):
                r1, jac1 = evaluate(row, need_jacobian)
                assert r[i].tobytes() == r1.tobytes()
                if need_jacobian:
                    assert jac.shape == (len(x),) + jac1.shape
                    assert jac[i].tobytes() == jac1.tobytes()
                else:
                    assert jac is None and jac1 is None

    def test_cold_phase_chunk_stays_under_4_mib(self):
        # a fresh thread has no scratch arrays yet, so the first chunk of a
        # surface scan allocates them all: at n = 4096 its traced peak is
        # about 3.6 MiB with the temporaries that are never live at the
        # same time sharing storage, and 5.4 MiB with one array for each
        cfg = small_cfg()
        ref = mean_reference(cfg)
        evaluate, _, _, _ = make_objective(cfg, ref)
        x = bench._grid_nodes(cfg, cfg.grid_n)[2][: bench._CHUNK]
        assert len(x) == 16 and cfg.forward_config().n == 4096
        peak = {}

        def first_chunk():
            tracemalloc.start()
            try:
                evaluate(x, False)
                peak["bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        thread = threading.Thread(target=first_chunk)
        thread.start()
        thread.join()
        assert peak["bytes"] <= 4 * 1024 * 1024, peak["bytes"] / 1024

    def test_point_outside_the_domain(self):
        cfg = small_cfg(n_refs=1)
        ref = gen_refs(cfg)[0]
        evaluate, _, counter, _ = make_objective(cfg, ref)
        bad = np.array([ref.truth.E, 0.55])
        r, _ = evaluate(np.stack([bad, ref.truth.as_vector()]), False)
        assert counter.count == 1
        assert np.isnan(r[0]).all()
        assert r[1].tobytes() == evaluate(ref.truth.as_vector(), False)[0].tobytes()
        with pytest.raises(ValueError, match="outside"):
            evaluate(bad, False)

    @pytest.mark.parametrize("objective", ["autocorr-phase", "signal"])
    def test_surface_across_the_truncation_limit(self, objective, caplog):
        # the window ends inside the grid: soft materials lose their last
        # packet.  Batched chunks must give the NaN pattern, failure count
        # and objective values of a serial loop over single evaluations.
        cfg = small_cfg(objective=objective, grid_n=7, n=1024, dt=2.4e-5 / 1024)
        ref = mean_reference(cfg)
        with caplog.at_level("WARNING", logger="waveinv.bench"):
            result = surface_scan(cfg, ref)
        evaluate, _, _, _ = make_objective(cfg, ref)
        want = np.full((7, 7), np.nan)
        for i, e in enumerate(result.e_values):
            for j, nu in enumerate(result.nu_values):
                try:
                    r, _ = evaluate(np.array([e, nu]), False)
                except ValueError:
                    continue
                want[i, j] = 0.5 * float(r @ r)
        failed = int(np.isnan(want).sum())
        assert 0 < failed < 49
        assert result.failed_nodes == failed
        assert result.objective.tobytes() == want.tobytes()
        # one warning per scan: the failed-node count and the first failed node
        first = np.argwhere(np.isnan(want))[0]
        messages = [rec.getMessage() for rec in caplog.records if "surface node" in rec.getMessage()]
        assert messages == [
            f"{failed} of 49 surface nodes failed, first ({first[0]}, {first[1]}): no model output at "
            f"(E, nu) = {np.array([result.e_values[first[0]], result.nu_values[first[1]]])}"
        ]

    def test_gen_refs_skips_truncated_truths(self, caplog):
        cfg = small_cfg(n_refs=8, n=1024, dt=2.4e-5 / 1024)
        with caplog.at_level("WARNING", logger="waveinv.bench"):
            refs = gen_refs(cfg)
        kept, skipped = [], []
        for ref_id, truth in enumerate(gen_refs(replace(cfg, n=4096, dt=1.0 / 48.0e6))):
            try:
                forward_response(truth.truth.as_vector(), truth.truth.rho, cfg.forward_config())
            except ValueError:
                skipped.append(f"reference {ref_id} failed: truth {truth.truth} has no model output")
                continue
            kept.append(ref_id)
        assert 0 < len(kept) < 8
        assert [ref.ref_id for ref in refs] == kept
        # one warning per skipped truth, in order
        assert [rec.getMessage() for rec in caplog.records if rec.name == "waveinv.bench"] == skipped

    def test_phase_surface_fft_calls_scale_with_chunks(self, monkeypatch):
        # 1681 nodes in chunks of bench._CHUNK: two FFT calls per chunk
        # (autocorrelation and its real-input inverse), not per node
        cfg = small_cfg(grid_n=41)
        ref = mean_reference(cfg)
        calls = {"fft": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls["fft"] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        result = surface_scan(cfg, ref)
        chunks = -(-41 * 41 // bench._CHUNK)
        assert result.failed_nodes == 0
        assert calls["fft"] == 2 * chunks + 3  # + rfft and the two of the reference feature


class TestSurface:
    def test_truth_node_objective_zero(self):
        cfg = small_cfg(grid_n=9)
        result = surface_scan(cfg, mean_reference(cfg))
        center = result.objective[4, 4]
        assert center <= 1e-20

    def test_minima_counter_on_synthetic_grid(self):
        grid = np.ones((5, 5))
        grid[1, 1] = -1.0
        grid[3, 3] = -2.0  # non-adjacent second strict minimum
        assert _count_interior_minima(grid) == 2
        grid[0, 4] = -5.0  # boundary nodes never count themselves
        assert _count_interior_minima(grid) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.sampled_from([0.0, 1.0, 2.0, 3.0, np.nan]),
        )
    )
    def test_minima_counter_matches_the_node_loop(self, grid):
        # the node-by-node definition: an interior node counts when it and
        # its 8 neighbors are not NaN and it is strictly below each neighbor
        count = 0
        for i in range(1, grid.shape[0] - 1):
            for j in range(1, grid.shape[1] - 1):
                block = grid[i - 1 : i + 2, j - 1 : j + 2].ravel()
                others = np.delete(block, 4)
                if not np.isnan(block).any() and np.all(block[4] < others):
                    count += 1
        assert _count_interior_minima(grid) == count

    def test_nan_nodes_excluded(self):
        grid = np.ones((5, 5))
        grid[2, 2] = 0.0
        grid[1, 1] = np.nan
        assert _count_interior_minima(grid) == 0  # neighbor NaN disqualifies

    def test_csv_output(self, tmp_path):
        cfg = small_cfg(grid_n=5)
        result = surface_scan(cfg, mean_reference(cfg))
        path = tmp_path / "surface.csv"
        write_surface(result, cfg, path)
        lines = path.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("interior_local_minima=" in c for c in comments)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "E,nu,J"
        assert len(lines) == header_idx + 1 + 25


class TestManifold:
    def test_affine_plane_reconstructs_exactly(self, monkeypatch):
        # model outputs on an affine 2-plane over the grid nodes: the export
        # finds rank 2, and its two scores keep every distance between nodes
        cfg = small_cfg(manifold_grid_n=4)
        rng = np.random.default_rng(0)
        basis = rng.standard_normal((2, 50))
        offset = rng.standard_normal(50) + 3.0

        def plane(x):
            return (x * [1e-9, 10.0]) @ basis + offset

        monkeypatch.setattr(bench, "make_objective", lambda cfg, ref: (lambda x, _: (-plane(x), None), None, None, None))
        _, projected, explained, rank = manifold_export(cfg)
        centered = plane(bench._grid_nodes(cfg, 4)[2])
        centered -= centered.mean(axis=0)
        assert rank == 2 and projected.shape == (16, 2)
        assert np.sum(explained) == pytest.approx(1.0, rel=1e-12)
        gram = centered @ centered.T
        assert np.max(np.abs(projected @ projected.T - gram)) <= 1e-10 * np.max(np.abs(gram))

    def test_explained_variance_non_increasing(self):
        cfg = small_cfg(manifold_grid_n=4, objective="envelope")
        _, _, explained, rank = manifold_export(cfg)
        assert np.all(np.diff(explained) <= 1e-15)
        assert rank >= len(explained)

    def test_export_shape_and_labels(self, tmp_path):
        cfg = small_cfg(manifold_grid_n=3)
        params, projected, explained, _ = manifold_export(cfg)
        assert params.shape[0] == 9
        assert projected.shape == (9, min(3, projected.shape[1]))
        path = tmp_path / "manifold.csv"
        write_manifold(params, projected, explained, cfg, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("E,nu,line_E,line_nu,pc1")
        assert len(lines) == 10

    # (objective, overrides): 16 nodes against 2048 phase lags or 4096
    # signal and envelope samples, and a tall grid of 289 nodes against the
    # 256 phase lags of n = 512
    SHAPES = [
        ("autocorr-phase", dict(material="PA6", seed=2, manifold_grid_n=4)),
        ("signal", dict(material="PA6", seed=2, manifold_grid_n=4)),
        ("envelope", dict(material="PA6", seed=2, manifold_grid_n=4)),
        ("autocorr-phase", dict(L=0.005, n=512, manifold_grid_n=17)),
    ]

    @staticmethod
    def centered_outputs(cfg):
        """The model outputs on the manifold grid, evaluated in one batch
        and centered."""
        _, _, nodes = bench._grid_nodes(cfg, cfg.manifold_grid_n)
        evaluate, _, _, _ = make_objective(cfg, mean_reference(cfg))
        outputs = -evaluate(nodes, False)[0]
        return outputs - outputs.mean(axis=0)

    @staticmethod
    def sign_normalized(scores):
        """Each column times the sign of its largest-magnitude entry, the
        first one on a tie."""
        largest = scores[np.abs(scores).argmax(axis=0), np.arange(scores.shape[1])]
        return scores * np.where(largest < 0.0, -1.0, 1.0)

    @staticmethod
    def read_manifold(path):
        """A manifold file's lines with every number parsed, the explained
        variances split out."""
        lines, explained = [], None
        for line in path.read_text().splitlines():
            if line.startswith("# explained_variance="):
                explained = [float(v) for v in line.split("=")[1].split(";")]
            elif line.startswith("#") or line.startswith("E,"):
                lines.append(line)
            else:
                lines.append([float(v) for v in line.split(",")])
        return lines, np.array(explained)

    @pytest.mark.parametrize("objective, overrides", SHAPES)
    def test_matches_wide_svd_reference(self, objective, overrides, tmp_path):
        cfg = small_cfg(objective=objective, **overrides)
        centered = self.centered_outputs(cfg)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        rank = int(np.sum(s > 1e-12 * s[0]))
        dim = min(cfg.manifold_dim, rank)
        scores = self.sign_normalized(centered @ vt[:dim].T)
        params, projected, explained, got_rank = manifold_export(cfg)
        assert got_rank == rank
        np.testing.assert_allclose(explained, s[:dim] ** 2 / np.sum(s**2), rtol=1e-12, atol=0)
        # the export's signs follow the data, not the SVD route
        assert np.array_equal(self.sign_normalized(projected), projected)
        # both routes write the same file, up to the last digits
        write_manifold(params, projected, explained, cfg, tmp_path / "qr.csv")
        write_manifold(params, scores, s[:dim] ** 2 / np.sum(s**2), cfg, tmp_path / "wide.csv")
        (qr_lines, qr_explained), (wide_lines, wide_explained) = map(
            self.read_manifold, (tmp_path / "qr.csv", tmp_path / "wide.csv")
        )
        np.testing.assert_allclose(qr_explained, wide_explained, rtol=1e-12, atol=0)
        assert [type(l) for l in qr_lines] == [type(l) for l in wide_lines]
        for qr, wide in zip(qr_lines, wide_lines):
            if isinstance(qr, str):
                assert qr == wide
            else:
                assert qr[:4] == wide[:4]
                np.testing.assert_allclose(qr[4:], wide[4:], rtol=0, atol=1e-10 * np.max(np.abs(scores)))

    # the scan workload's 81 nodes against 2048 lags, and the tall grid
    @pytest.mark.parametrize("objective, overrides", [("autocorr-phase", dict(manifold_grid_n=9)), SHAPES[-1]])
    def test_svd_takes_the_short_side(self, objective, overrides, monkeypatch):
        cfg = small_cfg(objective=objective, **overrides)
        short = min(self.centered_outputs(cfg).shape)
        shapes, svd = [], np.linalg.svd

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(bench.np.linalg, "svd", recorded)
        manifold_export(cfg)
        # the SVD's width sets the size of its right singular vectors
        assert shapes and max(shape[1] for shape in shapes) <= short, shapes


class TestReport:
    def test_report_aggregates_runs(self, tmp_path):
        cfg = small_cfg(n_refs=3)
        refs = gen_refs(cfg)
        write_refs(refs, cfg, tmp_path)
        lm = optimize_batch(cfg, refs)
        write_batch(lm, tmp_path)
        bf = optimize_batch(replace(cfg, optimizer="bfgs"), refs)
        write_batch(bf, tmp_path)
        summary = report(tmp_path, cfg)
        assert summary["modified-lm.n_runs"] == 3
        assert summary["bfgs.n_runs"] == 3
        hist = (tmp_path / "report" / "histogram.csv").read_text().splitlines()
        header = next(l for l in hist if l.startswith("evals"))
        assert header == "evals,count_bfgs,count_modified-lm"
        # conservation: histogram column sums equal success counts
        rows = [l.split(",") for l in hist if l and not l.startswith(("#", "evals"))]
        col_sums = [sum(int(r[i]) for r in rows) for i in (1, 2)]
        assert col_sums[1] == sum(r.success for r in lm.runs)
        assert col_sums[0] == sum(r.success for r in bf.runs)

    def test_empty_success_set(self, tmp_path):
        cfg = small_cfg(n_refs=2, eval_budget=1)
        refs = gen_refs(cfg)
        write_refs(refs, cfg, tmp_path)
        result = optimize_batch(cfg, refs)
        write_batch(result, tmp_path)
        summary = report(tmp_path, cfg)
        assert summary["modified-lm.success_rate"] == 0.0
        hist = (tmp_path / "report" / "histogram.csv").read_text().splitlines()
        data_rows = [l for l in hist if l and not l.startswith(("#", "evals"))]
        assert data_rows == []

    def test_report_without_runs_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            report(tmp_path, small_cfg())


class TestCli:
    def run_cli(self, *argv):
        return cli_main(list(argv))

    def test_full_pipeline(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("n_refs = 2\nseed = 3\nlhs_restarts = 5\neval_budget = 40\n")
        out = tmp_path / "out"
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "gen-refs") == 0
        assert (out / "refs" / "index.csv").exists()
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "optimize") == 0
        assert (out / "runs" / "modified-lm" / "runs_index.csv").exists()
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "report") == 0
        assert (out / "report" / "summary.txt").exists()
        assert "success_rate" in (out / "report" / "summary.txt").read_text()

    def test_surface_and_manifold_commands(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("grid_n = 5\nmanifold_grid_n = 3\nseed = 4\n")
        out = tmp_path / "out"
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "surface") == 0
        assert (out / "surface" / "surface_autocorr-phase.csv").exists()
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "manifold") == 0
        assert (out / "manifold" / "manifold_autocorr-phase.csv").exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("material = UNOBTAINIUM\n")
        assert self.run_cli("--config", str(cfg_file), "gen-refs") == 2

    def test_missing_refs_exits_2(self, tmp_path):
        assert self.run_cli("--out", str(tmp_path / "empty"), "optimize") == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("damping = 50", "[1, 10]"),
            ("damping = 0.5", "[1, 10]"),
            ("damping = 5", "largest usable damping for this grid is 745*(bT)^2/(n/2-1)^2 = 4.923"),
            ("n = 1000", "power of two"),
            ("max_iters = 0", "max_iters"),
            ("max_iters = 5", "unknown key 'max_iters'"),
            ("optimizer = scaled-gd", "unknown optimizer 'scaled-gd'; expected one of ('modified-lm', 'gauss-newton', 'bfgs')"),
            ("grid_n = 0", "grid_n must be at least 3"),
            ("seed = -1", "seed must be non-negative"),
            ("lhs_restarts = 0", "lhs_restarts must be at least 1"),
            ("n_refs = 4097", "n_refs must be at most 4096, got 4097"),
            ("n_refs = 100000000000", "n_refs must be at most 4096, got 100000000000"),
            ("fbar = inf", "finite L, fbar, dt > 0"),
            ("L = inf", "finite L, fbar, dt > 0"),
            ("dt = inf", "finite L, fbar, dt > 0"),
            ("tbar = inf", "finite tbar >= 0"),
            ("grid_sigmas = nan", "grid_sigmas must be finite and positive"),
            ("start_sigma = -1", "start_sigma must be finite and positive"),
            ("manifold_grid_n = 1", "manifold_grid_n must be at least 2"),
            ("manifold_dim = 0", "manifold_dim must be at least 1"),
            ("cutoff = inf", "success cutoff must be finite and positive"),
            ("fbar = 1e300", "must lie below the Nyquist frequency 2.4e+07 Hz"),
            ("tbar = 1e300", "tbar + 4 sigma = 1e+300 s exceeds n*dt = 8.53333e-05 s"),
            ("grid_sigmas = 1e300", "grid_sigmas = 1e+300 puts the grid end points beyond float range"),
        ],
    )
    def test_bad_value_exits_2_before_any_work(self, tmp_path, capsys, line, message):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"n_refs = 2\nlhs_restarts = 5\n{line}\n")
        out = tmp_path / "o"
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "gen-refs") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            (None, "No such file"),
            (["PEEK,E,1.0"], "priors.csv:14: expected 4 fields, found 3"),
            (["PEEK,E,-1.0,0.5"], "priors.csv:14: shape and scale must be positive and finite, got -1.0, 0.5"),
            (["PEEK,E,100.0,0"], "priors.csv:14: shape and scale must be positive and finite, got 100.0, 0.0"),
            (["PEEK,E,100.0,1e8"], "priors.csv:14: repeated row for PEEK E"),
            (["PEEK,Young,5,5"], "priors.csv:14: unknown parameter 'Young', expected one of rho, E, nu, G"),
        ],
        ids=["missing", "malformed-row", "negative-shape", "zero-scale", "repeated-row", "unknown-parameter"],
    )
    def test_bad_priors_file_exits_2_before_any_work(self, tmp_path, capsys, write_builtin_priors, rows, message):
        priors = tmp_path / "priors.csv"
        if rows is not None:
            write_builtin_priors(priors)
            priors.write_text(priors.read_text() + "\n".join(rows) + "\n")
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"grid_n = 5\npriors_file = {priors}\n")
        out = tmp_path / "o"
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "surface") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: priors_file: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        ["dt = 2.2e-8\nobjective = signal", "dt = 2.2e-8\nobjective = envelope", "dt = 2.2e-8", "n = 8192"],
        ids=["dt-signal", "dt-envelope", "dt-autocorr-phase", "n"],
    )
    def test_optimize_on_another_grid_exits_2_naming_the_reference(self, tmp_path, capsys, line):
        out = tmp_path / "out"
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("n_refs = 3\nlhs_restarts = 5\n")
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "gen-refs") == 0
        cfg_file.write_text(f"n_refs = 3\nlhs_restarts = 5\n{line}\n")
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "optimize") == 2
        assert "reference 0 is sampled at (n, dt) = (4096, 2.083333333e-08)" in capsys.readouterr().err
        assert not (out / "runs").exists()

    def test_optimize_within_the_grid_tolerance_exits_0(self, tmp_path):
        # the configured dt differs from the references' by a relative 1.6e-12
        out = tmp_path / "out"
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("n_refs = 3\nlhs_restarts = 5\neval_budget = 30\n")
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "gen-refs") == 0
        cfg_file.write_text("n_refs = 3\nlhs_restarts = 5\neval_budget = 30\ndt = 2.08333333333e-08\n")
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "optimize") == 0
        index = (out / "runs" / "modified-lm" / "runs_index.csv").read_text()
        assert ",error," not in index

    # (damaged file, {field index of its last row: new text, None to drop
    # the field} or None to delete the file, command, stderr pattern)
    DAMAGED = [
        ("refs/index.csv", {4: None}, "optimize", r"refs/index\.csv:6: expected 5 fields, found 4"),
        ("refs/index.csv", {2: "1.5"}, "optimize", r"refs/index\.csv:6: nu must lie in \(0, 0\.5\), got 1\.5"),
        ("refs/index.csv", {0: "0"}, "optimize", r"refs/index\.csv:6: repeated ref_id 0"),
        ("refs/ref_001.csv", None, "optimize", r"refs/index\.csv:6: \[Errno 2\] No such file .*refs/ref_001\.csv"),
        ("runs/modified-lm/runs_index.csv", {7: None}, "report", r"runs_index\.csv:7: expected 8 fields, found 7"),
        (
            "runs/modified-lm/runs_index.csv",
            {2: "1", 3: ""},
            "report",
            r"runs_index\.csv:7: success '1' must be 0 or 1 and agree with evals_to_success ''",
        ),
        (
            "runs/modified-lm/runs_index.csv",
            {2: "1", 3: "0"},
            "report",
            r"runs_index\.csv:7: evals_to_success must be at least 1, got 0",
        ),
        ("refs/ref_001.csv", {1: "x"}, "optimize", r"refs/ref_001\.csv:4100: could not convert string to float: 'x'"),
        ("refs/ref_001.csv", {1: "2.0,3.0"}, "optimize", r"refs/ref_001\.csv:4100: expected 2 fields, found 3"),
    ]

    @pytest.mark.parametrize(
        "name, damage, command, pattern",
        DAMAGED,
        ids=[
            "ragged-refs-row",
            "nu-1.5",
            "repeated-ref-id",
            "missing-ref",
            "ragged-runs-row",
            "success-without-evals",
            "zero-evals",
            "signal-not-a-number",
            "ragged-signal-row",
        ],
    )
    def test_damaged_input_exits_3_naming_file_and_line(self, tmp_path, capsys, name, damage, command, pattern):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("n_refs = 2\nlhs_restarts = 5\neval_budget = 10\n")
        out = tmp_path / "out"
        steps = ["gen-refs", "optimize", "report"]
        for step in steps[: steps.index(command)]:
            assert self.run_cli("--config", str(cfg_file), "--out", str(out), step) == 0
        path = out / name
        if damage is None:
            path.unlink()
        else:
            lines = path.read_text().splitlines()
            fields = lines[-1].split(",")
            for index, text in damage.items():
                if text is None:
                    del fields[index]
                else:
                    fields[index] = text
            path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
        capsys.readouterr()
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), command) == 3
        assert re.search(pattern, capsys.readouterr().err)

    EDGE_VALUES = ("0", "-1", "nan", "inf", "1e300", "0x10", "")

    @settings(max_examples=50, deadline=None)
    @example(values={"tbar": "1e300"})
    @example(values={"grid_sigmas": "1e300"})
    @given(
        values=st.dictionaries(
            st.sampled_from(sorted(f.name for f in fields(ExperimentConfig))),
            st.sampled_from(EDGE_VALUES),
            min_size=1,
            max_size=4,
        )
    )
    def test_edge_values_exit_0_2_or_3(self, values):
        # every subcommand on a small grid with 1-4 keys set to edge values:
        # an exception or warning that escapes cli.main is a defect
        lines = ["n_refs = 2", "lhs_restarts = 2", "eval_budget = 10", "grid_n = 5", "manifold_grid_n = 3"]
        lines += [f"{key} = {value}" for key, value in values.items()]
        with tempfile.TemporaryDirectory() as tmp:
            cfg_file = Path(tmp) / "exp.cfg"
            cfg_file.write_text("\n".join(lines) + "\n")
            for command in ("gen-refs", "optimize", "report", "surface", "manifold"):
                assert self.run_cli("--config", str(cfg_file), "--out", str(Path(tmp) / "out"), command) in (0, 2, 3)

    def test_priors_file_gives_the_builtin_prior(self, tmp_path, write_builtin_priors):
        priors = tmp_path / "priors.csv"
        write_builtin_priors(priors)
        for material in ("PEEK", "PA6", "PP"):
            cfg = small_cfg(material=material, priors_file=str(priors))
            assert cfg.prior() == BUILTIN_PRIORS[material]

    def test_optimize_prints_the_median_of_an_even_count(self, tmp_path, capsys, monkeypatch):
        cfg = small_cfg()
        truth = MaterialParams(E=4e9, nu=0.4, rho=1400.0)
        result = BenchResult(cfg=cfg)
        for i, evals in enumerate((3, 5, 8, 13)):
            trace = OptTrace(records=[OptRecord(k=0, x=truth.as_vector(), objective=0.0)])
            result.runs.append(RunResult(i, truth, trace, evals))
        monkeypatch.setattr(cli, "read_refs", lambda out: [])
        monkeypatch.setattr(cli, "optimize_batch", lambda cfg, refs: result)
        monkeypatch.setattr(cli, "write_batch", lambda result, out: None)
        assert self.run_cli("--out", str(tmp_path), "optimize") == 0
        assert "4/4 successful, median evals 6.5;" in capsys.readouterr().out

    def test_all_truncated_batch_exits_3(self, tmp_path):
        cfg_file = tmp_path / "trunc.cfg"
        cfg_file.write_text("n = 256\nn_refs = 2\n")  # window too short for any packet
        assert self.run_cli("--config", str(cfg_file), "--out", str(tmp_path / "o"), "gen-refs") == 3

    @pytest.mark.parametrize(
        "exc, code",
        [
            (ValueError("malformed row"), 3),
            (np.linalg.LinAlgError("singular"), 3),
            (OSError("disk full"), 3),
            (TypeError("synthetic programming error"), None),
            (KeyError("synthetic programming error"), None),
        ],
        ids=["ValueError", "LinAlgError", "OSError", "TypeError", "KeyError"],
    )
    def test_only_batch_failures_exit_3(self, tmp_path, monkeypatch, exc, code):
        def gen_refs(cfg):
            raise exc

        monkeypatch.setattr(cli, "gen_refs", gen_refs)
        if code is None:
            with pytest.raises(type(exc), match="synthetic programming error"):
                self.run_cli("--out", str(tmp_path), "gen-refs")
        else:
            assert self.run_cli("--out", str(tmp_path), "gen-refs") == code

    def test_eval_count_mismatch_propagates(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("n_refs = 1\nlhs_restarts = 5\n")
        out = tmp_path / "out"
        assert self.run_cli("--config", str(cfg_file), "--out", str(out), "gen-refs") == 0
        trace = OptTrace(records=[OptRecord(k=0, x=np.array([4e9, 0.4]), objective=0.0)])
        counter = EvalCounter()
        counter.add(2)
        monkeypatch.setattr(bench, "run_single", lambda cfg, ref, x0: (trace, counter))
        with pytest.raises(RuntimeError, match="trace counted 1 evaluations, model counted 2"):
            self.run_cli("--config", str(cfg_file), "--out", str(out), "optimize")

    def test_seed_flag_changes_outputs(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("n_refs = 1\nlhs_restarts = 5\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        self.run_cli("--config", str(cfg_file), "--out", str(out_a), "--seed", "1", "gen-refs")
        self.run_cli("--config", str(cfg_file), "--out", str(out_b), "--seed", "2", "gen-refs")
        a = (out_a / "refs" / "ref_000.csv").read_text()
        b = (out_b / "refs" / "ref_000.csv").read_text()
        assert a != b

    @pytest.mark.parametrize("optimizer", optim.METHODS)
    def test_pipeline_byte_identical_across_runs(self, tmp_path, optimizer):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"n_refs = 2\nseed = 5\nlhs_restarts = 5\neval_budget = 30\noptimizer = {optimizer}\n")
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            self.run_cli("--config", str(cfg_file), "--out", str(out), "gen-refs")
            self.run_cli("--config", str(cfg_file), "--out", str(out), "optimize")
            self.run_cli("--config", str(cfg_file), "--out", str(out), "report")
            blob = {}
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    blob[str(path.relative_to(out))] = path.read_bytes()
            outputs.append(blob)
        assert outputs[0].keys() == outputs[1].keys()
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"


class TestTracedIndirections:
    """perfbench/tracing.py times a call by rebinding the module global it
    goes through; a call that a refactor inlines, or binds at import time,
    would leave its span at zero calls."""

    def test_calls_go_through_the_module_globals(self, monkeypatch):
        cfg = small_cfg(n_refs=2)
        refs = gen_refs(cfg)
        calls = {"modified_lm_step": 0, "make_objective": 0, "phase_objective_terms": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(optim, "modified_lm_step")
        count(bench, "make_objective")
        count(bench, "phase_objective_terms")
        traces = [run.trace for run in optimize_batch(cfg, refs).runs]
        # each LM step is one optim.modified_lm_step call, each run_single
        # one bench.make_objective call, and each LM evaluation one
        # bench.phase_objective_terms call
        steps = sum(not np.isnan(rec.lambda_) for trace in traces for rec in trace.records)
        assert steps > 0 and all(trace.status != "error" for trace in traces)
        evaluations = sum(trace.eval_count for trace in traces)
        assert calls == {"modified_lm_step": steps, "make_objective": 2, "phase_objective_terms": evaluations}
        surface_scan(replace(cfg, grid_n=3), refs[0])
        assert calls["make_objective"] == 3

    def test_phase_spans_split_by_need_jacobian(self, monkeypatch):
        # perfbench/tracing.py names a phase evaluation's span from its
        # need_jacobian argument, read by keyword or at its position in
        # forward.phase_objective_terms' signature; a call that passes it
        # where the tracer does not look is timed under the wrong span
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        )
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        calls = []
        terms = bench.phase_objective_terms

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return terms(*args, **kwargs)

        def span_names():
            names = {tracing._span_name("forward.phase_objective_terms", args, kwargs) for args, kwargs in calls}
            calls.clear()
            return names

        monkeypatch.setattr(bench, "phase_objective_terms", recorded)
        cfg = small_cfg(n_refs=2)
        refs = gen_refs(cfg)
        surface_scan(replace(cfg, grid_n=3), refs[0])
        assert span_names() == {"forward.phase_eval"}
        result = optimize_batch(cfg, refs)
        assert all(run.trace.eval_count > 0 for run in result.runs)
        assert span_names() == {"forward.phase_eval_jac"}
