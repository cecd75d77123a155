"""Tests for the surrogate waveguide model and its analytic derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveinv import forward, signals
from waveinv.forward import (
    EvalCounter,
    ForwardConfig,
    MaterialParams,
    Materials,
    TruncationError,
    excitation,
    forward_jacobian,
    forward_response,
    packet_delays,
    phase_objective_gradient,
    phase_objective_terms,
    response_spectrum,
)
from waveinv.signals import (
    PhaseObjectiveConfig,
    PipelineError,
    damping_weights,
    envelope,
    phase_features,
    transform_pipeline,
)
from waveinv.stats import BUILTIN_PRIORS, MATERIALS

PEEK = MaterialParams(E=3.9559e9, nu=0.40079, rho=1400.3)


def objective_for(cfg):
    return PhaseObjectiveConfig(bandwidth_hz=cfg.b, damping=1.0)


class TestConfig:
    def test_bandwidth_default(self):
        cfg = ForwardConfig(fbar=2.0e6)
        assert cfg.b == pytest.approx(0.65 * 2.0e6)

    def test_explicit_bandwidth_kept(self):
        cfg = ForwardConfig(fbar=2.0e6, b=1.0e6)
        assert cfg.b == 1.0e6

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            ForwardConfig(n=1000)


class TestExcitation:
    def test_zero_crossing_at_center_for_integer_cycles(self):
        # fbar * tbar = 9 -> sin(2 pi fbar tbar) = 0
        cfg = ForwardConfig(fbar=3.0e6, tbar=3.0e-6, dt=1.0 / 48e6)
        s = excitation(cfg)
        idx = int(round(cfg.tbar / cfg.dt))
        assert abs(s.samples[idx]) <= 1e-9

    def test_amplitude_bounded_by_one(self):
        s = excitation(ForwardConfig())
        assert np.max(np.abs(s.samples)) <= 1.0

    def test_gaussian_factor_is_one_at_center(self):
        cfg = ForwardConfig()
        t = excitation(cfg).times()
        gauss = np.exp(-((t - cfg.tbar) ** 2) / (2 * cfg.sigma**2))
        assert gauss[int(round(cfg.tbar / cfg.dt))] == pytest.approx(1.0, abs=1e-6)


class TestWaveSpeeds:
    """The bar and shear speeds, read back from the primary and tertiary
    delays as c_L = L / tau_1 and c_T = L / tau_3."""

    @staticmethod
    def speeds(m):
        cfg = ForwardConfig()
        tau, _, _ = packet_delays(m, cfg)
        return cfg.L / tau[0], cfg.L / tau[2]

    def test_peek_reference_values(self):
        c_l, c_t = self.speeds(PEEK)
        assert c_l == pytest.approx(1680.7848, rel=1e-6)
        assert c_t == pytest.approx(1004.1777, rel=1e-6)

    def test_incompressible_limit(self):
        m = MaterialParams(E=1e9, nu=0.499999, rho=1000.0)
        c_l, c_t = self.speeds(m)
        assert c_t == pytest.approx(c_l / np.sqrt(3.0), rel=1e-5)

    def test_density_scaling(self):
        m1 = MaterialParams(E=2e9, nu=0.3, rho=900.0)
        m2 = MaterialParams(E=2e9, nu=0.3, rho=1800.0)
        c1 = self.speeds(m1)
        c2 = self.speeds(m2)
        assert c2[0] == pytest.approx(c1[0] / np.sqrt(2), rel=1e-12)
        assert c2[1] == pytest.approx(c1[1] / np.sqrt(2), rel=1e-12)

    def test_shear_always_slower(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = MaterialParams(
                E=rng.uniform(0.1e9, 10e9), nu=rng.uniform(0.01, 0.49), rho=rng.uniform(800, 2000)
            )
            c_l, c_t = self.speeds(m)
            assert c_t < c_l


class TestPacketDelays:
    def test_causal_order(self):
        rng = np.random.default_rng(1)
        cfg = ForwardConfig()
        for _ in range(50):
            m = MaterialParams(
                E=rng.uniform(0.1e9, 10e9), nu=rng.uniform(0.01, 0.49), rho=rng.uniform(800, 2000)
            )
            tau, _, _ = packet_delays(m, cfg)
            assert tau[0] < tau[1] < tau[2]

    def test_primary_delay_nu_free(self):
        cfg = ForwardConfig()
        _, _, dtau_dnu = packet_delays(PEEK, cfg)
        assert dtau_dnu[0] == 0.0

    def test_primary_delay_modulus_derivative(self):
        cfg = ForwardConfig()
        tau, dtau_de, _ = packet_delays(PEEK, cfg)
        assert dtau_de[0] == pytest.approx(-tau[0] / (2 * PEEK.E), rel=1e-12)
        assert dtau_de[0] < 0.0

    def test_delay_derivatives_match_finite_differences(self):
        cfg = ForwardConfig()
        h_e = PEEK.E * 1e-6
        h_n = PEEK.nu * 1e-6
        tau_ep, _, _ = packet_delays(MaterialParams(PEEK.E + h_e, PEEK.nu, PEEK.rho), cfg)
        tau_em, _, _ = packet_delays(MaterialParams(PEEK.E - h_e, PEEK.nu, PEEK.rho), cfg)
        tau_np, _, _ = packet_delays(MaterialParams(PEEK.E, PEEK.nu + h_n, PEEK.rho), cfg)
        tau_nm, _, _ = packet_delays(MaterialParams(PEEK.E, PEEK.nu - h_n, PEEK.rho), cfg)
        _, dtau_de, dtau_dnu = packet_delays(PEEK, cfg)
        np.testing.assert_allclose((tau_ep - tau_em) / (2 * h_e), dtau_de, rtol=1e-6)
        np.testing.assert_allclose((tau_np - tau_nm) / (2 * h_n), dtau_dnu, rtol=1e-6)


class TestForwardResponse:
    def test_single_packet_is_delayed_excitation(self):
        cfg = ForwardConfig(amplitudes=(1.0, 0.0, 0.0))
        out = forward_response(PEEK, cfg)
        p = excitation(cfg)
        tau, _, _ = packet_delays(PEEK, cfg)
        xc = np.correlate(out.samples, p.samples, mode="full")
        lag = int(np.argmax(xc)) - (cfg.n - 1)
        assert lag == round(tau[0] / cfg.dt)

    def test_primary_packet_nu_insensitive(self):
        cfg = ForwardConfig(amplitudes=(1.0, 0.0, 0.0))
        a = forward_response(PEEK, cfg).samples
        b = forward_response(MaterialParams(PEEK.E, 0.30, PEEK.rho), cfg).samples
        np.testing.assert_array_equal(a, b)

    def test_linear_in_packet_amplitudes(self):
        cfg = ForwardConfig()
        scaled = ForwardConfig(amplitudes=tuple(3.0 * a for a in cfg.amplitudes))
        y1 = forward_response(PEEK, cfg).samples
        y3 = forward_response(PEEK, scaled).samples
        np.testing.assert_allclose(y3, 3.0 * y1, atol=1e-12 * np.max(np.abs(y1)))

    def test_default_packet_amplitude_ratios(self):
        cfg = ForwardConfig()
        out = forward_response(PEEK, cfg)
        env = envelope(out).samples
        t = out.times()
        tau, _, _ = packet_delays(PEEK, cfg)
        peaks = []
        for tj in tau:
            window = np.abs(t - (cfg.tbar + tj)) <= 1.0e-6
            peaks.append(env[window].max())
        assert peaks[1] / peaks[0] == pytest.approx(0.4, rel=0.05)
        assert peaks[2] / peaks[0] == pytest.approx(0.2, rel=0.05)

    def test_truncation_rejected(self):
        cfg = ForwardConfig(n=256, dt=6.25e-8)  # 16 us window, packets near 20 us
        with pytest.raises(TruncationError):
            forward_response(PEEK, cfg)

    def test_signal_matches_spectrum(self):
        cfg = ForwardConfig()
        y, _ = response_spectrum(PEEK, cfg)
        np.testing.assert_allclose(forward_response(PEEK, cfg).samples, np.fft.irfft(y, n=cfg.n), atol=1e-15)

    def test_counter_increments_once(self):
        counter = EvalCounter()
        cfg = ForwardConfig()
        forward_response(PEEK, cfg, counter=counter)
        assert counter.count == 1
        forward_jacobian(PEEK, cfg)  # shares the pass: no increment
        assert counter.count == 1
        response_spectrum(PEEK, cfg, counter=counter, need_jacobian=True)
        assert counter.count == 2

    @pytest.mark.parametrize("amplitudes", [(np.nan, 0.4, 0.2), (1.0, np.inf, 0.2)])
    def test_non_finite_response_rejected(self, amplitudes):
        cfg = ForwardConfig(amplitudes=amplitudes)
        counter = EvalCounter()
        with np.errstate(invalid="ignore"):
            for need_jacobian in (False, True):
                with pytest.raises(ValueError, match="not finite"):
                    response_spectrum(PEEK, cfg, counter, need_jacobian)
            with pytest.raises(ValueError):
                forward_response(PEEK, cfg, counter)
        assert counter.count == 0


class TestForwardJacobian:
    def fd_columns(self, cfg, rel=1e-6):
        cols = []
        for i in range(2):
            x = [PEEK.E, PEEK.nu]
            h = rel * abs(x[i])
            xp = list(x)
            xm = list(x)
            xp[i] += h
            xm[i] -= h
            yp = forward_response(MaterialParams(xp[0], xp[1], PEEK.rho), cfg).samples
            ym = forward_response(MaterialParams(xm[0], xm[1], PEEK.rho), cfg).samples
            cols.append((yp - ym) / (2 * h))
        return cols

    def test_matches_central_differences(self):
        cfg = ForwardConfig()
        d_e, d_nu = forward_jacobian(PEEK, cfg)
        fd_e, fd_nu = self.fd_columns(cfg)
        assert np.max(np.abs(d_e.samples - fd_e)) <= 1e-5 * np.max(np.abs(d_e.samples))
        assert np.max(np.abs(d_nu.samples - fd_nu)) <= 1e-5 * np.max(np.abs(d_nu.samples))

    def test_nu_column_vanishes_for_primary_only(self):
        cfg = ForwardConfig(amplitudes=(1.0, 0.0, 0.0))
        _, d_nu = forward_jacobian(PEEK, cfg)
        assert np.max(np.abs(d_nu.samples)) == 0.0


class TestResidualJacobian:
    def setup_method(self):
        self.cfg = ForwardConfig()
        self.obj = objective_for(self.cfg)
        truth = MaterialParams(PEEK.E * 1.02, PEEK.nu * 0.995, PEEK.rho)
        self.ref = transform_pipeline(forward_response(truth, self.cfg), self.obj)

    def feature_at(self, m):
        return transform_pipeline(forward_response(m, self.cfg), self.obj).values

    def test_matches_pipeline_finite_differences(self):
        jac = -phase_objective_terms(PEEK, self.cfg, self.obj, self.ref)[1]
        fd = []
        for i in range(2):
            x = [PEEK.E, PEEK.nu]
            h = 1e-6 * abs(x[i])
            xp = list(x)
            xm = list(x)
            xp[i] += h
            xm[i] -= h
            df = (
                self.feature_at(MaterialParams(xp[0], xp[1], PEEK.rho))
                - self.feature_at(MaterialParams(xm[0], xm[1], PEEK.rho))
            ) / (2 * h)
            fd.append(-df)  # residual = ref - sim
        fd = np.column_stack(fd)
        assert np.max(np.abs(jac - fd)) <= 1e-4 * np.max(np.abs(fd))

    # small grids with the packets moved early enough to fit the short record
    EDGE_GRIDS = {256: dict(L=0.002, tbar=1e-6), 512: dict(L=0.005, tbar=1e-6), 4096: {}}

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from(sorted(EDGE_GRIDS)),
        largest_damping=st.booleans(),
        scale=st.tuples(st.floats(0.95, 1.05), st.floats(0.95, 1.05)),
    )
    def test_matches_central_differences_at_edge_configurations(self, n, largest_damping, scale):
        # the largest usable damping puts gamma at the last lag near exp(-745)
        cfg = ForwardConfig(n=n, **self.EDGE_GRIDS[n])
        damping = 745.0 * (cfg.b * cfg.duration) ** 2 / (n // 2 - 1) ** 2 if largest_damping else 1.0
        obj = PhaseObjectiveConfig(bandwidth_hz=cfg.b, damping=damping)
        x = np.array([PEEK.E * scale[0], PEEK.nu * scale[1]])
        truth = MaterialParams(x[0] * 1.01, x[1] * 0.995, PEEK.rho)
        ref = transform_pipeline(forward_response(truth, cfg), obj)
        _, dsim = phase_objective_terms(MaterialParams(x[0], x[1], PEEK.rho), cfg, obj, ref)
        for i in range(2):
            h = np.zeros(2)
            h[i] = 1e-6 * x[i]
            rp, _ = phase_objective_terms(MaterialParams(*(x + h), PEEK.rho), cfg, obj, ref, need_jacobian=False)
            rm, _ = phase_objective_terms(MaterialParams(*(x - h), PEEK.rho), cfg, obj, ref, need_jacobian=False)
            fd = -(rp - rm) / (2 * h[i])  # residual = ref - sim
            assert np.max(np.abs(dsim[:, i] - fd)) <= 1e-5 * np.max(np.abs(fd))

    def test_amplitude_scaling_leaves_jacobian_unchanged(self):
        cfg2 = ForwardConfig(amplitudes=tuple(2.0 * a for a in self.cfg.amplitudes))
        ref2 = transform_pipeline(forward_response(PEEK, cfg2), self.obj)
        j1 = -phase_objective_terms(PEEK, self.cfg, self.obj, self.ref)[1]
        j2 = -phase_objective_terms(PEEK, cfg2, self.obj, ref2)[1]
        assert np.max(np.abs(j1 - j2)) <= 1e-9 * np.max(np.abs(j1))

    def test_deterministic(self):
        j1 = -phase_objective_terms(PEEK, self.cfg, self.obj, self.ref)[1]
        j2 = -phase_objective_terms(PEEK, self.cfg, self.obj, self.ref)[1]
        assert np.array_equal(j1, j2)

    def test_counts_one_evaluation(self):
        counter = EvalCounter()
        phase_objective_terms(PEEK, self.cfg, self.obj, self.ref, counter=counter)
        assert counter.count == 1

    def test_zero_coefficient_at_undamped_index_flagged(self):
        # crafted spectrum: single nonzero coefficient makes every lag > 0 zero
        y = np.zeros(9, dtype=complex)
        y[3] = 1.0 + 0.5j
        dy = np.ones_like(y)
        with pytest.raises(PipelineError):
            phase_features(y, 1.0, PhaseObjectiveConfig(bandwidth_hz=1e6), dy[None, :])

    def test_residual_against_reference_feature(self):
        r, jac = phase_objective_terms(PEEK, self.cfg, self.obj, self.ref)
        sim = self.feature_at(PEEK)
        np.testing.assert_allclose(r, self.ref.values - sim, atol=1e-12)
        assert jac.shape == (r.size, 2)


class TestPhaseKernelCost:
    """Work per evaluation, counted by call (no timing)."""

    def test_fft_and_excitation_calls_per_evaluation(self, monkeypatch):
        cfg = ForwardConfig()
        obj = objective_for(cfg)
        ref = transform_pipeline(forward_response(PEEK, cfg), obj)
        calls = {"fft": 0, "excitation": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "fft"))
        monkeypatch.setattr(forward, "excitation", counted(forward.excitation, "excitation"))
        forward._excitation_spectrum.cache_clear()

        phase_objective_terms(PEEK, cfg, obj, ref)
        assert calls["excitation"] == 1
        calls["fft"] = 0
        _, jac = phase_objective_terms(PEEK, cfg, obj, ref)
        assert jac.shape == (cfg.n // 2, 2)
        assert calls["fft"] <= 4
        assert calls["excitation"] == 1  # served from the cache

    def test_gradient_makes_four_single_row_ffts(self, monkeypatch):
        # the forward pass's fft(V) and rfft(|fft(V)|^2), then the reverse
        # pass's irfft and fft, each on one row; no dY is built
        cfg = ForwardConfig()
        obj = objective_for(cfg)
        ref = transform_pipeline(forward_response(PEEK, cfg), obj)
        rows = []

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                rows.append(np.ndim(a))
                return fn(a, *args, **kwargs)

            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        response, asked = forward._response, []

        def recorded(m, cfg, counter, need_jacobian):
            asked.append(need_jacobian)
            return response(m, cfg, counter, need_jacobian)

        monkeypatch.setattr(forward, "_response", recorded)
        phase_objective_gradient(PEEK, cfg, obj, ref)
        assert rows == [1, 1, 1, 1]
        assert asked == [False]

    def test_cached_arrays_are_read_only(self):
        cfg = ForwardConfig()
        cached = forward._excitation_spectrum(cfg)
        assert forward._excitation_spectrum(ForwardConfig()) is cached
        obj = objective_for(cfg)
        gamma = damping_weights(cfg.n // 2, obj.bandwidth_hz, cfg.duration, obj.damping)
        assert damping_weights(cfg.n // 2, obj.bandwidth_hz, cfg.duration, obj.damping) is gamma
        for array in (*cached, gamma):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestCarrierTables:
    @pytest.mark.parametrize("material", MATERIALS)
    def test_tables_match_direct_exponentials(self, material):
        # over the +-2 sigma prior box, the factored carriers stay within
        # 1e-11 rad of exp(-i tau omega) evaluated directly
        cfg = ForwardConfig()
        omega = 2 * np.pi * np.arange(cfg.n // 2 + 1) / cfg.duration
        prior = BUILTIN_PRIORS[material]
        (e_mean, nu_mean), (e_std, nu_std) = prior.mean_params_si(), prior.std_params_si()
        for e in np.linspace(e_mean - 2 * e_std, e_mean + 2 * e_std, 5):
            for nu in np.linspace(nu_mean - 2 * nu_std, nu_mean + 2 * nu_std, 5):
                tau, _, _ = packet_delays(MaterialParams(e, nu, prior.rho_si()), cfg)
                coarse, fine = forward._carrier_tables(tau, cfg)
                table = (coarse[:, :, None] * fine[:, None, :]).reshape(3, -1)[:, : omega.size]
                direct = np.exp(-1j * np.outer(tau, omega))
                assert np.max(np.abs(np.angle(table * np.conj(direct)))) <= 1e-11
                assert np.max(np.abs(np.abs(table) - 1.0)) <= 1e-12

    def test_response_spectrum_matches_direct_sum(self):
        cfg = ForwardConfig()
        tau, dtau_de, dtau_dnu = packet_delays(PEEK, cfg)
        p_spec = np.fft.rfft(excitation(cfg).samples)
        omega = 2 * np.pi * np.arange(p_spec.size) / cfg.duration
        carriers = np.exp(-1j * np.outer(tau, omega))
        a = np.asarray(cfg.amplitudes)
        want = [p_spec * (a @ carriers)]
        for dtau in (dtau_de, dtau_dnu):
            want.append(p_spec * ((a * dtau) @ (-1j * omega * carriers)))
        y, dy = response_spectrum(PEEK, cfg, need_jacobian=True)
        for got, ref in zip((y, dy[0], dy[1]), want):
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestPullbacks:
    """The reverse passes pair a weight vector with the derivatives the
    forward-mode path builds explicitly."""

    def test_response_pullback_pairs_with_the_jacobian_rows(self):
        cfg = ForwardConfig()
        _, dy = response_spectrum(PEEK, cfg, need_jacobian=True)
        _, _, tape = forward._response(PEEK, cfg, None, need_jacobian=False)
        rng = np.random.default_rng(2)
        for _ in range(5):
            w = rng.standard_normal(dy.shape[-1]) + 1j * rng.standard_normal(dy.shape[-1])
            want = (dy @ w).real
            got = forward._response_pullback(tape, w, cfg)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(dy)) * np.sum(np.abs(w))

    def test_phase_pullback_pairs_with_the_feature_derivatives(self):
        obj = PhaseObjectiveConfig(bandwidth_hz=700.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            coeffs = rng.standard_normal(1025) + 1j * rng.standard_normal(1025)
            dcoeffs = rng.standard_normal((2, 1025)) + 1j * rng.standard_normal((2, 1025))
            u = rng.standard_normal(1024)
            _, dvalues = phase_features(coeffs, 1.0, obj, dcoeffs)
            _, _, tape = signals._phase_forward(coeffs, 1.0, obj)
            w = signals._phase_pullback(tape, u)
            np.testing.assert_allclose((dcoeffs @ w).real, u @ dvalues, rtol=1e-10)


class TestBatch:
    """A batch of materials is rows of single evaluations, bit for bit."""

    def rows(self, count=7, seed=3):
        rng = np.random.default_rng(seed)
        return PEEK.as_vector() * (1.0 + 0.05 * rng.standard_normal((count, 2)))

    def test_delays_and_spectra_are_the_single_rows(self):
        cfg = ForwardConfig()
        x = self.rows()
        batch = Materials(x, PEEK.rho)
        for got, want in zip(packet_delays(batch, cfg), zip(*(packet_delays(MaterialParams(*row, PEEK.rho), cfg) for row in x))):
            assert got.tobytes() == np.array(want).tobytes()
        for need_jacobian in (False, True):
            counter = EvalCounter()
            y, dy = response_spectrum(batch, cfg, counter, need_jacobian)
            assert counter.count == len(x)
            for i, row in enumerate(x):
                y1, dy1 = response_spectrum(Materials(row, PEEK.rho), cfg, need_jacobian=need_jacobian)
                assert y[i].tobytes() == y1.tobytes()
                assert dy is None and dy1 is None or dy[i].tobytes() == dy1.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        e=st.floats(1e-300, 1e300),
        nu=st.floats(1e-9, 0.5, exclude_max=True),
        rho=st.floats(1e-3, 1e6),
    )
    def test_delays_are_the_vectorized_formula(self, e, nu, rho):
        # the Python-float rows give the bits of the array formula, operation
        # for operation, so the responses built on them do not move
        cfg = ForwardConfig()
        x = np.array([[e, nu]])
        with np.errstate(over="ignore", under="ignore"):  # Python floats overflow silently too
            c_l = np.sqrt(x[:, :1] / rho)
            c_t = c_l / np.sqrt(2.0 * (1.0 + x[:, 1:]))
            speeds = np.concatenate([c_l, c_l, c_t], axis=-1)
            tau = cfg.L / speeds
            tau[:, 1] = 0.5 * cfg.L * (1.0 / c_l[:, 0] + 1.0 / c_t[:, 0])
            dtau_de = -tau / (2.0 * x[:, :1])
            dtau_dnu = np.array([0.0, 0.5 * cfg.L, cfg.L]) / c_t / (2.0 * (1.0 + x[:, 1:]))
        for got, want in zip(packet_delays(Materials(x, rho), cfg), (tau, dtau_de, dtau_dnu)):
            assert got.tobytes() == want.tobytes()

    def test_delays_outside_the_domain_are_nan(self):
        cfg = ForwardConfig()
        x = np.array(
            [PEEK.as_vector(), [PEEK.E, 0.5], [PEEK.E, 0.0], [0.0, PEEK.nu], [-PEEK.E, PEEK.nu], [np.inf, PEEK.nu], [np.nan, PEEK.nu]]
        )
        for values in packet_delays(Materials(x, PEEK.rho), cfg):
            assert np.isfinite(values[0]).all() and np.isnan(values[1:]).all()

    def test_density_must_be_positive_and_finite(self):
        for rho in (0.0, -PEEK.rho, np.inf, np.nan):
            with pytest.raises(ValueError, match="rho"):
                Materials(PEEK.as_vector(), rho)

    def test_vanishing_speed_is_a_truncated_window(self):
        # E / rho underflows to zero: the packets never arrive
        m = Materials(np.array([1e-321, PEEK.nu]), PEEK.rho)
        tau, _, _ = packet_delays(m, ForwardConfig())
        assert (tau == np.inf).all()
        with pytest.raises(TruncationError):
            response_spectrum(m, ForwardConfig())

    def test_rows_without_model_output_are_nan_and_uncounted(self):
        # (E, nu) outside the domain, and a window that cuts the slow packets
        # of soft materials: a single material raises, a batch masks its row
        cfg = ForwardConfig(n=1024, dt=2.36e-5 / 1024)
        x = np.array([[PEEK.E, 0.6], [-PEEK.E, PEEK.nu], [1.2 * PEEK.E, PEEK.nu], [0.8 * PEEK.E, PEEK.nu]])
        counter = EvalCounter()
        y, dy = response_spectrum(Materials(x, PEEK.rho), cfg, counter, need_jacobian=True)
        assert counter.count == 1
        assert np.isnan(y[[0, 1, 3]]).all() and np.isnan(dy[[0, 1, 3]]).all()
        y1, dy1 = response_spectrum(Materials(x[2], PEEK.rho), cfg, need_jacobian=True)
        assert y[2].tobytes() == y1.tobytes() and dy[2].tobytes() == dy1.tobytes()
        for row, error in ((x[0], ValueError), (x[1], ValueError), (x[3], TruncationError)):
            with pytest.raises(error):
                response_spectrum(Materials(row, PEEK.rho), cfg, counter)
        assert counter.count == 1

    def test_phase_terms_are_the_single_rows(self):
        cfg = ForwardConfig()
        obj = objective_for(cfg)
        ref = transform_pipeline(forward_response(PEEK, cfg), obj)
        x = self.rows()
        r, jac = phase_objective_terms(Materials(x, PEEK.rho), cfg, obj, ref)
        assert r.shape == (len(x), cfg.n // 2) and jac.shape == (len(x), cfg.n // 2, 2)
        for i, row in enumerate(x):
            r1, jac1 = phase_objective_terms(MaterialParams(*row, PEEK.rho), cfg, obj, ref)
            assert r[i].tobytes() == r1.tobytes()
            assert jac[i].tobytes() == jac1.tobytes()

    def test_degenerate_rows_are_nan(self):
        # a zero spectrum row, and a row whose only nonzero coefficient makes
        # every lag > 0 zero: singular phase derivative at undamped lags
        obj = PhaseObjectiveConfig(bandwidth_hz=1e6)
        rng = np.random.default_rng(4)
        y = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
        y[0] = 0.0
        y[1] = 0.0
        y[1, 3] = 1.0 + 0.5j
        dy = np.ones((3, 2, 9), dtype=complex)
        values, dvalues = phase_features(y, 1.0, obj, dy)
        assert np.isnan(values[:2]).all() and np.isnan(dvalues[:2]).all()
        v2, dv2 = phase_features(y[2], 1.0, obj, dy[2])
        assert values[2].tobytes() == v2.tobytes() and dvalues[2].tobytes() == dv2.tobytes()
        plain, _ = phase_features(y, 1.0, obj)
        assert np.isnan(plain[0]).all() and np.isfinite(plain[1:]).all()
