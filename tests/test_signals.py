"""Tests for the signal types, envelope machinery, and phase-residual transform."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from waveinv import bench, signals
from waveinv.forward import ForwardConfig, phase_objective_terms, response_spectrum
from waveinv.signals import (
    PipelineError,
    Signal,
    analytic_signal,
    damping_weights,
    envelope,
    phase_features,
    read_signal_csv,
    transform_pipeline,
    unwrap,
    write_signal_csv,
)


def packet_signal(n=4096, fbar=1e6, tbar=3e-6, b=0.65e6, oversample=16):
    """Sine carrier under a Gaussian: the canonical excitation wave packet."""
    dt = 1.0 / (oversample * fbar)
    t = np.arange(n) * dt
    sigma = 1.0 / (np.pi * b)
    return Signal(np.sin(2 * np.pi * fbar * t) * np.exp(-((t - tbar) ** 2) / (2 * sigma**2)), dt=dt)


def packet_weights(s, b=0.65e6, c=1.0):
    """The phase objective's damping weights on the grid of signal s."""
    return damping_weights(s.n // 2, b, s.duration, c)


def bandlimited_noise(n, rng):
    """Random zero-mean signal with no static or Nyquist-bin energy."""
    coeffs = np.zeros(n // 2 + 1, dtype=complex)
    coeffs[1 : n // 2] = rng.standard_normal(n // 2 - 1) + 1j * rng.standard_normal(n // 2 - 1)
    return Signal(np.fft.irfft(coeffs), dt=1.0 / n)


class TestSignalType:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(12), dt=1.0)

    def test_rejects_short_and_bad_dt(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(1), dt=1.0)
        with pytest.raises(ValueError):
            Signal(np.zeros(4), dt=0.0)

    def test_duration(self):
        s = Signal(np.zeros(8), dt=0.25)
        assert s.duration == 2.0
        assert s.n == 8

    def test_samples_immutable(self):
        s = Signal(np.zeros(4), dt=1.0)
        with pytest.raises(ValueError):
            s.samples[0] = 1.0


class TestDft:
    """The one-sided DFT conventions the phase transform relies on: numpy's
    rfft of a signal's samples, raw (unnormalized), on the df = 1/T grid."""

    def test_impulse_has_flat_spectrum(self):
        coeffs = np.fft.rfft(Signal(np.array([1.0, 0.0, 0.0, 0.0]), dt=1.0).samples)
        np.testing.assert_allclose(coeffs, [1.0, 1.0, 1.0], atol=1e-15)

    def test_zero_signal(self):
        assert np.all(np.fft.rfft(Signal(np.zeros(8), dt=1.0).samples) == 0.0)

    def test_round_trip(self):
        # raw coefficients on the df = 1/T grid: irfft over n samples and
        # dt = 1/(n df) recover the record, as mean_reference relies on
        rng = np.random.default_rng(1)
        s = Signal(rng.standard_normal(256), dt=2e-3)
        back = np.fft.irfft(np.fft.rfft(s.samples), s.n)
        assert np.max(np.abs(back - s.samples)) <= 1e-12 * np.max(np.abs(s.samples))
        assert s.duration / s.n == pytest.approx(s.dt, rel=1e-14)

    def test_parseval(self):
        # oracle: direct time-domain sum of squares
        rng = np.random.default_rng(2)
        s = Signal(rng.standard_normal(1024), dt=1e-4)
        c = np.fft.rfft(s.samples)
        n = s.n
        spectral = (np.abs(c[0]) ** 2 + 2 * np.sum(np.abs(c[1 : n // 2]) ** 2) + np.abs(c[n // 2]) ** 2) / n
        direct = np.sum(s.samples**2)
        assert abs(spectral - direct) <= 1e-10 * direct

    def test_dc_coefficient_real(self):
        rng = np.random.default_rng(3)
        assert np.fft.rfft(Signal(rng.standard_normal(64), dt=1.0).samples)[0].imag == 0.0


class TestAnalyticSignal:
    def test_cosine_becomes_complex_exponential(self):
        n, k = 256, 5
        t = np.arange(n) / n
        a = analytic_signal(Signal(np.cos(2 * np.pi * k * t), dt=1.0 / n))
        assert np.max(np.abs(a - np.exp(2j * np.pi * k * t))) <= 1e-10

    def test_sine(self):
        n, k = 256, 9
        t = np.arange(n) / n
        a = analytic_signal(Signal(np.sin(2 * np.pi * k * t), dt=1.0 / n))
        assert np.max(np.abs(a - (-1j) * np.exp(2j * np.pi * k * t))) <= 1e-10

    def test_real_part_is_demeaned_input(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(128) + 0.7
        a = analytic_signal(Signal(u, dt=1.0))
        demeaned = u - u.mean()
        assert np.max(np.abs(a.real - demeaned)) <= 1e-12 * np.max(np.abs(demeaned))


class TestAnalyticFromSpectrum:
    @pytest.mark.parametrize("n", [16, 256, 4096])
    def test_matches_full_complex_fft(self, n):
        # reference: demean, full fft, weights [1, 2, ..., 2, 1, 0, ..., 0]
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n) + 0.3
        w = np.zeros(n)
        w[0] = 1.0
        w[1 : n // 2] = 2.0
        w[n // 2] = 1.0
        want = np.fft.ifft(np.fft.fft(u - u.mean()) * w)
        got = analytic_signal(Signal(u, dt=1.0))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        demeaned = u - u.mean()
        assert np.max(np.abs(got.real - demeaned)) <= 1e-13 * np.max(np.abs(demeaned))

    def test_rows_are_transformed_independently(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((3, 64))
        stacked = signals._analytic(np.fft.rfft(u, axis=-1), 64).copy()
        for row, samples in zip(stacked, u):
            np.testing.assert_array_equal(row, analytic_signal(Signal(samples, dt=1.0)))

    def test_weights_are_cached_and_read_only(self):
        from waveinv.signals import _analytic_weights

        w = _analytic_weights(8)
        assert _analytic_weights(8) is w
        np.testing.assert_array_equal(w, [0.0, 2.0, 2.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            w[0] = 1.0

    def test_analytic_signal_is_the_spectrum_form(self):
        u = np.random.default_rng(5).standard_normal(128)
        np.testing.assert_array_equal(
            analytic_signal(Signal(u, dt=1.0)), signals._analytic(np.fft.rfft(u), 128)
        )


class TestEnvelope:
    def test_constant_amplitude_cosine(self):
        n, k, amp = 512, 6, 2.5
        t = np.arange(n) / n
        e = envelope(Signal(amp * np.cos(2 * np.pi * k * t), dt=1.0 / n))
        interior = e.samples[n // 8 : -n // 8]
        assert np.max(np.abs(interior - amp)) <= 1e-9

    def test_wave_packet_envelope_matches_gaussian(self):
        # closed-form Gaussian as oracle, within 2% of peak on |t - tbar| <= 2 sigma
        s = packet_signal()
        sigma = 1.0 / (np.pi * 0.65e6)
        t = np.arange(s.n) * s.dt
        gauss = np.exp(-((t - 3e-6) ** 2) / (2 * sigma**2))
        mask = np.abs(t - 3e-6) <= 2 * sigma
        dev = np.abs(envelope(s).samples[mask] - gauss[mask])
        assert np.max(dev) <= 0.02 * np.max(gauss)

    def test_zero_signal(self):
        e = envelope(Signal(np.zeros(16), dt=1.0))
        assert np.all(e.samples == 0.0)

    def test_sign_invariance(self):
        s = packet_signal(n=1024)
        flipped = Signal(-s.samples, dt=s.dt)
        np.testing.assert_allclose(envelope(s).samples, envelope(flipped).samples, atol=1e-12)


def autocorr(v):
    """The phase kernel's first stage, the positive-lag autocorrelation of
    v, copied out of its scratch array."""
    return signals._autocorr(np.asarray(v, dtype=complex))[0].copy()


class TestAutocorrSpectrum:
    def test_hand_example(self):
        np.testing.assert_allclose(autocorr([1.0, 1.0j]), [2.0, 1.0j], atol=1e-15)

    def test_single_coefficient(self):
        np.testing.assert_allclose(autocorr([3.0 - 4.0j]), [25.0], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty spectrum"):
            autocorr([])

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        got = autocorr(v)
        want = np.array([np.sum(v[k:] * np.conj(v[: v.size - k])) for k in range(v.size)])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_lag_real_and_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
            e = autocorr(v)
            assert e[0].imag == 0.0
            assert e[0].real > 0.0

    @pytest.mark.parametrize("n", [256, 1024])
    def test_squared_envelope_identity(self, n):
        # One-sided DFT of envelope^2 equals the positive-frequency
        # autocorrelation up to the discrete convolution factor 4/n.
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = bandlimited_noise(n, rng)
            e2 = envelope(s).samples ** 2
            lhs = np.fft.rfft(e2)[: n // 2]
            rhs = (4.0 / n) * autocorr(np.fft.rfft(s.samples)[1:])
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(lhs))


def fresh_unwrap(phases):
    """unwrap's formula on fresh arrays, without out=: the same float
    operations in the same order, so the same bits."""
    d = np.diff(phases, axis=-1)
    d = d - 2.0 * np.pi * np.ceil((d - np.pi) / (2.0 * np.pi))
    return np.concatenate([phases[..., :1], np.cumsum(d, axis=-1) + phases[..., :1]], axis=-1)


def fresh_phase_features(coeffs, gamma, dcoeffs=None):
    """phase_features transcribed on fresh arrays, without out= or shared
    storage: the same float operations in the same order, so the same bits.
    A kernel temporary that is written over before it is read for the last
    time shows here, where a batch-against-single test would share the
    fault on both sides."""
    v = coeffs[..., 1:]
    m = v.shape[-1]
    size = 1 << (2 * m - 1).bit_length()
    fv = np.fft.fft(v, size, axis=-1)
    power = fv.real**2
    power += fv.imag**2
    e = np.conj(np.fft.rfft(power, axis=-1, norm="forward")[..., :m])
    e[..., 0] = e[..., 0].real
    zero = e == 0
    k = np.arange(m)
    z = e * np.where(k % 2 == 0, 1.0 + 0j, -1.0 + 0j)
    raw = np.arctan2(z.imag, z.real)
    raw[zero] = 0.0
    values = gamma * (fresh_unwrap(raw) - np.pi * k)
    fault = zero.all(axis=-1)
    dvalues = None
    if dcoeffs is not None:
        fault = fault | (zero & (gamma > 1e-12)).any(axis=-1)
        x = np.fft.fft(dcoeffs[..., 1:], size, axis=-1) * np.conj(fv)[..., None, :]
        de = np.conj(np.fft.rfft(2.0 * x.real, axis=-1, norm="forward")[..., :m])
        mag2 = e.real**2
        mag2 += e.imag**2
        mag2[zero] = 1.0
        dtheta = (np.conj(e)[..., None, :] * de).imag / mag2[..., None, :]
        dtheta[np.broadcast_to(zero[..., None, :], dtheta.shape)] = 0.0
        dvalues = (gamma * dtheta).swapaxes(-1, -2)
    values[fault] = np.nan
    if dvalues is not None:
        dvalues[fault] = np.nan
    return values, dvalues, zero


class TestUnwrap:
    def test_smooth_sequence_unchanged(self):
        x = np.array([0.0, 0.1, 0.2])
        np.testing.assert_array_equal(unwrap(x), x)

    def test_hand_example(self):
        got = unwrap(np.array([3.0, -3.0]))
        np.testing.assert_allclose(got, [3.0, 3.0 + (2 * np.pi - 6.0)], atol=1e-12)

    def test_pi_jump_kept(self):
        got = unwrap(np.array([0.0, np.pi]))
        np.testing.assert_allclose(got, [0.0, np.pi], atol=0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.uniform(-20, 20, size=rng.integers(2, 64))
            once = unwrap(x)
            np.testing.assert_allclose(unwrap(once), once, atol=1e-12)

    def test_equal_modulo_two_pi(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-30, 30, size=100)
        diff = unwrap(x) - x
        cycles = diff / (2 * np.pi)
        np.testing.assert_allclose(cycles, np.round(cycles), atol=1e-9)

    def test_successive_differences_in_half_open_interval(self):
        rng = np.random.default_rng(10)
        d = np.diff(unwrap(rng.uniform(-30, 30, size=200)))
        assert np.all(d > -np.pi - 1e-12) and np.all(d <= np.pi + 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(0, 40)),
            elements=st.floats(-50.0, 50.0, allow_nan=False),
        )
    )
    def test_rows_unwrap_independently(self, phases):
        got = unwrap(phases)
        assert got.shape == phases.shape
        for row, want in zip(got, phases):
            assert np.array_equal(row, unwrap(want))

    def test_chunk_matches_rows_and_fresh_formula_bitwise(self):
        # a 16-row chunk of phase-length rows, with jumps beyond +-pi and
        # exactly +-pi: its differences and turns share one scratch row per
        # record
        rng = np.random.default_rng(11)
        phases = rng.uniform(-30.0, 30.0, (16, 2048))
        phases[3, 100:110] = np.pi * np.arange(10)
        phases[4, 200:210] = -np.pi * np.arange(10)
        kept = phases.copy()
        got = unwrap(phases)
        assert phases.tobytes() == kept.tobytes()
        assert got.tobytes() == fresh_unwrap(kept).tobytes()
        for row, want in zip(got, kept):
            assert row.tobytes() == unwrap(want).tobytes()

    def test_chunk_allocates_little_beyond_its_output(self):
        # the first column is added row by row: broadcast over the rows, it
        # would be buffered in numpy iterator arrays of 8192 elements
        phases = np.random.default_rng(12).uniform(-30.0, 30.0, (16, 2048))
        unwrap(phases)  # allocates this thread's spare rows before the trace
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = unwrap(phases)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= out.nbytes + 8 * 1024, (peak, out.nbytes)


class TestStableArg:
    """The stable-argument stage of phase_features: pseudo-coefficient
    normalization, unwrap, pseudo-phase subtraction and damping."""

    @staticmethod
    def wide(m):
        return damping_weights(m, 1e6, 1.0, 1.0)  # gamma ~ 1 over a few lags at T = 1

    def test_alternating_spectrum_gives_pure_normalization(self):
        # V_i = (-1)^i autocorrelates to E_k = (-1)^k (m - k), a positive
        # multiple of the pseudo-coefficient Y_k, so every raw angle is 0
        m = 32
        k = np.arange(m)
        coeffs = np.concatenate([[0.0], np.where(k % 2 == 0, 1.0, -1.0)]).astype(complex)
        gamma = damping_weights(m, 2.0 / 3.0, 3.0, 1.0)  # bT = 2 with T = 3
        values, _ = phase_features(coeffs, gamma)
        np.testing.assert_allclose(values, -gamma * np.pi * k, atol=1e-12)

    def test_gamma_head_and_monotonicity(self):
        g = damping_weights(64, b=0.5, duration=8.0, c=2.0)
        assert g[0] == 1.0
        assert np.all(np.diff(g) < 0.0)

    def test_underflowing_weights_rejected(self):
        # exp(-C k^2 / (bT)^2) reaches 0 before the last lag
        with pytest.raises(ValueError, match="stay positive"):
            damping_weights(4096, b=1.0, duration=1.0, c=10.0)

    def test_underflow_bound_is_checked_before_the_weights(self):
        # damping_weights holds the whole rule: at the default grid the last
        # lag 2047 caps C at 745 (bT)^2 / 2047^2 = 4.923
        cfg = ForwardConfig()
        b, duration = cfg.b, cfg.duration
        cap = "largest usable damping for this grid is 745*(bT)^2/(n/2-1)^2 = 4.923"
        with pytest.raises(ValueError, match=re.escape(cap)):
            damping_weights(2048, b, duration, 4.93)
        gamma = damping_weights(2048, b, duration, 745.0 * (b * duration) ** 2 / 2047**2)
        assert gamma[0] == 1.0 and np.all(gamma > 0.0) and np.all(np.diff(gamma) <= 0.0)

    def test_pseudo_coefficient_pattern(self):
        # Y_k for k = 0..3 must be [1, -1, 1, -1]; probe it through a
        # constant V, whose autocorrelation E = [4, 3, 2, 1] is real and
        # positive: arg(E_k * Y_k) alternates 0, pi
        gamma = self.wide(4)
        values, _ = phase_features(np.array([0.0, 1.0, 1.0, 1.0, 1.0], dtype=complex), gamma)
        raw = np.array([0.0, np.pi, 0.0, np.pi])
        want = unwrap(raw) - np.pi * np.arange(4)
        np.testing.assert_allclose(values, gamma * want, atol=1e-9)

    def test_zero_coefficient_maps_to_zero_phase(self):
        # a single nonzero coefficient autocorrelates to E = [1, 0, 0]
        gamma = self.wide(3)
        values, _ = phase_features(np.array([0.0, 1.0, 0.0, 0.0], dtype=complex), gamma)
        # raw phases [0, 0, 0] -> values = -gamma * pi * k
        np.testing.assert_allclose(values, -gamma * np.pi * np.arange(3), atol=1e-9)

    def test_all_zero_spectrum_rejected(self):
        with pytest.raises(PipelineError):
            phase_features(np.zeros(5, dtype=complex), damping_weights(4, 1.0, 1.0, 1.0))

    def test_damping_constant_range_enforced(self):
        # a configured C reaches phase_features only through the experiment
        # config, which rejects one outside [1, 10] before any work
        with pytest.raises(bench.ConfigError, match=r"damping constant must lie in \[1, 10\], got 0.5"):
            bench.ExperimentConfig(damping=0.5)

    def test_config_rejects_out_of_range_damping(self):
        # damping_weights holds the rule; the experiment config applies it
        for c in (0.2, 50.0, float("nan")):
            with pytest.raises(ValueError, match=r"damping constant must lie in \[1, 10\]"):
                damping_weights(4, 1.0, 1.0, c)
        np.testing.assert_array_equal(damping_weights(4, 1.0, 1.0, 10), damping_weights(4, 1.0, 1.0, 10.0))


def direct_phase_terms(coeffs, dcoeffs, gamma):
    """Loop reference of the phase transform: direct-sum autocorrelation
    and its derivative, argument, unwrap, damping."""
    v = coeffs[1:]
    m = v.size
    e = np.array([sum(v[i] * np.conj(v[i - k]) for i in range(k, m)) for k in range(m)])
    de = np.array(
        [
            [sum(dv[i] * np.conj(v[i - k]) + v[i] * np.conj(dv[i - k]) for i in range(k, m)) for k in range(m)]
            for dv in dcoeffs[:, 1:]
        ]
    )
    k = np.arange(m)
    values = gamma * (np.unwrap(np.angle(e * (-1.0) ** k)) - np.pi * k)
    dvalues = gamma[:, None] * (np.conj(e)[:, None] * de.T).imag / (np.abs(e) ** 2)[:, None]
    return values, dvalues


class TestPhaseFeatures:
    def crafted(self, n=64, seed=5):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        dcoeffs = rng.standard_normal((2, n // 2 + 1)) + 1j * rng.standard_normal((2, n // 2 + 1))
        return coeffs, dcoeffs

    def test_matches_direct_sum_reference(self):
        coeffs, dcoeffs = self.crafted()
        gamma = damping_weights(32, 16.0, 1.0, 1.0)  # bT = 16 over 32 lags
        got, jac = phase_features(coeffs, gamma, dcoeffs)
        values, dvalues = direct_phase_terms(coeffs, dcoeffs, gamma)
        assert jac.shape == (32, 2)
        assert np.max(np.abs(got - values)) <= 1e-12
        assert np.max(np.abs(jac - dvalues)) <= 1e-12 * np.max(np.abs(dvalues))

    def test_features_without_jacobian_are_identical(self):
        coeffs, dcoeffs = self.crafted()
        gamma = damping_weights(32, 16.0, 1.0, 1.0)
        plain, none = phase_features(coeffs, gamma)
        with_jac, _ = phase_features(coeffs, gamma, dcoeffs)
        assert none is None
        assert np.array_equal(plain, with_jac)

    @pytest.mark.parametrize("gamma", [[1.0], np.ones(31), np.ones(33), np.ones((1, 32))], ids=["one", "31", "33", "2d"])
    @pytest.mark.parametrize("batch", [False, True])
    def test_weights_of_another_length_rejected(self, gamma, batch):
        # one weight per lag, n/2 = 32 here; a single weight would broadcast
        coeffs, dcoeffs = self.crafted()
        if batch:
            coeffs, dcoeffs = np.stack([coeffs, coeffs]), np.stack([dcoeffs, dcoeffs])
        for args in ((coeffs, gamma), (coeffs, gamma, dcoeffs)):
            with pytest.raises(ValueError, match="expected 32 damping weights"):
                phase_features(*args)

    def test_autocorr_wrapper_agrees_with_kernel(self):
        # the phases of the kernel's autocorrelation stage, taken stage by
        # stage, are the kernel's feature values
        coeffs, _ = self.crafted()
        e = autocorr(coeffs[1:])
        k = np.arange(e.size)
        gamma = damping_weights(e.size, 16.0, 1.0, 1.0)
        staged = gamma * (unwrap(np.angle(e * (-1.0) ** k)) - np.pi * k)
        values, _ = phase_features(coeffs, gamma)
        assert np.array_equal(staged, values)


class TestPhaseProperties:
    """The structural claims behind the phase objective, as properties."""

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(min_value=1e-3, max_value=1e3),
        tbar=st.floats(min_value=2e-6, max_value=5e-6),
    )
    def test_amplitude_scaling_leaves_features_unchanged(self, alpha, tbar):
        s = packet_signal(tbar=tbar)
        a = transform_pipeline(s, packet_weights(s))
        b = transform_pipeline(Signal(alpha * s.samples, dt=s.dt), packet_weights(s))
        assert np.max(np.abs(a - b)) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(shift=st.integers(min_value=-8, max_value=8), tbar=st.floats(min_value=3e-6, max_value=5e-6))
    def test_time_shift_enters_the_phase_linearly(self, shift, tbar):
        # sim[i] = ref[i + shift] => residual_k = -gamma_k * omega_k * shift * dt.
        # The packet starts at least 6 sigma into the record: a packet cut by
        # the record start has near-zeros in its autocorrelation at mid lags,
        # where a shift can move the unwrap branch by 2 pi (tbar = 2 us gives
        # 2 pi gamma_k jumps near k = 660).
        s = packet_signal(tbar=tbar)
        sim = Signal(np.roll(s.samples, -shift), dt=s.dt)
        gamma = packet_weights(s)
        r = transform_pipeline(s, gamma) - transform_pipeline(sim, gamma)
        omega = 2 * np.pi * np.arange(r.size) / s.duration
        want = -gamma * omega * shift * s.dt
        interior = slice(1, r.size // 2)
        assert np.max(np.abs(r[interior] - want[interior])) <= 1e-6


class TestPhaseResidual:
    def test_identical_inputs(self):
        s = packet_signal()
        a = transform_pipeline(s, packet_weights(s))
        b = transform_pipeline(Signal(s.samples.copy(), dt=s.dt), packet_weights(s))
        assert np.all(a - b == 0.0)

    def test_amplitude_invariance(self):
        s = packet_signal()
        ref = transform_pipeline(s, packet_weights(s))
        for alpha in (0.1, 3.0, 250.0):
            scaled = Signal(alpha * s.samples, dt=s.dt)
            r = ref - transform_pipeline(scaled, packet_weights(s))
            assert np.max(np.abs(r)) <= 1e-9

    def test_antisymmetry(self):
        s = packet_signal()
        a = transform_pipeline(s, packet_weights(s))
        b = transform_pipeline(packet_signal(tbar=3.4e-6), packet_weights(s))
        np.testing.assert_allclose(a - b, -(b - a), atol=1e-15)

    def test_model_is_damped_by_the_reference_weights(self):
        # phase_objective_terms damps the model's features by the weights the
        # reference is damped by, and refuses weights of another grid
        cfg = ForwardConfig(n=1024, dt=2.4e-5 / 1024)
        x, rho = np.array([3.9559e9, 0.40079]), 1400.3
        y, dy = response_spectrum(x, rho, cfg, need_jacobian=True)
        features = []
        for c in (1.0, 2.0):
            gamma = damping_weights(cfg.n // 2, cfg.b, cfg.duration, c)
            sim, jac = phase_objective_terms(x, rho, cfg, gamma)
            values, dvalues = phase_features(y, gamma, dy)
            assert np.array_equal(sim, values) and np.array_equal(jac, dvalues)
            features.append(sim)
        assert not np.array_equal(*features)
        coarse = damping_weights(cfg.n // 4, cfg.b, cfg.duration / 2, 1.0)
        with pytest.raises(ValueError, match=f"expected {cfg.n // 2} damping weights"):
            phase_objective_terms(x, rho, cfg, coarse)


class TestPlainResiduals:
    def test_envelope_residual_sign_invariant(self):
        s = packet_signal(n=1024)
        flipped = Signal(-s.samples, dt=s.dt)
        assert np.max(np.abs(envelope(s).samples - envelope(flipped).samples)) <= 1e-12

    def test_envelope_residual_of_cosines(self):
        n = 512
        t = np.arange(n) / n
        a = Signal(2.0 * np.cos(2 * np.pi * 8 * t), dt=1.0 / n)
        b = Signal(1.0 * np.cos(2 * np.pi * 8 * t), dt=1.0 / n)
        r = envelope(a).samples - envelope(b).samples
        interior = r[n // 8 : -n // 8]
        assert np.max(np.abs(interior - 1.0)) <= 1e-9


class TestTransformPipeline:
    def test_zero_signal_rejected(self):
        s = Signal(np.zeros(64), dt=1.0)
        with pytest.raises(PipelineError):
            transform_pipeline(s, packet_weights(s))

    def test_weights_of_another_length_rejected(self):
        # n/2 = 32 weights for a 64-sample record; a single weight would broadcast
        s = packet_signal(n=64)
        for gamma in ([1.0], packet_weights(packet_signal(n=32)), damping_weights(33, 0.65e6, s.duration, 1.0)):
            with pytest.raises(ValueError, match="expected 32 damping weights"):
                transform_pipeline(s, gamma)

    def test_packet_features_finite_and_bounded(self):
        s = packet_signal()
        gamma = packet_weights(s)
        values = transform_pipeline(s, gamma)
        nplus = s.n // 2
        assert values.size == gamma.size == nplus
        assert np.all(np.isfinite(values))
        assert np.all(np.abs(values) <= gamma * (np.pi * nplus + np.pi))
        assert not values.flags.writeable

    def test_time_reversal_changes_features(self):
        s = packet_signal()
        reversed_ = Signal(s.samples[::-1].copy(), dt=s.dt)
        a = transform_pipeline(s, packet_weights(s))
        b = transform_pipeline(reversed_, packet_weights(s))
        assert np.max(np.abs(a - b)) > 1e-3

    def test_deterministic(self):
        s = packet_signal()
        a = transform_pipeline(s, packet_weights(s))
        b = transform_pipeline(s, packet_weights(s))
        assert np.array_equal(a, b)


class TestScratchArrays:
    """The phase and analytic kernels reuse per-thread scratch arrays; no
    public result may alias one, and threads must not share them."""

    @staticmethod
    def spectra(seed, rows):
        rng = np.random.default_rng(seed)
        shape = (rows, 2049) if rows else (2049,)
        dshape = (rows, 2, 2049) if rows else (2, 2049)
        return (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            rng.standard_normal(dshape) + 1j * rng.standard_normal(dshape),
        )

    @staticmethod
    def model_chunk():
        """A scan chunk's model spectra [Y; dY] at 16 nodes spread over the
        41 x 41 PEEK grid, with the points and weights that made them."""
        cfg = bench.load_config(None, {})
        fwd, rho = cfg.forward_config(), cfg.prior().rho_si()
        x = bench._grid_nodes(cfg, 41)[2][::105][:16]
        y, dy = response_spectrum(x, rho, fwd, need_jacobian=True)
        return x, rho, fwd, damping_weights(fwd.n // 2, fwd.b, fwd.duration, cfg.damping), y, dy

    @pytest.mark.parametrize("rows", [0, 16])
    @pytest.mark.parametrize("with_jacobian", [False, True])
    def test_phase_features_match_a_fresh_array_transcription(self, rows, with_jacobian):
        # every model row has exact-zero autocorrelation lags, which are
        # damped; an all-zero row is NaN in a batch
        x, rho, fwd, gamma, y, dy = self.model_chunk()
        y[5], dy[5] = 0.0, 0.0
        coeffs, dcoeffs = (y, dy) if rows else (y[3], dy[3])
        values, dvalues = phase_features(coeffs, gamma, dcoeffs if with_jacobian else None)
        want, dwant, zero = fresh_phase_features(coeffs, gamma, dcoeffs if with_jacobian else None)
        assert zero.any(axis=-1).all() and np.isnan(want).any() == bool(rows)
        assert values.tobytes() == want.tobytes()
        assert (dvalues is None) is not with_jacobian
        if with_jacobian:
            assert np.ascontiguousarray(dvalues).tobytes() == np.ascontiguousarray(dwant).tobytes()

    @pytest.mark.parametrize("with_jacobian", [False, True])
    def test_phase_objective_terms_match_a_fresh_array_transcription(self, with_jacobian):
        # the model writes [Y; dY] over its carrier sums, and the phase
        # kernel reads them there
        x, rho, fwd, gamma, y, dy = self.model_chunk()
        values, dvalues = phase_objective_terms(x, rho, fwd, gamma, need_jacobian=with_jacobian)
        want, dwant, zero = fresh_phase_features(y, gamma, dy if with_jacobian else None)
        assert zero.any(axis=-1).all() and not np.isnan(want).any()
        assert values.tobytes() == want.tobytes()
        if with_jacobian:
            assert np.ascontiguousarray(dvalues).tobytes() == np.ascontiguousarray(dwant).tobytes()

    @pytest.mark.parametrize("rows", [0, 16])
    @pytest.mark.parametrize("with_jacobian", [False, True])
    def test_second_phase_call_leaves_first_results_unchanged(self, rows, with_jacobian):
        gamma = damping_weights(2048, 700.0, 1.0, 1.0)

        def call(seed):
            coeffs, dcoeffs = self.spectra(seed, rows)
            return phase_features(coeffs, gamma, dcoeffs if with_jacobian else None)

        first = call(1)
        kept = [None if out is None else out.copy() for out in first]
        second = call(2)
        assert (first[1] is None) is not with_jacobian
        for got, want, other in zip(first, kept, second):
            if want is not None:
                assert np.array_equal(got, want)
                assert not np.shares_memory(got, other)

    @pytest.mark.parametrize("rows", [0, 1, 16])
    @pytest.mark.parametrize("with_jacobian", [False, True])
    def test_second_response_spectrum_call_leaves_first_results_unchanged(self, rows, with_jacobian):
        # response_spectrum copies Y and dY out of the model's scratch rows,
        # which an objective evaluation of the same shape then overwrites
        cfg = bench.load_config(None, {"n_refs": 2, "seed": 3})
        ref = bench.gen_refs(cfg)[0]
        fwd, rho = cfg.forward_config(), ref.truth.rho
        spread = 1.0 + 0.02 * np.linspace(-1.0, 1.0, max(rows, 1))[:, None]

        def points(scale):
            x = ref.truth.as_vector() * scale * spread
            return x if rows else x[0]

        def call(scale):
            return response_spectrum(points(scale), rho, fwd, need_jacobian=with_jacobian)

        def shares_scratch(out):
            return any(np.shares_memory(out, buf) for buf in vars(signals._SCRATCH).values())

        first = call(1.01)
        assert (first[1] is None) is not with_jacobian
        assert not any(out is not None and shares_scratch(out) for out in first)
        kept = [None if out is None else out.copy() for out in first]
        bench.make_objective(cfg, ref)[0](points(0.98), with_jacobian)
        second = call(0.99)
        for got, want, other in zip(first, kept, second):
            if want is not None:
                assert got.tobytes() == want.tobytes()
                assert not np.shares_memory(got, other)
                assert not shares_scratch(got) and not shares_scratch(other)

    def test_second_autocorr_and_analytic_calls_leave_first_results_unchanged(self):
        # the autocorrelation stage runs in scratch arrays; the kernel's
        # values were copied out of them before it returned
        (a, _), (b, _) = self.spectra(1, 3), self.spectra(2, 3)
        first, _ = phase_features(a, damping_weights(2048, 700.0, 1.0, 1.0))
        kept = first.copy()
        signals._autocorr(b[:, 1:])
        assert np.array_equal(first, kept)
        analytic = analytic_signal(Signal(np.fft.irfft(a[0], 4096), dt=1.0))
        kept = analytic.copy()
        analytic_signal(Signal(np.fft.irfft(b[0], 4096), dt=1.0))
        assert np.array_equal(analytic, kept)
        assert not np.shares_memory(analytic, signals._analytic(b, 4096))

    @pytest.mark.parametrize("objective", ["autocorr-phase", "envelope"])
    def test_second_objective_evaluation_leaves_first_results_unchanged(self, objective):
        cfg = bench.load_config(None, {"n_refs": 2, "seed": 3, "objective": objective})
        ref = bench.gen_refs(cfg)[0]
        evaluate, x = bench.make_objective(cfg, ref)[0], ref.truth.as_vector()
        r, jac = evaluate(x * 1.01)
        kept = r.copy(), jac.copy()
        evaluate(x * 0.98)
        assert np.array_equal(r, kept[0]) and np.array_equal(jac, kept[1])

    @pytest.mark.parametrize("rows", [1, 16])
    @pytest.mark.parametrize("objective", ["autocorr-phase", "envelope"])
    def test_threads_match_serial_results_bitwise(self, rows, objective):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        cfg = bench.load_config(None, {"material": "PA6", "n_refs": 4, "seed": 7, "objective": objective})
        refs = bench.gen_refs(cfg)
        assert len(refs) == 4  # four materials, one per thread
        spread = 1.0 + 0.02 * np.linspace(-1.0, 1.0, rows)[:, None]
        jobs = [(bench.make_objective(cfg, ref)[0], ref.truth.as_vector() * spread) for ref in refs]
        serial = [evaluate(x) for evaluate, x in jobs]

        def repeat(job):
            evaluate, x = job
            return [evaluate(x) for _ in range(6)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(repeat, job) for job in jobs]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for (r, jac), runs in zip(serial, threaded):
            for r_t, jac_t in runs:
                assert r_t.tobytes() == r.tobytes()
                assert np.ascontiguousarray(jac_t).tobytes() == np.ascontiguousarray(jac).tobytes()

    def test_phase_gradient_threads_match_serial_bitwise(self):
        # the reverse pass reads the forward pass's scratch arrays: four
        # threads on four materials give the serial gradients bit for bit
        import sys
        from concurrent.futures import ThreadPoolExecutor

        cfg = bench.load_config(None, {"material": "PA6", "n_refs": 4, "seed": 7})
        refs = bench.gen_refs(cfg)
        assert len(refs) == 4
        jobs = [(bench.make_objective(cfg, ref)[1], ref.truth.as_vector() * [1.02, 0.99]) for ref in refs]
        serial = [fg(x) for fg, x in jobs]

        def repeat(job):
            fg, x = job
            return [fg(x) for _ in range(6)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = [future.result(timeout=120) for future in [pool.submit(repeat, job) for job in jobs]]
        finally:
            sys.setswitchinterval(interval)
        for (value, grad), runs in zip(serial, threaded):
            for value_t, grad_t in runs:
                assert value_t == value
                assert grad_t.tobytes() == grad.tobytes()

    def test_phase_gradient_does_not_alias_scratch(self):
        cfg = bench.load_config(None, {"n_refs": 2, "seed": 3})
        ref = bench.gen_refs(cfg)[0]
        fg = bench.make_objective(cfg, ref)[1]
        _, grad = fg(ref.truth.as_vector() * 1.01)
        kept = grad.copy()
        fg(ref.truth.as_vector() * 0.98)
        assert np.array_equal(grad, kept)
        scratch = list(signals._SCRATCH.__dict__.values())
        assert scratch and not any(np.shares_memory(grad, buf) for buf in scratch)


def _read_signal(path):
    s = read_signal_csv(path)
    return s.samples.tobytes(), s.dt


def _read_refs_index(path):
    return [(r.ref_id, r.truth, r.signal.samples.tobytes()) for r in bench.read_refs(path.parent.parent)]


# Three readers of the one table layout: (file under the output directory,
# comment and header lines, data rows, read), where read gives a value that
# compares equal for equal contents
_SIGNAL = (
    "sig.csv",
    "# seed=1\nt_seconds,amplitude\n",
    "0.0,1.5\n2.5e-08,-0.25\n5e-08,3.0\n7.5e-08,0.125\n",
    _read_signal,
)
_REFS = (
    "refs/index.csv",
    "# seed=1\nref_id,E_pa,nu,rho_kg_m3,file\n",
    "0,4000000000.0,0.4,1300.0,ref.csv\n1,3500000000.0,0.35,1300.0,ref.csv\n",
    _read_refs_index,
)
_RUNS = (
    "runs_index.csv",
    "# seed=1\nref_id,status,success,evals_to_success,E_final,nu_final,E_true,nu_true\n",
    "0,converged,1,8,4e9,0.4,4e9,0.4\n1,budget,0,,nan,nan,3.5e9,0.35\n2,converged,1,12,3e9,0.3,3e9,0.3\n",
    bench._read_runs_index,
)
# (name, text from (head, rows)): text that every reader reads as its clean
# head + rows
TOLERATED = [
    ("blank lines around the file", lambda h, r: "\n\n" + h + r + "\n\n"),
    ("blank lines between rows", lambda h, r: h + r.replace("\n", "\n\n")),
    ("crlf line endings", lambda h, r: (h + r).replace("\n", "\r\n")),
    ("spaces around fields", lambda h, r: h + " " + r.replace(",", " ,\t").replace("\n", " \n\t")),
    ("second comment line after the header", lambda h, r: h + "# note\n  # indented note\n" + r),
    ("repeated header line", lambda h, r: h + r + h.splitlines()[-1] + "\n"),
]
# (name, signal text, the reader's ValueError message), where {path} stands
# for the file's path
_HEAD, _ROWS = _SIGNAL[1:3]
REJECTED = [
    ("trailing comment on a row", _HEAD + "0.0,1.0\n1.0,2.0 # x\n", "could not convert string .*'2.0 # x'"),
    ("nan sample", _HEAD + _ROWS.replace("-0.25", "nan"), "^signal samples must be finite$"),
    ("inf sample", _HEAD + _ROWS.replace("3.0", "inf"), "^signal samples must be finite$"),
    ("empty body", _HEAD, "^{path}: too few samples for a signal$"),
    ("blank body", _HEAD + "\n   \n", "^{path}: too few samples for a signal$"),
    ("one column", _HEAD + "0.0\n1.0\n", "^{path}: expected two columns per row, found 1$"),
]
GRAMMAR = (
    [pytest.param(_SIGNAL, build(_HEAD, _ROWS), None, id=name) for name, build in TOLERATED]
    + [pytest.param(_SIGNAL, text, message, id=name) for name, text, message in REJECTED]
    + [
        pytest.param(table, build(*table[1:3]), None, id=f"{table[0]}: {name}")
        for table in (_REFS, _RUNS)
        for name, build in TOLERATED
    ]
)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        s = Signal(rng.standard_normal(64), dt=2.5e-8)
        path = tmp_path / "sig.csv"
        write_signal_csv(s, path, header_comments=["seed=11"])
        back = read_signal_csv(path)
        np.testing.assert_array_equal(back.samples, s.samples)
        assert back.dt == s.dt

    def test_csv_rows_are_float_reprs(self, tmp_path):
        # the reference format: one "repr(t),repr(a)" row per sample,
        # parsed back exactly by float()
        rng = np.random.default_rng(13)
        s = Signal(rng.standard_normal(256) * 10.0 ** rng.integers(-200, 200, 256), dt=1.0 / 48.0e6)
        path = tmp_path / "sig.csv"
        write_signal_csv(s, path, header_comments=["a=1"])
        want = ["# a=1", "t_seconds,amplitude"]
        want += [f"{float(i * s.dt)!r},{float(a)!r}" for i, a in enumerate(s.samples)]
        assert path.read_text() == "\n".join(want) + "\n"
        back = read_signal_csv(path)
        assert back.samples.tobytes() == np.array([float(line.split(",")[1]) for line in want[2:]]).tobytes()

    def test_csv_time_column_is_shared_per_grid(self, tmp_path):
        # interleaved grids each get their own time column, byte for byte;
        # an integer dt writes integer times and must not share the float's
        rng = np.random.default_rng(14)
        grids = [(64, 2.5e-8), (256, 1.0 / 48.0e6), (64, 2.5e-8), (4, 1), (4, 1.0)]
        for i, (n, dt) in enumerate(grids):
            s = Signal(rng.standard_normal(n), dt=dt)
            path = tmp_path / f"sig{i}.csv"
            write_signal_csv(s, path)
            times = (np.arange(n) * dt).tolist()
            want = ["t_seconds,amplitude"] + [f"{t!r},{a!r}" for t, a in zip(times, s.samples.tolist())]
            assert path.read_text() == "\n".join(want) + "\n"
            column = signals._time_column(n, dt)
            assert isinstance(column, tuple) and column is signals._time_column(n, dt)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.0,1.0\n", "too few samples"),
            ("0.0,1.0\n1.0,2.0\n2.5,3.0\n3.0,4.0\n", "not uniformly sampled"),
            ("0.0,1.0\n1.0,x\n2.0,3.0\n3.0,4.0\n", None),
            ("0.0,1.0\n1.0,2.0,5.0\n2.0,3.0\n3.0,4.0\n", None),
            ("0.0,1.0,7.0\n1.0,2.0,5.0\n", "two columns"),
        ],
    )
    def test_csv_rejects_malformed_input(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("# seed=1\nt_seconds,amplitude\n" + body)
        with pytest.raises(ValueError, match=message):
            read_signal_csv(path)

    @pytest.mark.parametrize("table, text, message", GRAMMAR)
    def test_csv_reader_grammar(self, tmp_path, table, text, message):
        name, head, rows, read = table

        def put(directory, content):
            path = tmp_path / directory / name
            path.parent.mkdir(parents=True)
            path.write_bytes(content.encode())
            write_signal_csv(Signal(np.arange(4.0), dt=1.0), path.parent / "ref.csv")  # what a refs index names
            return path

        path = put("given", text)
        if message is not None:
            with pytest.raises(ValueError, match=message.replace("{path}", re.escape(str(path)))):
                read(path)
            return
        assert read(path) == read(put("clean", head + rows))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        samples=st.sampled_from([2, 4, 16, 64]).flatmap(
            lambda n: arrays(
                np.float64,
                n,
                elements=st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, -2.2250738585072014e-308]),
            )
        ),
        dt=st.floats(min_value=1e-12, max_value=1e3),
    )
    def test_csv_round_trip_is_bitwise(self, tmp_path, samples, dt):
        path = tmp_path / "sig.csv"
        write_signal_csv(Signal(samples, dt=dt), path)
        back = read_signal_csv(path)
        assert back.samples.tobytes() == samples.tobytes()
        assert back.dt == dt
