"""Time/frequency signal types, Hilbert-envelope machinery, and the
autocorrelated phase-residual transform.

The objective-function pipeline implemented here compares two transient
signals through the unwrapped phase angles of the autocorrelation of their
positive-frequency Fourier content.  For a discrete signal u with one-sided
coefficients U_1..U_{n+} (the static coefficient U_0 is zero for the
finite-energy signals considered and is dropped), the stages are

    E_k   = sum_{i=k}^{n+ - 1} U_{i+1} conj(U_{i-k+1})        (autocorrelation)
    raw_k = atan2(Im(E_k / Y_k), Re(E_k / Y_k)),  Y_k = (-1)^k
    values_k = gamma_k * (unwrap(raw)_k - pi*k),  gamma_k = exp(-C k^2 / (bT)^2)

where b is the excitation bandwidth in hertz and T the record duration.
E_k is, up to a constant, the spectrum of the squared Hilbert envelope of u,
which is what makes phases of E a robust comparison measure: amplitude
scaling drops out entirely, and time shifts enter linearly.

All operations are pure functions on immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Signal",
    "Spectrum",
    "PhaseFeature",
    "PhaseObjectiveConfig",
    "PipelineError",
    "dft_forward",
    "dft_inverse",
    "analytic_signal",
    "analytic_from_spectrum",
    "envelope",
    "autocorr_spectrum",
    "unwrap",
    "damping_weights",
    "stable_arg",
    "phase_features",
    "phase_residual",
    "residual_signal",
    "residual_envelope",
    "transform_pipeline",
    "read_signal_csv",
    "write_signal_csv",
    "read_signal_binary",
    "write_signal_binary",
    "write_feature_csv",
]

_TWO_PI = 2.0 * np.pi

#: Damping weight below which a zero-magnitude autocorrelation coefficient is
#: considered harmless for differentiation (its phase never matters).
_UNDAMPED_TOL = 1e-12

#: Magic bytes of the raw binary signal format (8 bytes, followed by the
#: sample count as a little-endian 64-bit unsigned integer).
BINARY_MAGIC = b"WFSIG1\x00\x00"


class PipelineError(ValueError):
    """Raised when an objective-transform stage receives degenerate input."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real time series.

    The sample count must be a power of two (>= 2) so the radix-2 DFT
    contract holds without padding ambiguity.
    """

    samples: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64).copy()
        if samples.ndim != 1:
            raise ValueError("signal samples must be one-dimensional")
        if samples.size < 2 or not _is_power_of_two(samples.size):
            raise ValueError(
                f"sample count must be a power of two >= 2, got {samples.size}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("signal samples must be finite")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Record length T = n * dt."""
        return self.n * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt


@dataclass(frozen=True)
class Spectrum:
    """One-sided complex Fourier coefficients over frequencies k * df."""

    coeffs: np.ndarray
    df: float

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.complex128).copy()
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("spectrum must hold at least one coefficient")
        if not (self.df > 0.0 and np.isfinite(self.df)):
            raise ValueError(f"df must be positive and finite, got {self.df}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_coeffs(self) -> int:
        return self.coeffs.size

    def omegas(self) -> np.ndarray:
        """Angular frequencies 2*pi*k*df of the stored coefficients."""
        return _TWO_PI * self.df * np.arange(self.n_coeffs)


@dataclass(frozen=True)
class PhaseFeature:
    """Damped, normalized, unwrapped phase angles of an autocorrelation
    spectrum, together with the damping weights used to produce them."""

    values: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64).copy()
        gamma = np.asarray(self.gamma, dtype=np.float64).copy()
        if values.shape != gamma.shape or values.ndim != 1:
            raise ValueError("values and gamma must be 1-d arrays of equal length")
        _check_gamma(gamma)
        values.flags.writeable = False
        gamma.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "gamma", gamma)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class PhaseObjectiveConfig:
    """Knobs of the phase-residual transform.

    ``bandwidth_hz`` is the excitation bandwidth b entering the damping
    weights gamma_k = exp(-C k^2 / (bT)^2); ``damping`` is the dimensionless
    C, which must lie in [1, 10].
    """

    bandwidth_hz: float
    damping: float = 1.0

    def __post_init__(self) -> None:
        if not (self.bandwidth_hz > 0.0):
            raise ValueError("bandwidth must be positive")
        if not (1.0 <= self.damping <= 10.0):
            raise ValueError(f"damping constant must lie in [1, 10], got {self.damping}")
        object.__setattr__(self, "damping", float(self.damping))


def dft_forward(s: Signal) -> Spectrum:
    """One-sided DFT of a real signal: n/2 + 1 raw (unnormalized) coefficients."""
    return Spectrum(np.fft.rfft(s.samples), df=1.0 / s.duration)


def dft_inverse(spec: Spectrum) -> Signal:
    """Inverse companion of :func:`dft_forward`; round-trips to ~1e-15."""
    n = 2 * (spec.n_coeffs - 1)
    if n < 2 or not _is_power_of_two(n):
        raise ValueError(
            f"spectrum length {spec.n_coeffs} does not correspond to a power-of-two signal"
        )
    samples = np.fft.irfft(spec.coeffs, n=n)
    return Signal(samples, dt=1.0 / (n * spec.df))


def analytic_signal(s: Signal) -> np.ndarray:
    """Complex analytic signal a(t) = u(t) + i*H(u)(t) of the demeaned
    samples u; see :func:`analytic_from_spectrum`."""
    return analytic_from_spectrum(np.fft.rfft(s.samples), s.n)


@functools.lru_cache(maxsize=8)
def _analytic_weights(n: int) -> np.ndarray:
    """One-sided analytic-signal weights [0, 2, ..., 2, 1] for n samples;
    read-only."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 0.0
    w[-1] = 1.0
    w.flags.writeable = False
    return w


def analytic_from_spectrum(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Analytic signals of n-sample records from their one-sided spectra.

    ``coeffs`` holds the n/2 + 1 coefficients of one record, as from
    ``rfft``, or of several stacked along the leading axis.  In the
    frequency domain H(U)(w) = -i sgn(w) U(w), so the analytic spectrum is U
    with positive frequencies doubled and negative ones zeroed: one
    zero-padded inverse FFT.  The static coefficient gets weight 0, which
    demeans the record; the self-conjugate Nyquist bin keeps unit weight so
    that Re(a) reproduces the demeaned record exactly.
    """
    return np.fft.ifft(coeffs * _analytic_weights(n), n, axis=-1)


def envelope(s: Signal) -> Signal:
    """Hilbert envelope e(t) = |a(t)| = sqrt(u^2 + H(u)^2) of the demeaned signal."""
    return Signal(np.abs(analytic_signal(s)), dt=s.dt)


def autocorr_spectrum(u: Spectrum) -> Spectrum:
    """Autocorrelation of the positive-frequency coefficients.

    The input holds the one-sided coefficients U_1..U_{n+} (static term
    excluded).  With V = coeffs in 0-based indexing,

        E_k = sum_{i=k}^{n+ - 1} V[i] * conj(V[i-k]),   k = 0..n+ - 1.

    E_0 is real and strictly positive for any nonzero input; it equals the
    sum of squared coefficient magnitudes (the static mode of the squared
    envelope, up to scale).
    """
    e, _ = _autocorr(u.coeffs)
    return Spectrum(e, df=u.df)


def _autocorr(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive-lag autocorrelation E of v along its last axis and the
    zero-padded FFT of v it was computed from.

    The padded length is a power of two of at least 2 m (m = v.shape[-1]),
    so the circular correlation of the padded sequences equals the linear
    one: E = ifft(|fft(v)|^2)[:m], equal to the direct sum to roundoff.
    """
    m = v.shape[-1]
    if m == 0:
        raise ValueError("autocorrelation of an empty spectrum is undefined")
    fv = np.fft.fft(v, 1 << int(np.ceil(np.log2(2 * m))), axis=-1)
    e = _real_ifft_head(fv.real**2 + fv.imag**2, m)
    e[..., 0] = e[..., 0].real  # exact: E_0 is a sum of |V_i|^2 (conj left a -0.0 there)
    return e, fv


def _real_ifft_head(x: np.ndarray, m: int) -> np.ndarray:
    """First m terms of ifft(x) along the last axis for real x, as
    conj(rfft(x))[:m] / N: half the work of a complex ifft."""
    return np.conj(np.fft.rfft(x, axis=-1, norm="forward")[..., :m])


def unwrap(phases: np.ndarray) -> np.ndarray:
    """Remove 2*pi discontinuities along the last axis so successive
    differences lie in (-pi, pi].

    The first element of each row is kept; the output equals the input
    modulo 2*pi elementwise.  A jump of exactly +pi is preserved (half-open
    boundary).
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.shape[-1:] in ((), (0,), (1,)):
        return phases.copy()
    d = np.diff(phases, axis=-1)
    principal = d - _TWO_PI * np.ceil((d - np.pi) / _TWO_PI)
    out = np.empty_like(phases)
    out[..., 0] = phases[..., 0]
    out[..., 1:] = phases[..., :1] + np.cumsum(principal, axis=-1)
    return out


@functools.lru_cache(maxsize=32)
def damping_weights(n_coeffs: int, b: float, duration: float, c: float) -> np.ndarray:
    """Gaussian frequency weights gamma_k = exp(-C k^2 / (b T)^2).

    Computed and checked once per argument tuple: gamma starts at 1, stays
    positive (no weight underflows) and does not increase.  The returned
    array is read-only.
    """
    if b <= 0.0 or duration <= 0.0:
        raise ValueError("bandwidth and duration must be positive")
    k = np.arange(n_coeffs, dtype=np.float64)
    gamma = np.exp(-c * k**2 / (b * duration) ** 2)
    _check_gamma(gamma)
    gamma.flags.writeable = False
    return gamma


def _check_gamma(gamma: np.ndarray) -> None:
    if gamma[0] != 1.0 or np.any(gamma <= 0.0) or np.any(np.diff(gamma) > 0.0):
        raise ValueError("gamma must start at 1, stay positive, and be non-increasing")


@functools.lru_cache(maxsize=32)
def _pseudo_phases(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-coefficients Y_k = (-1)^k and pseudo-phases pi*k, k < m;
    read-only."""
    k = np.arange(m)
    y = np.where(k % 2 == 0, 1.0, -1.0)
    phi = np.pi * k
    y.flags.writeable = False
    phi.flags.writeable = False
    return y, phi


def _stable_phase(e: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped, normalized, unwrapped phases of autocorrelations E along the
    last axis, the mask of their exactly-zero coefficients, and the mask of
    all-zero rows (no phases at all), which a single row raises for."""
    zero = e == 0.0
    empty = zero.all(axis=-1)
    if e.ndim == 1 and empty:
        raise PipelineError("all-zero spectrum has no well-defined phases")
    y, phi = _pseudo_phases(e.shape[-1])
    z = e * y  # E_k / Y_k = E_k * Y_k
    raw = np.arctan2(z.imag, z.real)
    raw[zero] = 0.0
    return gamma * (unwrap(raw) - phi), zero, empty


def stable_arg(e: Spectrum, b: float, duration: float, c: float = 1.0) -> PhaseFeature:
    """Damped, normalized, unwrapped phase angles of an autocorrelation spectrum.

    Each coefficient is first normalized by the pseudo-coefficient
    Y_k = (-1)^k of a fictitious linear-phase signal, the resulting raw
    angles are unwrapped as a sequence, the pseudo-phases phi_k = pi*k are
    subtracted, and the result is damped by gamma_k.  Coefficients with
    exactly zero magnitude contribute phase 0 before unwrapping; the
    damping suppresses those indices in any case.
    """
    if not (1.0 <= c <= 10.0):
        raise ValueError(f"damping constant must lie in [1, 10], got {c}")
    gamma = damping_weights(e.n_coeffs, b, duration, c)
    values, _, _ = _stable_phase(e.coeffs, gamma)
    return PhaseFeature(values=values, gamma=gamma)


def phase_features(
    coeffs: np.ndarray,
    duration: float,
    objective: PhaseObjectiveConfig,
    dcoeffs: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Phase feature values of a one-sided spectrum and, on request, their
    derivative columns: the single implementation of the phase transform.

    ``coeffs`` holds the n/2 + 1 one-sided coefficients of a record of
    length ``duration`` (static term first, as from ``rfft``), or N such
    records as rows; the static term is dropped, the rest autocorrelated
    (:func:`autocorr_spectrum`) and turned into damped phases
    (:func:`stable_arg`), n/2 values per record.  ``dcoeffs`` of shape
    (p, n/2 + 1), or (N, p, n/2 + 1), holds derivatives of ``coeffs`` with
    respect to p parameters; the result then carries the (n/2, p), or
    (N, n/2, p), derivative of the feature values, else None.  The damping
    weights are ``damping_weights(n/2, ...)``.

    A degenerate record (all-zero autocorrelation, as of a zero spectrum,
    or, with derivatives, a zero autocorrelation coefficient at an undamped
    lag) raises :class:`PipelineError`; in a batch its rows are NaN
    instead.

    With X = fft(dV) conj(fft(V)) on the zero-padded grid, the derivative of
    the autocorrelation is dE = ifft(X + conj(X)) = ifft(2 Re X), so all p
    columns cost one batched FFT and one batched real-input FFT on top of
    the features.  The unwrap stage and the pseudo-phase subtraction leave
    derivatives untouched away from branch crossings; the argument
    differentiates as d arg(z) = Im(conj(z) dz) / |z|^2.
    """
    v = coeffs[..., 1:]
    m = v.shape[-1]
    e, fv = _autocorr(v)
    gamma = damping_weights(m, objective.bandwidth_hz, duration, objective.damping)
    values, zero, fault = _stable_phase(e, gamma)
    dvalues = None
    if dcoeffs is not None:
        singular = np.any(zero & (gamma > _UNDAMPED_TOL), axis=-1)
        if v.ndim == 1 and singular:
            raise PipelineError(
                "zero-magnitude autocorrelation coefficient at an undamped index; "
                "phase derivative is singular there"
            )
        fault |= singular
        x = np.fft.fft(dcoeffs[..., 1:], fv.shape[-1], axis=-1) * np.conj(fv)[..., None, :]
        de = _real_ifft_head(2.0 * x.real, m)
        e, zero = e[..., None, :], zero[..., None, :]  # broadcast over the p columns
        mag2 = np.where(zero, 1.0, e.real**2 + e.imag**2)
        dtheta = np.where(zero, 0.0, (np.conj(e) * de).imag / mag2)
        dvalues = np.swapaxes(gamma * dtheta, -1, -2)
    if fault.any():
        values[fault] = np.nan
        if dvalues is not None:
            dvalues[fault] = np.nan
    return values, dvalues


def phase_residual(ref_feature: PhaseFeature, sim_feature: PhaseFeature) -> np.ndarray:
    """Elementwise difference of two phase features sharing one damping.

    The common -gamma_k * pi * k normalization terms cancel exactly, so the
    residual depends only on the unwrapped relative phase.
    """
    if len(ref_feature) != len(sim_feature):
        raise ValueError("phase features must have equal length")
    if not np.array_equal(ref_feature.gamma, sim_feature.gamma):
        raise ValueError("phase features were produced with different damping weights")
    return ref_feature.values - sim_feature.values


def residual_signal(ref: Signal, sim: Signal) -> np.ndarray:
    """Plain least-squares residual ref - sim on the shared time grid."""
    _check_grid(ref, sim)
    return ref.samples - sim.samples


def residual_envelope(ref: Signal, sim: Signal) -> np.ndarray:
    """Envelope residual envelope(ref) - envelope(sim)."""
    _check_grid(ref, sim)
    return envelope(ref).samples - envelope(sim).samples


def _check_grid(ref: Signal, sim: Signal) -> None:
    if ref.n != sim.n or ref.dt != sim.dt:
        raise ValueError(
            f"signals live on different grids: n={ref.n}/{sim.n}, dt={ref.dt}/{sim.dt}"
        )


def transform_pipeline(s: Signal, cfg: PhaseObjectiveConfig) -> PhaseFeature:
    """Full objective transform: one-sided DFT, static-coefficient removal,
    positive-frequency autocorrelation, stable argument.

    Deterministic: identical inputs give bitwise-identical outputs.
    """
    values, _ = phase_features(dft_forward(s).coeffs, s.duration, cfg)
    gamma = damping_weights(values.size, cfg.bandwidth_hz, s.duration, cfg.damping)
    return PhaseFeature(values=values, gamma=gamma)


# ---------------------------------------------------------------------------
# serialization

def write_signal_csv(s: Signal, path: str | Path, header_comments: list[str] | None = None) -> None:
    """Two-column CSV (t_seconds, amplitude) with a header row, one
    ``repr(t),repr(a)`` row per sample.

    Optional comment lines (prefixed with '#') may carry provenance.
    """
    lines = [f"# {comment}" for comment in header_comments or []]
    lines.append("t_seconds,amplitude")
    lines.extend(map(str.__add__, _time_column(s.n, s.dt), map(repr, s.samples.tolist())))
    Path(path).write_text("\n".join(lines) + "\n")


@functools.lru_cache(maxsize=4, typed=True)
def _time_column(n: int, dt: float) -> tuple[str, ...]:
    """The ``repr(k*dt) + ","`` row prefixes of an (n, dt) grid; the
    references of a batch share one grid.  ``typed`` keeps an integer dt,
    whose times print as integers, apart from the equal float."""
    return tuple(f"{t!r}," for t in (np.arange(n) * dt).tolist())


def read_signal_csv(path: str | Path) -> Signal:
    """Read a :func:`write_signal_csv` file; every data row must hold two
    numbers, and the time column must be uniformly sampled.

    Blank lines and lines starting with ``#`` or ``t_seconds`` (after
    surrounding whitespace) are skipped; anything else is a data row.
    """
    rows = [
        line
        for line in Path(path).read_text().splitlines()
        if (stripped := line.strip()) and not stripped.startswith(("#", "t_seconds"))
    ]
    if len(rows) < 2:
        raise ValueError(f"{path}: too few samples for a signal")
    # one C-level parse of all rows, bitwise equal to float() on each field;
    # ValueError on a malformed field or a ragged row, and comments=None
    # keeps a trailing "# ..." on a data row malformed
    data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns per row, found {data.shape[1]}")
    t, samples = data[:, 0], data[:, 1]
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0):
        raise ValueError(f"{path}: time column is not uniformly sampled")
    return Signal(samples, dt=dt)


def write_signal_binary(s: Signal, path: str | Path) -> None:
    """Raw little-endian float64 samples behind a 16-byte header
    (magic ``WFSIG1\\0\\0`` + sample count as u64); dt goes to a ``.meta``
    sidecar next to the file.
    """
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<Q", s.n))
        fh.write(s.samples.astype("<f8").tobytes())
    path.with_suffix(path.suffix + ".meta").write_text(f"dt = {s.dt!r}\n")


def read_signal_binary(path: str | Path) -> Signal:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 16 or blob[:8] != BINARY_MAGIC:
        raise ValueError(f"{path}: not a signal binary (bad magic)")
    (n,) = struct.unpack("<Q", blob[8:16])
    samples = np.frombuffer(blob[16:], dtype="<f8")
    if samples.size != n:
        raise ValueError(f"{path}: header promises {n} samples, found {samples.size}")
    dt = None
    for line in path.with_suffix(path.suffix + ".meta").read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "dt":
            dt = float(value.strip())
    if dt is None:
        raise ValueError(f"{path}: sidecar is missing dt")
    return Signal(samples.astype(np.float64), dt=dt)


def write_feature_csv(
    feature: PhaseFeature,
    duration: float,
    path: str | Path,
    header_comments: list[str] | None = None,
) -> None:
    """Feature-vector CSV with columns k, omega_rad_per_s, value, gamma."""
    lines = []
    for comment in header_comments or []:
        lines.append(f"# {comment}")
    lines.append("k,omega_rad_per_s,value,gamma")
    for k in range(len(feature)):
        omega = _TWO_PI * k / duration
        lines.append(
            f"{k},{float(omega)!r},{float(feature.values[k])!r},{float(feature.gamma[k])!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
