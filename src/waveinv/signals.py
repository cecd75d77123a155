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

where b is the excitation bandwidth in hertz and T the record duration;
:func:`damping_weights` holds the rule for C, and :func:`transform_pipeline`
returns the values as a plain read-only array.
E_k is, up to a constant, the spectrum of the squared Hilbert envelope of u,
which is what makes phases of E a robust comparison measure: amplitude
scaling drops out entirely, and time shifts enter linearly.

All operations are pure functions on immutable inputs and are safe to call
concurrently.  The phase and analytic kernels write every FFT, product and
mask as long as the record into scratch arrays that each thread keeps for
itself (one per role, reallocated only when its shape changes; temporaries
that are never live at the same time share a role, see :func:`_scratch`),
with ``out=``, so a repeated single-record evaluation allocates nothing of
that length beyond the arrays it returns.  Two numpy behaviours would
allocate behind an ``out=``: a real operand of a complex product is cast
in a fresh buffer, so the pseudo-coefficients Y_k, the adjoint's real
factors c and q and the analytic weights are held in complex arrays; and
an operand broadcast over the rows of a 2-d operation is buffered in a
fresh array of up to 8192 elements, so derivative rows, and the rows the
analytic weights multiply, are written one at a time.  Every public
function returns fresh arrays, never one of these.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .table import data_lines, read_table, write_table

__all__ = [
    "Signal",
    "PipelineError",
    "analytic_signal",
    "envelope",
    "unwrap",
    "damping_weights",
    "phase_features",
    "transform_pipeline",
    "read_signal_csv",
    "write_signal_csv",
]

_TWO_PI = 2.0 * np.pi

#: Damping weight below which a zero-magnitude autocorrelation coefficient is
#: considered harmless for differentiation (its phase never matters).
_UNDAMPED_TOL = 1e-12

#: This thread's scratch arrays, by role; see :func:`_scratch`.
_SCRATCH = threading.local()


def _scratch(role: str, shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
    """This thread's scratch array for ``role``, a named temporary of the
    kernels below, reallocated when the shape or dtype changes.  It is
    zero-filled when allocated, so a complex role written only through its
    real part stays real.

    A large temporary freed after every evaluation lets glibc return the
    heap top to the system and fault it back in on the next evaluation (about
    75 minor faults per phase evaluation with Jacobian); reused arrays keep
    the steady state off the allocator.  The contents are overwritten by the
    next call that takes the same role on the same thread, so no public
    function may return one of these arrays or a view of it.

    A role is storage, not one temporary: a temporary may be written into
    a role's storage only when every temporary held there before is dead,
    never read again.  Three roles are shared this way.  With m lags per
    record, padded to N (:func:`_padded_shape`), ``power`` holds
    |fft(V)|^2 until the autocorrelation has read it, then the raw angles;
    ``spare`` holds Im(fft(V))^2, then E_k / Y_k as m complex values per
    record, then the differences and the turns of :func:`unwrap`.  Each
    later temporary is a contiguous block of the storage (:func:`_carve`).
    ``sums`` of the response kernel holds the carrier sums, then the
    spectra multiplied over them.  ``fv`` and ``e`` keep their own storage,
    because the derivative and reverse passes read them.
    """
    buffers = _SCRATCH.__dict__
    buf = buffers.get(role)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = buffers[role] = np.zeros(shape, dtype)
    return buf


def _padded_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """``shape`` with its last axis, m lags, replaced by the zero-padded
    length of their autocorrelation (:func:`_autocorr`): the power of two
    of at least 2 m."""
    return shape[:-1] + (1 << (2 * shape[-1] - 1).bit_length(),)


def _spare(shape: tuple[int, ...]) -> np.ndarray:
    """This thread's ``spare`` float rows for records of ``shape``, one
    zero-padded row (:func:`_padded_shape`) per record: the storage that
    the phase kernel's short-lived temporaries share (see :func:`_scratch`)."""
    return _scratch("spare", _padded_shape(shape), np.float64)


def _carve(storage: np.ndarray, shape: tuple[int, ...], dtype=np.float64, start: int = 0) -> np.ndarray:
    """A C-contiguous array of ``shape`` and ``dtype`` over the storage of
    the scratch array ``storage``, from its element ``start`` (counted in
    ``dtype``) on.  A block, unlike a strided view of the storage's rows,
    keeps numpy's loops running over whole arrays, and two blocks that do
    not overlap have extents that numpy sees apart."""
    return storage.reshape(-1).view(dtype)[start : start + math.prod(shape)].reshape(shape)


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


def analytic_signal(s: Signal) -> np.ndarray:
    """Complex analytic signal a(t) = u(t) + i*H(u)(t) of the demeaned
    samples u.

    In the frequency domain H(U)(w) = -i sgn(w) U(w), so the analytic
    spectrum is U with positive frequencies doubled and negative ones
    zeroed: one zero-padded inverse FFT.  The static coefficient gets weight
    0, which demeans the record; the self-conjugate Nyquist bin keeps unit
    weight so that Re(a) reproduces the demeaned record exactly.
    """
    return _analytic(np.fft.rfft(s.samples), s.n).copy()


@functools.lru_cache(maxsize=8)
def _analytic_weights(n: int) -> np.ndarray:
    """One-sided analytic-signal weights [0, 2, ..., 2, 1] for n samples,
    complex, as numpy would cast them for the product with the coefficients;
    read-only."""
    w = np.full(n // 2 + 1, 2.0 + 0.0j)
    w[0] = 0.0
    w[-1] = 1.0
    w.flags.writeable = False
    return w


def _analytic(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Analytic signals (:func:`analytic_signal`) of n-sample records from
    their n/2 + 1 one-sided coefficients, as from ``rfft``, one record or
    several stacked along the leading axis, in this thread's scratch arrays:
    the result is overwritten by the next call on the same thread."""
    weights, size = _analytic_weights(n), coeffs.shape[-1]
    weighted = _scratch("weighted", coeffs.shape)
    for row, out in zip(coeffs.reshape(-1, size), weighted.reshape(-1, size)):
        np.multiply(row, weights, out=out)
    return np.fft.ifft(weighted, n, axis=-1, out=_scratch("analytic", coeffs.shape[:-1] + (n,)))


def envelope(s: Signal) -> Signal:
    """Hilbert envelope e(t) = |a(t)| = sqrt(u^2 + H(u)^2) of the demeaned signal."""
    return Signal(np.abs(analytic_signal(s)), dt=s.dt)


def _autocorr(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive-lag autocorrelation E of v along its last axis and the
    zero-padded FFT of v it was computed from, both in this thread's scratch
    arrays.

    For the one-sided coefficients U_1..U_{n+} (static term excluded) as
    V = v in 0-based indexing,

        E_k = sum_{i=k}^{n+ - 1} V[i] * conj(V[i-k]),   k = 0..n+ - 1.

    E_0 is real and strictly positive for any nonzero input; it equals the
    sum of squared coefficient magnitudes (the static mode of the squared
    envelope, up to scale).

    The padded length is a power of two of at least 2 m (m = v.shape[-1]),
    so the circular correlation of the padded sequences equals the linear
    one: E = ifft(|fft(v)|^2)[:m], equal to the direct sum to roundoff.
    """
    m = v.shape[-1]
    if m == 0:
        raise ValueError("autocorrelation of an empty spectrum is undefined")
    shape = _padded_shape(v.shape)
    fv = np.fft.fft(v, shape[-1], axis=-1, out=_scratch("fv", shape))
    power = np.square(fv.real, out=_scratch("power", shape, np.float64))
    power += np.square(fv.imag, out=_spare(v.shape))
    e = _real_ifft_head(power, m, "e")
    e[..., 0] = e[..., 0].real  # exact: E_0 is a sum of |V_i|^2 (conj left a -0.0 there)
    return e, fv


def _real_ifft_head(x: np.ndarray, m: int, role: str) -> np.ndarray:
    """First m terms of ifft(x) along the last axis for real x, as
    conj(rfft(x))[:m] / N (half the work of a complex ifft), in the scratch
    array of ``role``."""
    full = _scratch(role, x.shape[:-1] + (x.shape[-1] // 2 + 1,))
    head = np.fft.rfft(x, axis=-1, norm="forward", out=full)[..., :m]
    return np.conj(head, out=head)


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
    # the differences and their turns, one block after the other in this
    # thread's spare rows, each row at least twice as long as a row of phases
    shape, spare = phases.shape[:-1] + (phases.shape[-1] - 1,), _spare(phases.shape)
    d = np.subtract(phases[..., 1:], phases[..., :-1], out=_carve(spare, shape))
    # principal value d - 2 pi ceil((d - pi) / 2 pi), in (-pi, pi]
    turns = np.subtract(d, np.pi, out=_carve(spare, shape, start=d.size))
    np.divide(turns, _TWO_PI, out=turns)
    np.ceil(turns, out=turns)
    np.subtract(d, np.multiply(_TWO_PI, turns, out=turns), out=d)
    out = np.empty_like(phases)
    out[..., 0] = phases[..., 0]
    np.add.accumulate(d, axis=-1, out=out[..., 1:])
    out[..., 1:] += phases[..., :1]
    return out


@functools.lru_cache(maxsize=32)
def damping_weights(n_coeffs: int, b: float, duration: float, c: float) -> np.ndarray:
    """Gaussian frequency weights gamma_k = exp(-C k^2 / (b T)^2), k < n_coeffs,
    of the phase objective: b is the excitation bandwidth in hertz, T the
    record duration and C the damping constant.  The whole damping rule
    lives here: C lies in [1, 10], and no weight may underflow, as exp does
    below about exp(-745), so C <= 745 (bT)^2 / (n_coeffs - 1)^2 (the last of
    the n/2 lags of an n-sample record is n/2 - 1).

    Computed once per argument tuple; gamma starts at 1, stays positive and
    does not increase.  The returned array is read-only.
    """
    if not (1.0 <= c <= 10.0):
        raise ValueError(f"damping constant must lie in [1, 10], got {c}")
    if not (b > 0.0 and duration > 0.0):
        raise ValueError("bandwidth and duration must be positive")
    if n_coeffs > 1:
        c_max = 745.0 * (b * duration) ** 2 / (n_coeffs - 1) ** 2
        if c > c_max:
            raise ValueError(
                f"damping {c} underflows the phase weights at the last lag, where they must stay positive; "
                f"the largest usable damping for this grid is 745*(bT)^2/(n/2-1)^2 = {c_max:.4g}"
            )
    k = np.arange(n_coeffs, dtype=np.float64)
    gamma = np.exp(-c * k**2 / (b * duration) ** 2)
    gamma.flags.writeable = False
    return gamma


@functools.lru_cache(maxsize=32)
def _pseudo_phases(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-coefficients Y_k = (-1)^k, complex so that they multiply a
    complex array without a cast, and pseudo-phases pi*k, k < m;
    read-only."""
    k = np.arange(m)
    y = np.where(k % 2 == 0, 1.0 + 0j, -1.0 + 0j)
    phi = np.pi * k
    y.flags.writeable = False
    phi.flags.writeable = False
    return y, phi


def _stable_phase(e: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped, normalized, unwrapped phases of autocorrelations E along the
    last axis, the mask of their exactly-zero coefficients, and the mask of
    all-zero rows (no phases at all), which a single row raises for."""
    zero = np.logical_not(e, out=_scratch("zero", e.shape, np.bool_))  # E_k == 0
    empty = zero.all(axis=-1)
    if e.ndim == 1 and empty:
        raise PipelineError("all-zero spectrum has no well-defined phases")
    y, phi = _pseudo_phases(e.shape[-1])
    # z = E_k / Y_k = E_k * Y_k in the spare rows, as complex, and the raw
    # angles in the power rows, which the autocorrelation has read
    z = np.multiply(e, y, out=_carve(_spare(e.shape), e.shape, np.complex128))
    raw = np.arctan2(z.imag, z.real, out=_carve(_scratch("power", _padded_shape(e.shape), np.float64), e.shape))
    np.copyto(raw, 0.0, where=zero)
    # the fresh array of unwrap becomes the values
    values = unwrap(raw)
    np.subtract(values, phi, out=values)
    return np.multiply(gamma, values, out=values), zero, empty


def phase_features(
    coeffs: np.ndarray, gamma: np.ndarray, dcoeffs: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Phase feature values of a one-sided spectrum and, on request, their
    derivative columns: the single implementation of the phase transform.

    ``coeffs`` holds the n/2 + 1 one-sided coefficients of a record (static
    term first, as from ``rfft``), or N such records as rows; the static
    term is dropped, the rest autocorrelated (:func:`_autocorr`) and turned
    into damped phases, n/2 values per record: each lag is normalized by the
    pseudo-coefficient Y_k = (-1)^k, the raw angles are unwrapped, the
    pseudo-phases pi*k are subtracted and the result is damped by the n/2
    weights ``gamma`` (:func:`damping_weights`; another length raises
    ``ValueError``); a coefficient of exactly zero magnitude contributes
    phase 0 before unwrapping.  ``dcoeffs`` of shape (p, n/2 + 1), or
    (N, p, n/2 + 1), holds derivatives of ``coeffs`` with respect to p
    parameters; the result then carries the (n/2, p), or (N, n/2, p),
    derivative of the feature values, else None.

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
    values, fault, (e, fv, zero, gamma) = _phase_forward(coeffs, gamma)
    dvalues = None
    if dcoeffs is not None:
        fault |= _singular(zero, gamma)
        m, size = e.shape[-1], fv.shape[-1]
        x = np.fft.fft(dcoeffs[..., 1:], size, axis=-1, out=_scratch("x", dcoeffs.shape[:-1] + (size,)))
        # one parameter column at a time, so that no operand is broadcast
        # over the columns (see the module docstring)
        np.conj(fv, out=fv)
        for i in range(x.shape[-2]):
            np.multiply(x[..., i, :], fv, out=x[..., i, :])
        de = _real_ifft_head(np.multiply(x.real, 2.0, out=_scratch("2re-x", x.shape, np.float64)), m, "de")
        mag2 = np.square(e.real, out=_scratch("mag2", e.shape, np.float64))
        mag2 += np.square(e.imag, out=_scratch("mag2-imag", e.shape, np.float64))
        np.copyto(mag2, 1.0, where=zero)
        np.conj(e, out=e)
        dtheta = _scratch("dtheta", e.shape, np.float64)
        columns = np.empty(de.shape)
        for i in range(de.shape[-2]):
            de_p = np.multiply(e, de[..., i, :], out=de[..., i, :])
            np.divide(de_p.imag, mag2, out=dtheta)
            np.copyto(dtheta, 0.0, where=zero)
            np.multiply(gamma, dtheta, out=columns[..., i, :])
        dvalues = columns.swapaxes(-1, -2)
    if fault.any():
        values[fault] = np.nan
        if dvalues is not None:
            dvalues[fault] = np.nan
    return values, dvalues


def _phase_forward(
    coeffs: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The feature values of :func:`phase_features`, the mask of rows that
    have none, and the tape its derivatives read: the autocorrelation E, the
    zero-padded fft(V) it came from (both this thread's scratch arrays),
    the mask of E's zero coefficients and the damping weights."""
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (coeffs.shape[-1] - 1,):
        raise ValueError(f"expected {coeffs.shape[-1] - 1} damping weights, one per lag, got shape {gamma.shape}")
    e, fv = _autocorr(coeffs[..., 1:])
    values, zero, fault = _stable_phase(e, gamma)
    return values, fault, (e, fv, zero, gamma)


def _singular(zero: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Rows with a zero autocorrelation coefficient at an undamped lag, where
    the phase derivative is singular; a single row raises instead."""
    undamped = np.greater(gamma, _UNDAMPED_TOL, out=_scratch("undamped", zero.shape, np.bool_))
    singular = np.logical_and(zero, undamped, out=undamped).any(axis=-1)
    if zero.ndim == 1 and singular:
        raise PipelineError(
            "zero-magnitude autocorrelation coefficient at an undamped index; phase derivative is singular there"
        )
    return singular


def _phase_pullback(tape: tuple[np.ndarray, ...], u: np.ndarray) -> np.ndarray:
    """Weights w of the n/2 + 1 one-sided coefficients with
    sum_k u_k d(values)_k = Re sum_i w_i d(coeffs)_i, for one record, from
    the tape of its :func:`_phase_forward`; w is this thread's scratch array.

    The reverse of :func:`phase_features`' derivative: with
    c_k = u_k gamma_k / |E_k|^2 (0 where E_k = 0), the real sequence
    q = irfft([-i c conj(E), 0]) pairs with 2 Re X in one sum, and
    W = fft(q conj(fft(V)))[:n/2] carries it back to V: two FFTs for any
    number of parameters.  It consumes the tape (fft(V) is conjugated in
    place) and fails where the Jacobian would.
    """
    e, fv, zero, gamma = tape
    _singular(zero, gamma)
    m, size = e.size, fv.size
    # c and q are written through the real parts of complex roles that stay
    # real, so they multiply the complex arrays without a cast
    mag2, tmp = _scratch("c-mag2", (m,), np.float64), _scratch("c-tmp", (m,), np.float64)
    c = _scratch("c", (m,))
    np.square(e.real, out=mag2)
    mag2 += np.square(e.imag, out=tmp)
    np.copyto(mag2, 1.0, where=zero)
    np.divide(np.multiply(u, gamma, out=tmp), mag2, out=c.real)
    np.copyto(c.real, 0.0, where=zero)
    w = _scratch("w", (m + 1,))
    np.multiply(np.conj(e, out=w[:m]), c, out=w[:m])
    w[:m] *= -1j
    w[m] = 0.0
    q = _scratch("q", (size,))
    np.fft.irfft(w, size, out=q.real)
    np.multiply(np.conj(fv, out=fv), q, out=fv)
    back = np.fft.fft(fv, out=_scratch("w-full", (size,)))
    w[0] = 0.0  # the static coefficient is dropped before the autocorrelation
    w[1:] = back[:m]
    return w


def transform_pipeline(s: Signal, gamma: np.ndarray) -> np.ndarray:
    """Full objective transform: one-sided DFT, static-coefficient removal,
    positive-frequency autocorrelation, stable argument damped by the s.n/2
    weights ``gamma``.  Returns the s.n/2 feature values, read-only.

    Deterministic: identical inputs give bitwise-identical outputs.
    """
    values, _ = phase_features(np.fft.rfft(s.samples), gamma)
    values.flags.writeable = False
    return values


# ---------------------------------------------------------------------------
# serialization

_SIGNAL_HEADER = "t_seconds,amplitude"

#: Relative tolerance within which two sampling intervals are the same grid.
GRID_RTOL = 1e-9


def write_signal_csv(s: Signal, path: str | Path, header_comments: list[str] | None = None) -> None:
    """Two-column table (t_seconds, amplitude), one ``repr(t),repr(a)`` row
    per sample, under optional ``# `` comment lines that carry provenance."""
    rows = zip(_time_column(s.n, s.dt), map(repr, s.samples.tolist()))
    write_table(path, header_comments or (), _SIGNAL_HEADER, rows)


@functools.lru_cache(maxsize=4, typed=True)
def _time_column(n: int, dt: float) -> tuple[str, ...]:
    """The ``repr(k*dt)`` time fields of an (n, dt) grid; the references of
    a batch share one grid.  ``typed`` keeps an integer dt, whose times
    print as integers, apart from the equal float."""
    return tuple(map(repr, (np.arange(n) * dt).tolist()))


def read_signal_csv(path: str | Path) -> Signal:
    """Read a :func:`write_signal_csv` file; every data row must hold two
    numbers, and the time column must be uniformly sampled."""
    rows = list(filter(None, data_lines(path, _SIGNAL_HEADER)))
    if len(rows) < 2:
        raise ValueError(f"{path}: too few samples for a signal")
    # one C-level parse of all rows, bitwise equal to float() on each field;
    # ValueError on a malformed field or a ragged row, and comments=None
    # keeps a trailing "# ..." on a data row malformed
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        # loadtxt counts data rows from 0; the table reader names the file
        # line of the first row that is ragged or not a number
        read_table(path, _SIGNAL_HEADER, lambda t, v: (float(t), float(v)))
        raise ValueError(f"{path}: {exc}") from exc
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns per row, found {data.shape[1]}")
    t, samples = data[:, 0], data[:, 1]
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=GRID_RTOL, atol=0.0):
        raise ValueError(f"{path}: time column is not uniformly sampled")
    return Signal(samples, dt=dt)
