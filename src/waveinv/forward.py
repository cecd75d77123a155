"""Surrogate dispersive-waveguide forward model.

A cylindrical polymer sample of length L, excited by a band-limited wave
packet, responds with a train of delayed packets: the primary packet travels
at the longitudinal bar speed c_L = sqrt(E / rho), the tertiary at the shear
speed c_T = sqrt(G / rho) with G = E / (2 (1 + nu)), and the secondary is a
mode-converted packet that spends half the path at each speed.  In the
frequency domain,

    Y(w) = P(w) * sum_j A_j * exp(-i w tau_j),
    tau_1 = L / c_L,   tau_2 = (L/2) (1/c_L + 1/c_T),   tau_3 = L / c_T,

with P the one-sided DFT of the excitation.  The closed form keeps the
Jacobian with respect to (E, nu) analytic, which the optimizer relies on.
Speeds are frequency independent; the nonlinearity of the inverse problem
enters through tau_j(E, nu).

Every model function, from the delays to the reference simulator and the
phase objective, takes the rows (E, nu) of ``x`` and the density ``rho`` of
the materials: shape (2,) is one material, shape (N, 2) a batch of N along
a leading axis, and the single material is the batch of one: the same
operations on one row.  :class:`MaterialParams` is the validated truth
record that the benchmark builds; no model function takes it.  Model
evaluations are counted per optimization run through an explicit
:class:`EvalCounter`, one per row; a Jacobian, or the gradient of the
phase objective, shares its forward pass and never double counts.  The
Jacobian is forward mode, one derivative row per parameter; the gradient
(:func:`phase_objective_gradient`), for one material only, is one reverse
pass over the forward pass's own intermediates, without the Jacobian.
The phase objective's functions take the damping weights gamma as a plain
array; :func:`phase_objective_terms` returns the model's damped features,
and its caller (:func:`~waveinv.bench.make_objective`) takes the residual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .signals import Signal, _phase_forward, _phase_pullback, _scratch, phase_features

__all__ = [
    "MaterialParams",
    "ForwardConfig",
    "EvalCounter",
    "TruncationError",
    "excitation",
    "packet_delays",
    "response_spectrum",
    "forward_response",
    "forward_jacobian",
    "phase_objective_terms",
    "phase_objective_gradient",
]

#: Fine-table length of the carrier factorization: frequency index
#: k = _CARRIER_BLOCK * q + r splits exp(-i tau k dw) into a coarse factor in
#: q and a fine factor in r.
_CARRIER_BLOCK = 64

class TruncationError(ValueError):
    """A wave packet would arrive after the end of the simulated window."""


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic material: Young's modulus E [Pa], Poisson's ratio nu [-],
    and density rho [kg/m^3].  Only (E, nu) are optimization unknowns; the
    density is fixed per material."""

    E: float
    nu: float
    rho: float

    def __post_init__(self) -> None:
        for name in ("E", "nu", "rho"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.E > 0.0 and np.isfinite(self.E)):
            raise ValueError(f"E must be positive, got {self.E}")
        if not (0.0 < self.nu < 0.5):
            raise ValueError(f"nu must lie in (0, 0.5), got {self.nu}")
        if not (self.rho > 0.0 and np.isfinite(self.rho)):
            raise ValueError(f"rho must be positive, got {self.rho}")

    def as_vector(self) -> np.ndarray:
        """Optimization unknowns [E, nu]."""
        return np.array([self.E, self.nu])


@dataclass(frozen=True)
class ForwardConfig:
    """Geometry, excitation, and sampling of the transmission response.

    The defaults are the desk-scale setup: a 20 mm sample, a 3 MHz carrier
    and 4096 samples at 16x carrier oversampling.  The carrier is chosen so
    that, within two standard deviations of the material priors, the
    raw-signal objective shows its characteristic interference ripples
    (several local minima) while the phase objective stays unimodal; much
    below ~2.5 MHz the ripples are too wide for the standard 41-point scan
    to resolve.

    The bandwidth is b = 0.65 * fbar; the Gaussian excitation width is
    sigma = 1 / (pi b).  The excitation must end, tbar + 4 sigma, within
    the record of n*dt seconds.  The window must also be long enough for all
    packets to arrive with at least a 4 sigma margin, which is checked per
    material when the response is evaluated.
    """

    L: float = 0.02
    fbar: float = 3.0e6
    tbar: float = 3.0e-6
    n: int = 4096
    dt: float = 1.0 / 48.0e6
    amplitudes: tuple[float, float, float] = (1.0, 0.4, 0.2)

    def __post_init__(self) -> None:
        if not (all(0 < v < np.inf for v in (self.L, self.fbar, self.dt)) and 0 <= self.tbar < np.inf):
            raise ValueError("forward config requires finite L, fbar, dt > 0 and a finite tbar >= 0")
        if not self.fbar < 0.5 / self.dt:
            nyquist = 0.5 / self.dt
            raise ValueError(f"carrier fbar = {self.fbar:g} Hz must lie below the Nyquist frequency {nyquist:g} Hz")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"sample count must be a power of two >= 2, got {self.n}")
        if len(self.amplitudes) != 3:
            raise ValueError("exactly three packet amplitudes are required")
        end = self.tbar + 4.0 * self.sigma
        if not end <= self.duration:
            raise ValueError(
                f"the excitation must end within the record: tbar + 4 sigma = {end:g} s exceeds n*dt = {self.duration:g} s"
            )

    @property
    def b(self) -> float:
        """Excitation bandwidth in hertz."""
        return 0.65 * self.fbar

    @property
    def sigma(self) -> float:
        return 1.0 / (np.pi * self.b)

    @property
    def duration(self) -> float:
        return self.n * self.dt


class EvalCounter:
    """Forward-evaluation counter, owned per optimization run."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, delta: int = 1) -> None:
        self.count += delta


def excitation(cfg: ForwardConfig) -> Signal:
    """Band-limited excitation wave packet
    p(t) = sin(2 pi fbar t) * exp(-(t - tbar)^2 / (2 sigma^2))."""
    t = np.arange(cfg.n) * cfg.dt
    p = np.sin(2 * np.pi * cfg.fbar * t) * np.exp(-((t - cfg.tbar) ** 2) / (2 * cfg.sigma**2))
    return Signal(p, dt=cfg.dt)


def packet_delays(x: np.ndarray, rho: float, cfg: ForwardConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrival delays tau = [tau_1, tau_2, tau_3] and their derivatives
    with respect to E and nu, each of shape (3,) for the row (E, nu) of
    ``x`` of shape (2,), or (N, 3) for the N rows of shape (N, 2).

    All delays scale as E^(-1/2), so d tau_j / dE = -tau_j / (2 E).  Only
    the shear-borne path segments respond to nu.  A row outside the model
    domain (E > 0, 0 < nu < 0.5) is NaN.
    Every model path starts here, so ``x`` of another shape, or a density
    ``rho`` that is not positive and finite, raises ``ValueError`` before
    any evaluation is counted.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != 2:
        raise ValueError(f"materials are rows (E, nu) of shape (2,) or (N, 2), got {x.shape}")
    rho = float(rho)
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive, got {rho}")
    # one Python-float row at a time: a row costs far less than the numpy
    # calls of a vectorized formula, and a batch row is the single row
    table = np.array([_row_delays(e, nu, rho, cfg.L) for e, nu in x.reshape(-1, 2).tolist()])
    table = table.reshape(x.shape[:-1] + (3, 3))
    return table[..., 0, :], table[..., 1, :], table[..., 2, :]


def _row_delays(e: float, nu: float, rho: float, length: float) -> tuple[float, ...]:
    """tau_1, tau_2, tau_3, their E derivatives and their nu derivatives
    for one row, with c_L = sqrt(E / rho) and c_T = c_L / sqrt(2 (1 + nu)).

    The model domain, bounds excluded, is 0 < E < inf and 0 < nu < 0.5, as
    MaterialParams enforces; a row outside it is NaN."""
    if not (0.0 < e < math.inf and 0.0 < nu < 0.5):
        return (math.nan,) * 9
    c_l = math.sqrt(e / rho)
    if c_l == 0.0:  # E / rho underflows: no packet ever arrives
        return (math.inf,) * 3 + (math.nan,) * 6
    two_nu1 = 2.0 * (1.0 + nu)
    c_t = c_l / math.sqrt(two_nu1)
    tau_1, tau_2, tau_3 = length / c_l, 0.5 * length * (1.0 / c_l + 1.0 / c_t), length / c_t
    # d c_T / d nu = -c_T / (2 (1 + nu)): tau responds to nu through 1/c_T
    # only, along the shear-borne path lengths 0, L/2 and L
    two_e = 2.0 * e
    return (
        tau_1,
        tau_2,
        tau_3,
        -tau_1 / two_e,
        -tau_2 / two_e,
        -tau_3 / two_e,
        0.0,
        0.5 * length / c_t / two_nu1,
        length / c_t / two_nu1,
    )


class _Grid(NamedTuple):
    """The constants of every evaluation on one configuration's grid: the
    one-sided excitation spectrum P and its time derivative -i omega P, the
    frequency steps B dw and dw of the coarse and fine carrier tables with
    their index grids q and r (B = _CARRIER_BLOCK), the packet amplitudes,
    and the 4 sigma arrival margin.  The arrays are read-only."""

    p_spec: np.ndarray
    p_rate: np.ndarray
    coarse_step: float
    fine_step: float
    coarse_index: np.ndarray
    fine_index: np.ndarray
    amplitudes: np.ndarray
    margin: float


@functools.lru_cache(maxsize=16)
def _grid(cfg: ForwardConfig) -> _Grid:
    """The :class:`_Grid` of ``cfg``, built once per configuration."""
    p_spec = np.fft.rfft(excitation(cfg).samples)
    omega = 2 * np.pi * np.arange(p_spec.size) / cfg.duration
    p_rate = -1j * omega * p_spec
    dw = 2 * np.pi / cfg.duration
    n_blocks = -(-(cfg.n // 2 + 1) // _CARRIER_BLOCK)
    coarse_index, fine_index = np.arange(n_blocks, dtype=np.float64), np.arange(_CARRIER_BLOCK, dtype=np.float64)
    amplitudes = np.array(cfg.amplitudes, dtype=np.float64)
    for array in (p_spec, p_rate, coarse_index, fine_index, amplitudes):
        array.flags.writeable = False
    return _Grid(p_spec, p_rate, _CARRIER_BLOCK * dw, dw, coarse_index, fine_index, amplitudes, 4.0 * cfg.sigma)


def _carrier_tables(tau: np.ndarray, grid: _Grid) -> tuple[np.ndarray, np.ndarray]:
    """Coarse and fine factors of the carriers exp(-i tau_j omega_k), for
    delays tau of shape (..., 3).

    With omega_k = k dw and k = B q + r (B = _CARRIER_BLOCK), the carrier is
    coarse[..., j, q] * fine[..., j, r] with coarse = exp(-i tau B dw q) and
    fine = exp(-i tau dw r): about 3 (n/2 / B + B) complex exponentials
    instead of 3 (n/2 + 1).
    """
    q = grid.coarse_index.size
    phases = np.empty(tau.shape + (q + grid.fine_index.size,))
    np.multiply((tau * grid.coarse_step)[..., None], grid.coarse_index, out=phases[..., :q])
    np.multiply((tau * grid.fine_step)[..., None], grid.fine_index, out=phases[..., q:])
    carriers = np.exp(-1j * phases)  # both tables in one call
    return carriers[..., :q], carriers[..., q:]


def response_spectrum(
    x: np.ndarray,
    rho: float,
    cfg: ForwardConfig,
    counter: EvalCounter | None = None,
    need_jacobian: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One-sided response spectrum Y and, on request, its derivatives
    stacked as rows [dY/dE, dY/dnu]; one model evaluation per material.

    Y has shape (K,) and dY (2, K) for one material, the row (E, nu) of
    ``x`` of shape (2,), and (N, K) and (N, 2, K) for the N rows of shape
    (N, 2); ``rho`` is their density.  Y = P sum_j a_j c_j and
    dY/dp = -i omega P sum_j a_j (d tau_j / dp) c_j over the carriers
    c_j = exp(-i tau_j omega), so one small product of weight rows with the
    carrier tables gives every sum.  Every objective starts here; Y and dY
    are copies of the rows that the kernel writes in place over its carrier
    sums, in this thread's ``sums`` scratch array.

    A material has no model output when (E, nu) lies outside E > 0,
    0 < nu < 0.5, when a packet arrives less than 4 sigma before the end of
    the window, or when its spectrum is not finite.  One material then
    raises ``ValueError`` (``TruncationError`` for the window); in a batch,
    the row of each such material is NaN and is not counted.
    """
    spectra, _ = _response(x, rho, cfg, counter, need_jacobian)
    return spectra[..., 0, :].copy(), spectra[..., 1:, :].copy() if need_jacobian else None


def _response(
    x: np.ndarray, rho: float, cfg: ForwardConfig, counter: EvalCounter | None, need_jacobian: bool
) -> tuple[np.ndarray, tuple]:
    """:func:`response_spectrum` as the stacked rows [Y; dY/dE; dY/dnu]
    along the second-to-last axis (the row Y alone without the Jacobian),
    and the forward pass's tape for :func:`_response_pullback`: the grid,
    the carrier tables and the delay derivatives d tau / dE and d tau / dnu.
    The rows are the first K columns of this thread's ``sums`` scratch rows,
    which hold the carrier sums until each is multiplied in place, so they
    are a view whose rows are not contiguous with each other."""
    grid = _grid(cfg)
    tau, dtau_de, dtau_dnu = packet_delays(x, rho, cfg)
    batch = tau.ndim == 2
    # the validity predicate, one row per material: a single material raises
    # where it fails, checked on the Python floats of its delays, and a batch
    # masks the rows that fail.  NaN delays mark a row outside the domain
    if not batch:
        latest = cfg.tbar + max(tau.tolist()) + grid.margin
        if math.isnan(latest):
            raise ValueError(f"(E, nu) = ({x[0]!r}, {x[1]!r}) lies outside E > 0, 0 < nu < 0.5")
        if latest > cfg.duration:
            raise TruncationError(f"last packet at {latest:.3e} s exceeds the {cfg.duration:.3e} s window")
    else:
        ok = cfg.tbar + tau.max(axis=-1) + grid.margin <= cfg.duration
    a = grid.amplitudes
    if need_jacobian:
        weights = np.empty(tau.shape[:-1] + (3, 3))
        weights[..., 0, :] = a
        np.multiply(a, dtau_de, out=weights[..., 1, :])
        np.multiply(a, dtau_dnu, out=weights[..., 2, :])
    else:
        weights = a[None, :]
    coarse, fine = _carrier_tables(tau, grid)
    # sums[..., i, q, r] = sum_j weights[..., i, j] coarse[..., j, q] fine[..., j, r]
    terms = (weights[..., None] * coarse[..., None, :, :]).swapaxes(-1, -2)
    sums = np.matmul(terms, fine[..., None, :, :], out=_scratch("sums", terms.shape[:-1] + fine.shape[-1:]))
    size = grid.p_spec.size
    # rows [Y; dY/dE; dY/dnu] = [P; -i omega P; -i omega P] sums, in place in
    # the first size columns of the sums rows, one row at a time: numpy
    # buffers a factor broadcast over the rows in a fresh array
    spectra = sums.reshape(sums.shape[:-2] + (-1,))[..., :size]
    for i in range(spectra.shape[-2]):
        np.multiply(grid.p_rate if i else grid.p_spec, spectra[..., i, :], out=spectra[..., i, :])
    parts = spectra.view(np.float64)  # a complex value is finite when both parts are
    finite = np.isfinite(parts, out=_scratch("finite", parts.shape, np.bool_)).all(axis=(-2, -1))
    if not batch:
        if not finite:
            raise ValueError("simulated response is not finite")
    else:
        ok &= finite
        if not ok.all():
            spectra[~ok] = np.nan
    if counter is not None:
        counter.add(int(np.count_nonzero(ok)) if batch else 1)
    return spectra, (grid, coarse, fine, dtau_de, dtau_dnu)


def _response_pullback(tape: tuple, w: np.ndarray) -> np.ndarray:
    """Re sum_k w_k dY_k/d(E, nu) for one material, without building dY.

    ``tape`` comes from the :func:`_response` call that made Y and ``w``
    holds one weight per coefficient of Y.  With dY_k/dp =
    -i omega_k P_k sum_j a_j (d tau_j / dp) exp(-i tau_j omega_k), the
    pairing is Re sum_j a_j (d tau_j / dp) S_j over the three carrier sums
    S_j = sum_k h_k exp(-i tau_j omega_k), h = w (-i omega P), which the
    coarse and fine tables give as one small matrix product.
    """
    grid, coarse, fine, dtau_de, dtau_dnu = tape
    h = _scratch("pullback-h", (coarse.shape[-1], fine.shape[-1]))
    flat = h.reshape(-1)
    size = grid.p_rate.size
    np.multiply(w, grid.p_rate, out=flat[:size])
    flat[size:] = 0.0
    # S_j = sum_q coarse[j, q] sum_r h[q, r] fine[j, r]
    s = [z.real for z in np.einsum("jq,qj->j", coarse, h @ fine.T).tolist()]
    a = grid.amplitudes.tolist()
    # sum_j (d tau_j / dp a_j) Re S_j on Python floats, left to right
    return np.array(
        [(dtau[0] * a[0] * s[0] + dtau[1] * a[1] * s[1]) + dtau[2] * a[2] * s[2] for dtau in (dtau_de.tolist(), dtau_dnu.tolist())]
    )


def forward_response(x: np.ndarray, rho: float, cfg: ForwardConfig) -> Signal:
    """Simulated transmission response for one material, the row (E, nu)
    of ``x`` of shape (2,); counts no evaluation.  The reference simulator:
    every virtual measurement (:func:`~waveinv.bench.gen_refs`,
    :func:`~waveinv.bench.mean_reference`) is this record.  It raises as
    :func:`response_spectrum` does for one material."""
    y, _ = response_spectrum(x, rho, cfg)
    return Signal(np.fft.irfft(y, n=cfg.n), dt=cfg.dt)


def forward_jacobian(x: np.ndarray, rho: float, cfg: ForwardConfig) -> tuple[Signal, Signal]:
    """Analytic derivatives (dy/dE, dy/dnu) of the time response of one
    material, the row (E, nu) of ``x``; counts no evaluation."""
    _, dy = response_spectrum(x, rho, cfg, need_jacobian=True)
    d_e, d_nu = np.fft.irfft(dy, n=cfg.n)
    return Signal(d_e, dt=cfg.dt), Signal(d_nu, dt=cfg.dt)


def phase_objective_terms(
    x: np.ndarray,
    rho: float,
    cfg: ForwardConfig,
    gamma: np.ndarray,
    counter: EvalCounter | None = None,
    need_jacobian: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The model's phase features, damped by the weights ``gamma``
    (:func:`~waveinv.signals.damping_weights`), and their Jacobian
    d(features)/d(E, nu) at the rows (E, nu) of ``x`` of density ``rho``, in
    one counted forward evaluation per material.  The residual against a
    reference's features is taken by the caller
    (:func:`~waveinv.bench.make_objective`).

    For one material, ``x`` of shape (2,), the features have shape (M,) and
    the Jacobian (M, 2).  For a batch of N, ``x`` of shape (N, 2), they have
    shape (N, M) and (N, M, 2); the rows of materials without a model output
    or with a degenerate spectrum are NaN.
    """
    spectra, _ = _response(x, rho, cfg, counter, need_jacobian)
    dy = spectra[..., 1:, :] if need_jacobian else None
    return phase_features(spectra[..., 0, :], gamma, dy)


def phase_objective_gradient(
    x: np.ndarray,
    rho: float,
    cfg: ForwardConfig,
    ref_values: np.ndarray,
    gamma: np.ndarray,
    counter: EvalCounter | None = None,
) -> tuple[float, np.ndarray]:
    """Objective 0.5 ||r||^2 of the phase residual r = ref_values - features
    for one material, the row (E, nu) of ``x`` of shape (2,) and density
    ``rho``, with the model's features damped by ``gamma``, and its gradient
    with respect to (E, nu), in one counted forward evaluation.  ``x`` of
    another shape raises ``ValueError`` before any evaluation is counted.

    The gradient -sum_k r_k d(features)_k/dp comes from one reverse pass
    over the forward pass's own intermediates (the adjoint of the phase
    kernel, then of the response spectrum), without the Jacobian.  It fails
    as :func:`phase_objective_terms` with the Jacobian does.
    """
    if np.shape(x) != (2,):
        raise ValueError(f"the phase gradient takes one material, a row (E, nu) of shape (2,), got {np.shape(x)}")
    spectra, spectrum_tape = _response(x, rho, cfg, counter, need_jacobian=False)
    values, _, phase_tape = _phase_forward(spectra[..., 0, :], gamma)
    r = np.subtract(ref_values, values, out=values)
    return 0.5 * float(r @ r), -_response_pullback(spectrum_tape, _phase_pullback(phase_tape, r))
