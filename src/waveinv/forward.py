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

Every function from the delays to the phase objective takes one material
or a batch of them (:class:`Materials`) along a leading axis, and the
single material is the batch of one: the same operations on one row.  Model
evaluations are counted per optimization run through an explicit
:class:`EvalCounter`, one per row; a Jacobian, or the gradient of the
phase objective, shares its forward pass and never double counts.  The
Jacobian is forward mode, one derivative row per parameter; the gradient
(:func:`phase_objective_gradient`) is one reverse pass over the forward
pass's own intermediates, without the Jacobian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .signals import (
    PhaseFeature,
    PhaseObjectiveConfig,
    Signal,
    _phase_forward,
    _phase_pullback,
    _scratch,
    damping_weights,
    phase_features,
)

__all__ = [
    "MaterialParams",
    "Materials",
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
class Materials:
    """Materials of one density rho as rows (E, nu) of ``x``: shape (2,) is
    one material, shape (N, 2) a batch of N.

    The density must be positive and finite; rows are not validated here.
    The model raises for a single material outside its domain, as for a
    :class:`MaterialParams`, and turns the rows of a batch that fail the
    same checks into NaN.
    """

    x: np.ndarray
    rho: float

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != 2:
            raise ValueError(f"materials are rows (E, nu) of shape (2,) or (N, 2), got {x.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "rho", float(self.rho))
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive, got {self.rho}")


def _rows(m: MaterialParams | Materials) -> tuple[np.ndarray, float]:
    """(E, nu) of shape (2,) or (N, 2), and the density."""
    if isinstance(m, MaterialParams):
        return np.array([m.E, m.nu]), m.rho
    return m.x, m.rho


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

    The bandwidth defaults to b = 0.65 * fbar; the Gaussian excitation width
    is sigma = 1 / (pi b).  The excitation must end, tbar + 4 sigma, within
    the record of n*dt seconds.  The window must also be long enough for all
    packets to arrive with at least a 4 sigma margin, which is checked per
    material when the response is evaluated.
    """

    L: float = 0.02
    fbar: float = 3.0e6
    tbar: float = 3.0e-6
    b: float | None = None
    n: int = 4096
    dt: float = 1.0 / 48.0e6
    amplitudes: tuple[float, float, float] = (1.0, 0.4, 0.2)

    def __post_init__(self) -> None:
        if self.b is None:
            object.__setattr__(self, "b", 0.65 * self.fbar)
        if not (all(0 < v < np.inf for v in (self.L, self.fbar, self.b, self.dt)) and 0 <= self.tbar < np.inf):
            raise ValueError("forward config requires finite L, fbar, b, dt > 0 and a finite tbar >= 0")
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


def packet_delays(
    m: MaterialParams | Materials, cfg: ForwardConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrival delays tau = [tau_1, tau_2, tau_3] and their derivatives
    with respect to E and nu, each of shape (3,), or (N, 3) for a batch.

    All delays scale as E^(-1/2), so d tau_j / dE = -tau_j / (2 E).  Only
    the shear-borne path segments respond to nu.  A row outside the model
    domain (E > 0, 0 < nu < 0.5) is NaN.
    """
    x, rho = _rows(m)
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


@functools.lru_cache(maxsize=16)
def _excitation_spectrum(cfg: ForwardConfig) -> tuple[np.ndarray, np.ndarray]:
    """One-sided excitation spectrum P and its time derivative -i omega P,
    computed once per configuration; both arrays are read-only."""
    p_spec = np.fft.rfft(excitation(cfg).samples)
    omega = 2 * np.pi * np.arange(p_spec.size) / cfg.duration
    p_rate = -1j * omega * p_spec
    p_spec.flags.writeable = False
    p_rate.flags.writeable = False
    return p_spec, p_rate


def _carrier_tables(tau: np.ndarray, cfg: ForwardConfig) -> tuple[np.ndarray, np.ndarray]:
    """Coarse and fine factors of the carriers exp(-i tau_j omega_k), for
    delays tau of shape (..., 3).

    With omega_k = k dw and k = B q + r (B = _CARRIER_BLOCK), the carrier is
    coarse[..., j, q] * fine[..., j, r] with coarse = exp(-i tau B dw q) and
    fine = exp(-i tau dw r): about 3 (n/2 / B + B) complex exponentials
    instead of 3 (n/2 + 1).
    """
    dw, coarse_index, fine_index = _carrier_grid(cfg)
    coarse = np.exp(-1j * ((tau * (_CARRIER_BLOCK * dw))[..., None] * coarse_index))
    fine = np.exp(-1j * ((tau * dw)[..., None] * fine_index))
    return coarse, fine


@functools.lru_cache(maxsize=16)
def _carrier_grid(cfg: ForwardConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """The frequency step dw and the index grids q and r of the carrier
    tables, built once per configuration; the grids are read-only."""
    n_blocks = -(-(cfg.n // 2 + 1) // _CARRIER_BLOCK)
    grids = np.arange(n_blocks, dtype=np.float64), np.arange(_CARRIER_BLOCK, dtype=np.float64)
    for grid in grids:
        grid.flags.writeable = False
    return 2 * np.pi / cfg.duration, *grids


def response_spectrum(
    m: MaterialParams | Materials,
    cfg: ForwardConfig,
    counter: EvalCounter | None = None,
    need_jacobian: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One-sided response spectrum Y and, on request, its derivatives
    stacked as rows [dY/dE, dY/dnu]; one model evaluation per material.

    Y has shape (K,) and dY (2, K) for one material, (N, K) and (N, 2, K)
    for a batch of N.  Y = P sum_j a_j c_j and
    dY/dp = -i omega P sum_j a_j (d tau_j / dp) c_j over the carriers
    c_j = exp(-i tau_j omega), so one small product of weight rows with the
    carrier tables gives every sum.  Every objective starts here.

    A material has no model output when (E, nu) lies outside E > 0,
    0 < nu < 0.5, when a packet arrives less than 4 sigma before the end of
    the window, or when its spectrum is not finite.  One material then
    raises ``ValueError`` (``TruncationError`` for the window); in a batch,
    the row of each such material is NaN and is not counted.
    """
    y, dy, _ = _response(m, cfg, counter, need_jacobian)
    return y, dy


def _response(
    m: MaterialParams | Materials, cfg: ForwardConfig, counter: EvalCounter | None, need_jacobian: bool
) -> tuple[np.ndarray, np.ndarray | None, tuple[np.ndarray, ...]]:
    """:func:`response_spectrum`, and the forward pass's tape for
    :func:`_response_pullback`: the carrier tables and the delay
    derivatives d tau / dE and d tau / dnu."""
    tau, dtau_de, dtau_dnu = packet_delays(m, cfg)
    batch = tau.ndim == 2
    # the validity predicate, one row per material: a single material raises
    # where it fails, a batch masks the rows that fail.  NaN delays mark a
    # row outside the domain
    latest = cfg.tbar + tau.max(axis=-1) + 4.0 * cfg.sigma
    if not batch:
        if np.isnan(latest):
            x, _ = _rows(m)
            raise ValueError(f"(E, nu) = ({x[0]!r}, {x[1]!r}) lies outside E > 0, 0 < nu < 0.5")
        if latest > cfg.duration:
            raise TruncationError(f"last packet at {latest:.3e} s exceeds the {cfg.duration:.3e} s window")
    ok = latest <= cfg.duration
    p_spec, p_rate = _excitation_spectrum(cfg)
    a = np.asarray(cfg.amplitudes)
    if need_jacobian:
        weights = np.empty(tau.shape[:-1] + (3, 3))
        weights[..., 0, :] = a
        weights[..., 1, :] = a * dtau_de
        weights[..., 2, :] = a * dtau_dnu
    else:
        weights = a[None, :]
    coarse, fine = _carrier_tables(tau, cfg)
    # sums[..., i, q, r] = sum_j weights[..., i, j] coarse[..., j, q] fine[..., j, r]
    sums = (weights[..., None] * coarse[..., None, :, :]).swapaxes(-1, -2) @ fine[..., None, :, :]
    sums = sums.reshape(sums.shape[:-2] + (-1,))[..., : p_spec.size]
    y = p_spec * sums[..., 0, :]
    dy = p_rate * sums[..., 1:, :] if need_jacobian else None
    ok &= np.isfinite(y).all(axis=-1)
    if dy is not None:
        ok &= np.isfinite(dy).all(axis=(-2, -1))
    if not batch:
        if not ok:
            raise ValueError("simulated response is not finite")
    elif not ok.all():
        y[~ok] = np.nan
        if dy is not None:
            dy[~ok] = np.nan
    if counter is not None:
        counter.add(int(np.count_nonzero(ok)) if batch else 1)
    return y, dy, (coarse, fine, dtau_de, dtau_dnu)


def _response_pullback(tape: tuple[np.ndarray, ...], w: np.ndarray, cfg: ForwardConfig) -> np.ndarray:
    """Re sum_k w_k dY_k/d(E, nu) for one material, without building dY.

    ``tape`` comes from the :func:`_response` call that made Y and ``w``
    holds one weight per coefficient of Y.  With dY_k/dp =
    -i omega_k P_k sum_j a_j (d tau_j / dp) exp(-i tau_j omega_k), the
    pairing is Re sum_j a_j (d tau_j / dp) S_j over the three carrier sums
    S_j = sum_k h_k exp(-i tau_j omega_k), h = w (-i omega P), which the
    coarse and fine tables give as one small matrix product.
    """
    coarse, fine, dtau_de, dtau_dnu = tape
    _, p_rate = _excitation_spectrum(cfg)
    h = _scratch("pullback-h", (coarse.shape[-1], fine.shape[-1]))
    flat = h.reshape(-1)
    np.multiply(w, p_rate, out=flat[: p_rate.size])
    flat[p_rate.size :] = 0.0
    # S_j = sum_q coarse[j, q] sum_r h[q, r] fine[j, r]
    sums = np.einsum("jq,qj->j", coarse, h @ fine.T)
    return ((np.array([dtau_de, dtau_dnu]) * cfg.amplitudes) @ sums).real


def forward_response(m: MaterialParams, cfg: ForwardConfig, counter: EvalCounter | None = None) -> Signal:
    """Simulated transmission response for one material; one model
    evaluation.  The package evaluates through :func:`response_spectrum`;
    this stays public because perfbench/tracing.py's ``TRACED`` table
    names it."""
    y, _ = response_spectrum(m, cfg, counter)
    return Signal(np.fft.irfft(y, n=cfg.n), dt=cfg.dt)


def forward_jacobian(m: MaterialParams, cfg: ForwardConfig) -> tuple[Signal, Signal]:
    """Analytic derivatives (dy/dE, dy/dnu) of the time response; counts no
    evaluation."""
    _, dy = response_spectrum(m, cfg, need_jacobian=True)
    d_e, d_nu = np.fft.irfft(dy, n=cfg.n)
    return Signal(d_e, dt=cfg.dt), Signal(d_nu, dt=cfg.dt)


def phase_objective_terms(
    m: MaterialParams | Materials,
    cfg: ForwardConfig,
    objective: PhaseObjectiveConfig,
    ref_feature: PhaseFeature,
    counter: EvalCounter | None = None,
    need_jacobian: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Residual r = ref - sim of phase features and the model Jacobian
    d(sim feature)/d(E, nu), in one counted forward evaluation per material.

    For a batch of N materials, r has shape (N, M) and the Jacobian
    (N, M, 2); the rows of materials without a model output or with a
    degenerate spectrum are NaN.
    """
    y, dy = response_spectrum(m, cfg, counter, need_jacobian)
    values, dvalues = phase_features(y, cfg.duration, objective, dy)
    return _phase_residual(values, cfg, objective, ref_feature), dvalues


def phase_objective_gradient(
    m: MaterialParams | Materials,
    cfg: ForwardConfig,
    objective: PhaseObjectiveConfig,
    ref_feature: PhaseFeature,
    counter: EvalCounter | None = None,
) -> tuple[float, np.ndarray]:
    """Objective 0.5 ||r||^2 of the phase residual r = ref - sim for one
    material and its gradient with respect to (E, nu), in one counted
    forward evaluation.

    The gradient -sum_k r_k d(sim feature)_k/dp comes from one reverse pass
    over the forward pass's own intermediates (the adjoint of the phase
    kernel, then of the response spectrum), without the Jacobian.  It fails
    as :func:`phase_objective_terms` with the Jacobian does.
    """
    y, _, spectrum_tape = _response(m, cfg, counter, need_jacobian=False)
    values, _, phase_tape = _phase_forward(y, cfg.duration, objective)
    r = _phase_residual(values, cfg, objective, ref_feature)
    return 0.5 * float(r @ r), -_response_pullback(spectrum_tape, _phase_pullback(phase_tape, r), cfg)


def _phase_residual(
    values: np.ndarray, cfg: ForwardConfig, objective: PhaseObjectiveConfig, ref_feature: PhaseFeature
) -> np.ndarray:
    gamma = damping_weights(values.shape[-1], objective.bandwidth_hz, cfg.duration, objective.damping)
    if not np.array_equal(gamma, ref_feature.gamma):
        raise ValueError("reference feature was produced with different damping weights")
    return ref_feature.values - values
