"""Benchmark orchestration: virtual measurements, batch optimizer runs with
honest evaluation counting, objective-surface scans, manifold export, and
report emission.

Everything is file-driven and deterministic: a configuration (flat
``key = value`` text) plus a seed fully determine every emitted byte.  CSV
headers carry comment lines with the seed and a checksum of the resolved
configuration so downstream artifacts can be traced to their inputs.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .forward import (
    EvalCounter,
    ForwardConfig,
    MaterialParams,
    _response,
    forward_response,
    phase_objective_gradient,
    phase_objective_terms,
)
from .optim import METHODS, MODEL_ERRORS, OptimizeOptions, OptTrace, bfgs_baseline, optimize, write_trace_csv
from .signals import (
    GRID_RTOL,
    Signal,
    _analytic,
    _scratch,
    damping_weights,
    envelope,
    read_signal_csv,
    transform_pipeline,
    write_signal_csv,
)
from .stats import (
    BUILTIN_PRIORS,
    MATERIALS,
    MaterialPrior,
    Stream,
    apply_marginals,
    lhs_sample,
    load_priors,
)
from .table import cell, read_table, write_table

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Reference",
    "RunResult",
    "BenchResult",
    "SurfaceResult",
    "load_config",
    "config_checksum",
    "gen_refs",
    "mean_reference",
    "write_refs",
    "read_refs",
    "draw_starts",
    "run_single",
    "optimize_batch",
    "write_batch",
    "surface_scan",
    "write_surface",
    "manifold_export",
    "write_manifold",
    "report",
]

log = logging.getLogger(__name__)

OBJECTIVES = ("signal", "envelope", "autocorr-phase")

#: Relative error floor used when log-averaging error trajectories.
_LOG_FLOOR = 1e-16

#: Nodes per batched evaluation in surface scans.  At n = 4096 a
#: residual-only phase evaluation keeps 199 KiB of scratch per row: the
#: zero-padded fft(V), 64 KiB; the carrier sums with the spectrum written
#: over them, 33 KiB; the power rows, the spare rows and E, 32 KiB each; two
#: masks, 6 KiB: 3.1 MiB per chunk.  Larger chunks (a whole 41-node grid
#: row) fall out of cache and are slower per node; 8-row chunks make the
#: surfaces about 4% slower.
_CHUNK = 16

#: Nodes per batched evaluation in manifold exports.  A surface keeps one
#: float per node beside a chunk's scratch, but the manifold keeps its whole
#: (nodes, lags) output array, 1.27 MiB at the default 9x9 grid, and the
#: scratch comes on top of it: 1.6 MiB at 8 rows against 3.1 MiB at 16, and
#: the 81 nodes take as long either way.
_MANIFOLD_CHUNK = 8

#: Upper bound on n_refs.  lhs_sample scores each candidate design through
#: the n x n x 2 float64 array of pairwise differences of its n draws;
#: 4096 draws make that array 256 MiB.
_MAX_REFS = 4096


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark experiment: material, objective, optimizer, scales."""

    material: str = "PEEK"
    objective: str = "autocorr-phase"
    optimizer: str = "modified-lm"
    n_refs: int = 20
    seed: int = 1
    cutoff: float = 1e-6
    eval_budget: int = 200
    damping: float = 1.0
    lhs_restarts: int = 100
    start_sigma: float = 1.0
    grid_n: int = 41
    grid_sigmas: float = 2.0
    manifold_grid_n: int = 9
    manifold_dim: int = 3
    fbar: float = ForwardConfig.fbar
    tbar: float = ForwardConfig.tbar
    L: float = ForwardConfig.L
    n: int = ForwardConfig.n
    dt: float = ForwardConfig.dt
    priors_file: str = ""

    def __post_init__(self) -> None:
        if self.priors_file:
            try:
                priors = load_priors(self.priors_file)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"priors_file: {exc}") from exc
            if self.material not in priors:
                raise ConfigError(f"material {self.material!r} not found in {self.priors_file}")
            prior = priors[self.material]
        elif self.material in MATERIALS:
            prior = BUILTIN_PRIORS[self.material]
        else:
            raise ConfigError(f"unknown material {self.material!r}; expected one of {MATERIALS}")
        object.__setattr__(self, "_prior", prior)  # not a field: the checksum covers priors_file
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}; expected one of {OBJECTIVES}")
        if self.optimizer not in METHODS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; expected one of {METHODS}")
        if self.n_refs < 1:
            raise ConfigError("need at least one reference")
        if self.n_refs > _MAX_REFS:
            raise ConfigError(
                f"n_refs must be at most {_MAX_REFS}, got {self.n_refs}: the Latin hypercube compares all "
                f"pairs of draws in an n_refs x n_refs x 2 array of 8-byte floats, 256 MiB at the bound"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.lhs_restarts < 1:
            raise ConfigError(f"lhs_restarts must be at least 1, got {self.lhs_restarts}")
        if self.grid_n < 3:
            raise ConfigError(f"grid_n must be at least 3 (one interior node), got {self.grid_n}")
        for name in ("start_sigma", "grid_sigmas"):
            if not (0.0 < getattr(self, name) < np.inf):
                raise ConfigError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not all(np.isfinite(hi - lo) for lo, hi in _grid_ends(self)):
            raise ConfigError(f"grid_sigmas = {self.grid_sigmas} puts the grid end points beyond float range")
        if self.manifold_grid_n < 2:
            raise ConfigError(f"manifold_grid_n must be at least 2, got {self.manifold_grid_n}")
        if self.manifold_dim < 1:
            raise ConfigError(f"manifold_dim must be at least 1, got {self.manifold_dim}")
        if not (0.0 < self.cutoff < np.inf):
            raise ConfigError(f"success cutoff must be finite and positive, got {self.cutoff}")
        if self.eval_budget < 1:
            raise ConfigError("evaluation budget must be at least 1")
        try:
            fwd = self.forward_config()
            # C alone on the raw objectives; the phase objective's n/2 weights
            # must also not underflow
            damping_weights(fwd.n // 2 if self.objective == "autocorr-phase" else 1, fwd.b, fwd.duration, self.damping)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def forward_config(self) -> ForwardConfig:
        return ForwardConfig(L=self.L, fbar=self.fbar, tbar=self.tbar, n=self.n, dt=self.dt)

    def prior(self) -> MaterialPrior:
        """The material's built-in prior, or its prior in ``priors_file`` as
        read at construction."""
        return self._prior


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def load_config(path: str | Path | None, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a flat ``key = value`` file (comments with '#'), apply overrides,
    and validate.  Override keys are read as file keys ('-' as '_', unknown
    keys rejected); an override of None is no override."""
    values: dict = {}

    def put(key: str, value, where: str) -> None:
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}unknown key {key!r}")
        if value is not None:
            values[key] = value

    if path is not None:
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            put(key, value.strip(), f"{path}:{lineno}: ")
    for key, value in (overrides or {}).items():
        put(key, value, "override: ")
    kwargs = {}
    for key, value in values.items():
        target = _FIELD_TYPES[key]
        try:
            if target == "int":
                kwargs[key] = int(str(value), 0)
            elif target == "float":
                kwargs[key] = float(value)
            else:
                kwargs[key] = str(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_checksum(cfg: ExperimentConfig) -> str:
    canonical = "\n".join(f"{f.name} = {getattr(cfg, f.name)!r}" for f in fields(ExperimentConfig))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _header(cfg: ExperimentConfig, **extra) -> list[str]:
    lines = [f"config_checksum={config_checksum(cfg)}", f"seed={cfg.seed}"]
    lines.extend(f"{k}={v}" for k, v in extra.items())
    return lines


# ---------------------------------------------------------------------------
# reference generation

@dataclass(frozen=True)
class Reference:
    """One virtual measurement: ground-truth material and its response."""

    ref_id: int
    truth: MaterialParams
    signal: Signal


def gen_refs(cfg: ExperimentConfig) -> list[Reference]:
    """Draw ground truths through the optimized LHS and the marginal inverse
    CDFs, nu truncated below 0.5, then simulate one response per truth with
    :func:`~waveinv.forward.forward_response`.

    A truth without a model output (its packets do not fit the window, or
    its spectrum is not finite) is logged and skipped; the batch never
    aborts.
    """
    prior = cfg.prior()
    if cfg.n_refs == 1:
        # a hypercube needs two strata; a single truth is one uniform draw
        unit = Stream([cfg.seed, 1]).uniform(size=(1, 2))
    else:
        unit = lhs_sample(cfg.n_refs, 2, seed=cfg.seed, restarts=cfg.lhs_restarts)
    draws = apply_marginals(unit, prior, ((0.0, np.inf), (0.0, 0.5)))
    rho = prior.rho_si()
    fwd = cfg.forward_config()
    truths = [MaterialParams(E=e, nu=nu, rho=rho) for e, nu in draws]
    refs = []
    for i, truth in enumerate(truths):
        try:
            signal = forward_response(truth.as_vector(), truth.rho, fwd)
        except ValueError:
            log.warning("reference %d failed: truth %s has no model output", i, truth)
            continue
        refs.append(Reference(ref_id=i, truth=truth, signal=signal))
    return refs


_REFS_HEADER = "ref_id,E_pa,nu,rho_kg_m3,file"
_RUNS_HEADER = "ref_id,status,success,evals_to_success,E_final,nu_final,E_true,nu_true"


def write_refs(refs: list[Reference], cfg: ExperimentConfig, out_dir: str | Path) -> None:
    ref_dir, rows = Path(out_dir) / "refs", []
    for ref in refs:
        name = f"ref_{ref.ref_id:03d}.csv"
        write_signal_csv(ref.signal, ref_dir / name, header_comments=_header(cfg, ref_id=ref.ref_id))
        rows.append([str(ref.ref_id), repr(ref.truth.E), repr(ref.truth.nu), repr(ref.truth.rho), name])
    write_table(ref_dir / "index.csv", _header(cfg, material=cfg.material), _REFS_HEADER, rows)


def read_refs(out_dir: str | Path) -> list[Reference]:
    ref_dir = Path(out_dir) / "refs"
    if not (ref_dir / "index.csv").exists():
        raise ConfigError(f"no references found under {ref_dir}; run gen-refs first")

    seen = set()

    def parse(ref_id, e_pa, nu, rho, name):
        ref_id = int(ref_id)
        if ref_id in seen:  # its run would overwrite the first one's trace file
            raise ValueError(f"repeated ref_id {ref_id}")
        seen.add(ref_id)
        truth = MaterialParams(E=float(e_pa), nu=float(nu), rho=float(rho))
        return Reference(ref_id=ref_id, truth=truth, signal=read_signal_csv(ref_dir / name))

    return read_table(ref_dir / "index.csv", _REFS_HEADER, parse)


def mean_reference(cfg: ExperimentConfig) -> Reference:
    """Reference simulated at the prior-mean parameters, float-pinned to the
    center node of the surface grid.

    The self-residual 0.5 ||r||^2 is rounding, not zero: the reference is
    a time record, and each objective transforms it again.  At the default
    41 x 41 PEEK center it reads 4.8e-31 on ``signal`` (the rounding of
    ``rfft(irfft(Y))``), 9.4e-31 on ``envelope`` and 1.4e-25 on
    ``autocorr-phase``; the nearest ``signal`` neighbor reads 2.6e-3."""
    e_values, nu_values, _ = _grid_nodes(cfg, cfg.grid_n)
    center = cfg.grid_n // 2
    truth = MaterialParams(E=float(e_values[center]), nu=float(nu_values[center]), rho=cfg.prior().rho_si())
    return Reference(ref_id=0, truth=truth, signal=forward_response(truth.as_vector(), truth.rho, cfg.forward_config()))


# ---------------------------------------------------------------------------
# objective closures

def make_objective(cfg: ExperimentConfig, ref: Reference):
    """Build the residual/Jacobian and scalar/gradient callbacks for one
    reference, sharing an evaluation counter.

    Returns (evaluate, fg, counter, ref_norm): ``evaluate(x, need_jac)`` for
    residual-based methods, ``fg(x)`` for BFGS; either call is exactly one
    forward evaluation.  ``evaluate`` also takes N points as the rows of an
    (N, 2) array and returns (N, M) residual rows and (N, M, 2) Jacobians,
    one evaluation per row; a point without a model output raises alone and
    is a NaN row in a batch.  ``fg`` returns 0.5 ||r||^2 and its gradient:
    on the phase objective from one reverse pass that never builds the
    Jacobian (:func:`~waveinv.forward.phase_objective_gradient`), on the
    signal and envelope objectives as -J^T r.
    """
    fwd = cfg.forward_config()
    counter = EvalCounter()
    rho = ref.truth.rho

    if cfg.objective == "autocorr-phase":
        # the model's features are damped by the reference's weights
        gamma = damping_weights(fwd.n // 2, fwd.b, fwd.duration, cfg.damping)
        ref_values = transform_pipeline(ref.signal, gamma)
        ref_norm = float(np.linalg.norm(ref_values))

        def evaluate(x, need_jacobian=True):
            values, dvalues = phase_objective_terms(x, rho, fwd, gamma, counter=counter, need_jacobian=need_jacobian)
            return np.subtract(ref_values, values, out=values), dvalues

        def fg(x):
            return phase_objective_gradient(x, rho, fwd, ref_values, gamma, counter)

    elif cfg.objective == "signal":
        # r = ref - irfft(Y) and the columns of J in the orthonormal real
        # Fourier basis: the same ||r||, J^T J and J^T r, with no FFT
        ref_coeffs = np.fft.rfft(ref.signal.samples)
        ref_norm = float(np.linalg.norm(ref.signal.samples))
        scale = np.full(fwd.n, np.sqrt(2.0 / fwd.n))
        scale[[0, -1]] = np.sqrt(1.0 / fwd.n)

        def evaluate(x, need_jacobian=True):
            # the stacked rows [Y; dY] are this thread's scratch array, so Y
            # turns into ref - Y in place, one material at a time
            spectra, _ = _response(x, rho, fwd, counter, need_jacobian)
            for y in spectra.reshape(-1, *spectra.shape[-2:])[:, 0]:
                np.subtract(ref_coeffs, y, out=y)
            coords = _real_fourier(spectra, scale)
            return coords[..., 0, :], (np.swapaxes(coords[..., 1:, :], -1, -2) if need_jacobian else None)

    else:  # envelope
        ref_vec = envelope(ref.signal).samples
        ref_norm = float(np.linalg.norm(ref_vec))

        def evaluate(x, need_jacobian=True):
            # the analytic rows [a; da] of the stacked spectra [Y; dY] and
            # the envelope |a| are this thread's scratch arrays, overwritten
            # in place one material and one row at a time, as in the signals
            # kernels; the rows [r; dr] are new
            spectra, _ = _response(x, rho, fwd, counter, need_jacobian)
            a = _analytic(spectra, fwd.n)
            out = np.empty(a.shape)
            env = _scratch("envelope", (fwd.n,), np.float64)
            stack = a.shape[-2:]  # the rows [a; da] of one material
            for rows, dest in zip(a.reshape(-1, *stack), out.reshape(-1, *stack)):
                a0 = rows[0]
                np.subtract(ref_vec, np.abs(a0, out=env), out=dest[0])
                if need_jacobian:
                    # d|a| = Re(conj(a) da) / |a|, with |a| floored where it vanishes
                    np.maximum(env, 1e-12 * max(float(env.max()), 1e-300), out=env)
                    np.conj(a0, out=a0)
                    for da, column in zip(rows[1:], dest[1:]):
                        np.divide(np.multiply(a0, da, out=da).real, env, out=column)
            return out[..., 0, :], (np.swapaxes(out[..., 1:, :], -1, -2) if need_jacobian else None)

    if cfg.objective != "autocorr-phase":

        def fg(x):
            r, jac = evaluate(x, True)
            return 0.5 * float(r @ r), -(jac.T @ r)

    return evaluate, fg, counter, ref_norm


def _real_fourier(coeffs: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Coordinates of ``irfft(coeffs, n)`` in the orthonormal real Fourier
    basis, along the last axis: [Re c_0, Re c_1, Im c_1, ..., Im c_{n/2-1},
    Re c_{n/2}] times ``scale``, sqrt(1/n) at the two real bins and sqrt(2/n)
    elsewhere.  irfft drops the imaginary parts of the zero and Nyquist
    bins, and so does this map; by Parseval it preserves inner products.
    Rows are scaled one at a time, as the signals kernels write them: numpy
    can buffer a factor broadcast over several rows in a fresh array of up
    to 8192 elements."""
    parts = coeffs.view(np.float64)
    out = np.empty(parts.shape[:-1] + scale.shape)
    for row, dest in zip(parts.reshape(-1, parts.shape[-1])[:, 1:-1], out.reshape(-1, scale.size)):
        np.multiply(row, scale, out=dest)
    out[..., 0] = parts[..., 0] * scale[0]
    return out


def _modulus_floor(cfg: ExperimentConfig, rho: float) -> float:
    """Smallest Young's modulus whose slowest packet still fits the window,
    at the stiffest-to-shear limit nu -> 0.5, with a 10% safety margin."""
    fwd = cfg.forward_config()
    usable = fwd.duration - fwd.tbar - 4.0 * fwd.sigma
    c_t_min = fwd.L / usable
    return 1.1 * rho * c_t_min**2 * 3.0


def draw_starts(cfg: ExperimentConfig, count: int) -> np.ndarray:
    """Initial estimates (E in Pa, nu) drawn by :func:`~waveinv.stats.apply_marginals`
    within +- start_sigma standard deviations of the marginal means.

    The stream depends only on (seed, "starts"), so runs with different
    optimizers see identical starts.
    """
    prior = cfg.prior()
    marginals = [prior.marginals[par] for par in ("E", "nu")]
    bounds = [(d.mean - cfg.start_sigma * d.std, d.mean + cfg.start_sigma * d.std) for d in marginals]
    return apply_marginals(Stream([cfg.seed, 7]).uniform(size=(2, count)).T, prior, bounds)


def run_single(cfg: ExperimentConfig, ref: Reference, x0: np.ndarray) -> tuple[OptTrace, EvalCounter]:
    """One optimization run against one reference; the trace carries one
    record per forward evaluation."""
    evaluate, fg, counter, ref_norm = make_objective(cfg, ref)
    opts = OptimizeOptions(
        method=cfg.optimizer,
        max_evals=cfg.eval_budget,
        bounds=((_modulus_floor(cfg, ref.truth.rho), np.inf), (0.0, 0.5)),
        ground_truth=ref.truth.as_vector(),
        ref_norm=ref_norm,
    )
    if cfg.optimizer == "bfgs":
        return bfgs_baseline(fg, x0, opts), counter
    return optimize(evaluate, x0, opts), counter


# ---------------------------------------------------------------------------
# batches

@dataclass
class RunResult:
    ref_id: int
    truth: MaterialParams
    trace: OptTrace
    evals_to_success: int | None

    @property
    def success(self) -> bool:
        return self.evals_to_success is not None


@dataclass
class BenchResult:
    cfg: ExperimentConfig
    runs: list[RunResult] = field(default_factory=list)

    def evals_to_success(self) -> list[int]:
        return [r.evals_to_success for r in self.runs if r.success]

    def error_curves(self) -> list[tuple[int, float, float, float]]:
        """Step-extended rel1 trajectories against cumulative evaluations:
        rows (eval, log-mean, min, max) across runs (the hull and the solid
        line of the convergence figures)."""
        budget = max((r.trace.eval_count for r in self.runs), default=0)
        rows = []
        for e in range(1, budget + 1):
            current = []
            for run in self.runs:
                rel = None
                for count, rec in enumerate(run.trace.records, start=1):
                    if count <= e and not np.isnan(rec.rel1):
                        rel = rec.rel1
                    if count > e:
                        break
                if rel is not None:
                    current.append(max(rel, _LOG_FLOOR))
            if current:
                rows.append(
                    (e, float(np.exp(np.mean(np.log(current)))), float(np.min(current)), float(np.max(current)))
                )
        return rows


def optimize_batch(cfg: ExperimentConfig, refs: list[Reference]) -> BenchResult:
    """Run the configured optimizer against every reference.

    Success means the relative parameter error drops below the cutoff within
    the evaluation budget; the evaluation index of the first such record is
    the run's evaluations-to-success.  Per-run failures (model errors,
    stalls) are recorded as unsuccessful and never abort the batch.
    """
    if not refs:
        raise ConfigError("no references to optimize against")
    for ref in refs:
        if ref.signal.n != cfg.n or abs(ref.signal.dt - cfg.dt) > GRID_RTOL * cfg.dt:
            raise ConfigError(
                f"reference {ref.ref_id} is sampled at (n, dt) = ({ref.signal.n}, {ref.signal.dt:.10g}), "
                f"but the configuration asks for ({cfg.n}, {cfg.dt:.10g})"
            )
    starts = draw_starts(cfg, len(refs))
    result = BenchResult(cfg=cfg)
    for row, ref in enumerate(refs):
        x0 = starts[row]
        try:
            trace, counter = run_single(cfg, ref, x0)
        except MODEL_ERRORS as exc:
            log.warning("run %d failed outright: %s", ref.ref_id, exc)
            result.runs.append(RunResult(ref.ref_id, ref.truth, OptTrace(status="error", message=str(exc)), None))
            continue
        # every counted evaluation is in the trace, except one that raised
        unrecorded = counter.count - trace.eval_count
        if unrecorded != 0 and not (trace.status == "error" and unrecorded == 1):
            raise RuntimeError(
                f"run {ref.ref_id}: trace counted {trace.eval_count} evaluations, "
                f"model counted {counter.count}"
            )
        evals = trace.evals_to(lambda rec: rec.rel1 < cfg.cutoff)
        result.runs.append(RunResult(ref.ref_id, ref.truth, trace, evals))
    return result


def write_batch(result: BenchResult, out_dir: str | Path) -> None:
    cfg = result.cfg
    run_dir, rows = Path(out_dir) / "runs" / cfg.optimizer, []
    for run in result.runs:
        trace_path = run_dir / f"trace_{run.ref_id:03d}.csv"
        write_trace_csv(run.trace, trace_path, header_comments=_header(cfg, ref_id=run.ref_id))
        final = run.trace.final_x if run.trace.records else (np.nan, np.nan)
        rows.append(
            [str(run.ref_id), run.trace.status, str(int(run.success)), cell(run.evals_to_success)]
            + [repr(float(v)) for v in (final[0], final[1], run.truth.E, run.truth.nu)]
        )
    comments = _header(cfg, material=cfg.material, objective=cfg.objective)
    write_table(run_dir / "runs_index.csv", comments, _RUNS_HEADER, rows)


# ---------------------------------------------------------------------------
# surface scan

@dataclass
class SurfaceResult:
    e_values: np.ndarray
    nu_values: np.ndarray
    objective: np.ndarray  # (n_e, n_nu), NaN where the forward model failed
    minima_count: int
    failed_nodes: int


def _count_interior_minima(grid: np.ndarray) -> int:
    """Interior nodes strictly below all 8 neighbors; a comparison with NaN
    is False, so a NaN node or a NaN neighbor never counts."""
    n_e, n_nu = grid.shape
    center = grid[1:-1, 1:-1]
    minimum = np.ones(center.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                minimum &= center < grid[1 + di : n_e - 1 + di, 1 + dj : n_nu - 1 + dj]
    return int(np.count_nonzero(minimum))


def _grid_ends(cfg: ExperimentConfig) -> list[tuple[float, float]]:
    """(lo, hi) of E and of nu on the scan grids: the prior means +-
    grid_sigmas marginal standard deviations."""
    prior = cfg.prior()
    means, stds = prior.mean_params_si(), prior.std_params_si()
    return [(m - cfg.grid_sigmas * s, m + cfg.grid_sigmas * s) for m, s in zip(means, stds)]


def _grid_nodes(cfg: ExperimentConfig, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E and nu values of an n x n grid spanning +- grid_sigmas marginal
    standard deviations around the prior means, and its nodes as (E, nu)
    rows, E-major."""
    e_values, nu_values = (np.linspace(lo, hi, n) for lo, hi in _grid_ends(cfg))
    nodes = np.stack(np.meshgrid(e_values, nu_values, indexing="ij"), axis=-1).reshape(-1, 2)
    return e_values, nu_values, nodes


def surface_scan(cfg: ExperimentConfig, ref: Reference) -> SurfaceResult:
    """Objective values 0.5 ||r||^2 on a grid_n x grid_n parameter grid
    spanning +- grid_sigmas marginal standard deviations around the prior
    means, with a strict 8-neighbor count of interior local minima.

    Nodes are evaluated in chunks through the objective's ``evaluate``; a
    node without a model output is NaN and counts as failed, and a scan with
    failed nodes logs one warning with their count and the first of them."""
    e_values, nu_values, nodes = _grid_nodes(cfg, cfg.grid_n)
    evaluate, _, _, _ = make_objective(cfg, ref)
    values = np.empty(len(nodes))
    for start in range(0, len(nodes), _CHUNK):
        r, _ = evaluate(nodes[start : start + _CHUNK], False)
        values[start : start + _CHUNK] = 0.5 * np.linalg.vecdot(r, r)
    objective = values.reshape(cfg.grid_n, cfg.grid_n)
    failed = np.argwhere(np.isnan(objective))
    if len(failed):
        i, j = failed[0]
        log.warning(
            "%d of %d surface nodes failed, first (%d, %d): no model output at (E, nu) = %s",
            len(failed),
            objective.size,
            i,
            j,
            nodes[i * cfg.grid_n + j],
        )
    return SurfaceResult(
        e_values=e_values,
        nu_values=nu_values,
        objective=objective,
        minima_count=_count_interior_minima(objective),
        failed_nodes=len(failed),
    )


def write_surface(result: SurfaceResult, cfg: ExperimentConfig, path: str | Path) -> None:
    comments = _header(
        cfg, objective=cfg.objective, interior_local_minima=result.minima_count, failed_nodes=result.failed_nodes
    )
    rows = (
        [repr(float(e)), repr(float(nu)), cell(result.objective[i, j])]
        for i, e in enumerate(result.e_values)
        for j, nu in enumerate(result.nu_values)
    )
    write_table(path, comments, "E,nu,J", rows)


# ---------------------------------------------------------------------------
# manifold export

def manifold_export(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Model outputs over a coordinate-line grid, as the objective transforms
    them, centered and projected on the leading principal directions.

    Returns (params, projected, explained_variance, rank): params rows are
    (E, nu, i_E, i_nu) coordinate-line labels; rank < manifold_dim flags a
    degenerate covariance (fewer informative directions than requested).

    Nodes are evaluated in chunks of ``_MANIFOLD_CHUNK`` = 8 rows, half a
    surface's ``_CHUNK``: the (nodes, lags) output array is live beside each
    chunk's scratch, so smaller chunks lower the peak.  A batch row is the
    single row bit for bit, so the chunk size moves no output bit.
    """
    g = cfg.manifold_grid_n
    _, _, nodes = _grid_nodes(cfg, g)
    evaluate, _, _, _ = make_objective(cfg, mean_reference(cfg))
    # the rows -r = f(x) - ref are the model outputs once centered, which
    # happens in place
    centered = None
    for start in range(0, len(nodes), _MANIFOLD_CHUNK):
        r, _ = evaluate(nodes[start : start + _MANIFOLD_CHUNK], False)
        if centered is None:
            centered = np.empty((len(nodes), r.shape[1]))
        np.negative(r, out=centered[start : start + len(r)])
    failed = np.flatnonzero(np.isnan(centered).any(axis=1))
    if failed.size:
        raise ValueError(f"manifold node (E, nu) = {nodes[failed[0]]} has no model output")
    lines = np.indices((g, g)).reshape(2, -1).T
    params = np.column_stack([nodes, lines])
    centered -= centered.mean(axis=0)
    # centered = R^T Q^T with R min(nodes, lags) x nodes, so R^T = U S W^T
    # gives centered = U S (Q W)^T: the SVD is min(nodes, lags) wide and
    # neither Q nor the lags-long principal directions are formed
    rfac = np.linalg.qr(centered.T, mode="r")
    u, s, _ = np.linalg.svd(rfac.T, full_matrices=False)
    variances = s**2 / max(centered.shape[0] - 1, 1)
    total = float(np.sum(variances))
    rank = int(np.sum(s > 1e-12 * s[0])) if s.size and s[0] > 0 else 0
    dim = min(cfg.manifold_dim, rank)
    if dim < cfg.manifold_dim:
        log.warning("degenerate covariance: %d informative directions < %d requested", rank, cfg.manifold_dim)
    projected = u[:, :dim] * s[:dim]
    # the SVD leaves each component's sign to LAPACK; the data fix it: the
    # largest-magnitude score is positive (the first one, on a tie)
    largest = projected[np.abs(projected).argmax(axis=0), np.arange(dim)]
    projected *= np.where(largest < 0.0, -1.0, 1.0)
    explained = variances[:dim] / total if total > 0 else variances[:dim]
    return params, projected, explained, rank


def write_manifold(
    params: np.ndarray,
    projected: np.ndarray,
    explained: np.ndarray,
    cfg: ExperimentConfig,
    path: str | Path,
) -> None:
    explained_variance = ";".join(repr(float(v)) for v in explained)
    header = ",".join(["E,nu,line_E,line_nu"] + [f"pc{i + 1}" for i in range(projected.shape[1])])
    rows = (
        [repr(float(row[0])), repr(float(row[1])), str(int(row[2])), str(int(row[3]))] + [repr(float(v)) for v in proj]
        for row, proj in zip(params, projected)
    )
    write_table(path, _header(cfg, objective=cfg.objective, explained_variance=explained_variance), header, rows)


# ---------------------------------------------------------------------------
# report

def _read_runs_index(path: Path) -> list[int | None]:
    """Each run's evaluations to success, None for a failed run."""

    def parse(ref_id, status, success, evals, *finals):
        if success not in ("0", "1") or (success == "1") != bool(evals):
            raise ValueError(f"success {success!r} must be 0 or 1 and agree with evals_to_success {evals!r}")
        if evals and int(evals) < 1:
            raise ValueError(f"evals_to_success must be at least 1, got {evals}")
        return int(evals) if evals else None

    return read_table(path, _RUNS_HEADER, parse)


def report(out_dir: str | Path, cfg: ExperimentConfig) -> dict:
    """Aggregate every optimizer batch found under out_dir/runs into a
    histogram CSV, a success table, and a key: value summary.

    Returns the summary mapping (also written to report/summary.txt).
    """
    out_dir = Path(out_dir)
    runs_root = out_dir / "runs"
    if not runs_root.is_dir():
        raise ConfigError(f"no runs found under {runs_root}; run optimize first")
    series: dict[str, list[int | None]] = {}
    for sub in sorted(runs_root.iterdir()):
        index = sub / "runs_index.csv"
        if index.exists():
            series[sub.name] = _read_runs_index(index)
    if not series:
        raise ConfigError(f"no run indices found under {runs_root}")
    report_dir, comments, names = out_dir / "report", _header(cfg, material=cfg.material), sorted(series)
    wins = {name: [e for e in series[name] if e is not None] for name in names}

    # aligned-bin histogram across optimizers
    max_evals = max((max(w) for w in wins.values() if w), default=0)
    histogram = ([str(e)] + [str(wins[name].count(e)) for name in names] for e in range(1, max_evals + 1))
    write_table(report_dir / "histogram.csv", comments, ",".join(["evals"] + [f"count_{n}" for n in names]), histogram)

    # success table and summary
    table = []
    summary: dict[str, object] = {"material": cfg.material, "objective": cfg.objective}
    for name in names:
        n_runs, w = len(series[name]), wins[name]
        rate = len(w) / n_runs if n_runs else 0.0
        median = float(np.median(w)) if w else None
        mean = float(np.mean(w)) if w else None
        table.append([cfg.material, name, str(n_runs), str(len(w)), repr(rate), cell(median), cell(mean)])
        summary[f"{name}.n_runs"] = n_runs
        summary[f"{name}.success_rate"] = rate
        summary[f"{name}.median_evals_to_success"] = median
        summary[f"{name}.mean_evals_to_success"] = mean
    header = "material,optimizer,n_runs,n_success,success_rate,median_evals,mean_evals"
    write_table(report_dir / "success_table.csv", comments, header, table)
    write_table(report_dir / "summary.txt", comments, None, ([f"{key}: {value}"] for key, value in summary.items()))
    return summary
