"""Nonlinear least-squares steps with automatic step-size adaptation.

The iteration x_{k+1} = x_k + dx_k minimizes 0.5 ||r(x)||^2 for a residual
r = ref - f(x) with model Jacobian J = df/dx.  Steps are computed on the
rescaled Jacobian Jt = J diag(x) so both parameter columns are of order one,
and mapped back through dx = diag(x) dxt.  Available step rules:

  gauss-newton   dxt = (Jt' Jt)^-1 Jt' r        (projection onto the tangent basis)
  scaled-gd      dxt = lambda * Jt' r           (gradient step, metric-rescaled)
  modified-lm    dxt = (Jt' Jt + eta_bar / lambda * I)^-1 Jt' r

lambda is the ratio of the metric lengths of the Gauss-Newton and gradient
steps, computable from the gradient step alone,

  lambda = sqrt( (dxt*' G^-1 dxt*) / (dxt*' G dxt*) ),   G = Jt' Jt,

and eta_bar = ||r_k|| / ||r_0|| interpolates the damped system from a
scaled-gradient regime far from the minimizer to pure Gauss-Newton near it.
eta_bar is deliberately not clamped above one: uphill excursions raise the
damping instead of triggering a line search.

A BFGS baseline with a strong-Wolfe backtracking line search is provided for
comparisons.  It owns its parameter scaling as the step rules do: it runs in
start-rescaled coordinates u = x / x0 (a zero start component is left
unscaled) and returns its records in physical units.  Both drivers spend
every model evaluation, line-search trials included, through one recorder
that checks the budget and appends one record, so evaluation counts
between methods are directly comparable.

A run ends on a stopping test or when the evaluation budget, its only cost
limit, is spent (status ``max-iters``).  The stopping tolerances are fixed
module constants beside BFGS's line-search constants, not options.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .stats import relative_1
from .table import cell, write_table

__all__ = [
    "SingularMatrixError",
    "OptState",
    "StepReport",
    "OptRecord",
    "OptTrace",
    "OptimizeOptions",
    "rescale_jacobian",
    "gn_step",
    "gd_step",
    "metric_norm",
    "lambda_k",
    "eta_bar",
    "modified_lm_step",
    "corrected_gd_step",
    "optimize",
    "bfgs_baseline",
    "write_trace_csv",
]

#: Reciprocal-condition threshold below which a normal-equations system is
#: treated as singular.
RCOND_LIMIT = 1e-14

METHODS = ("modified-lm", "gauss-newton", "scaled-gd", "bfgs")

#: Model-domain failures, which end a run with status ``error``: invalid
#: parameters, a truncated window and degenerate spectra raise ValueErrors,
#: singular systems LinAlgErrors.  Anything else is a programming error and
#: propagates.
MODEL_ERRORS = (ValueError, np.linalg.LinAlgError)


class SingularMatrixError(np.linalg.LinAlgError):
    """Rank-deficient system; carries the estimated reciprocal condition."""

    def __init__(self, message: str, rcond: float):
        super().__init__(f"{message} (reciprocal condition {rcond:.3e})")
        self.rcond = rcond


@dataclass
class OptState:
    """One optimizer iterate: parameters, residual, model Jacobian in
    physical units, and the initial residual norm."""

    x: np.ndarray
    r: np.ndarray
    J: np.ndarray
    r0_norm: float

    def __post_init__(self) -> None:
        if self.J.shape != (self.r.size, self.x.size):
            raise ValueError(f"Jacobian shape {self.J.shape} does not match residual/parameters")
        if self.r0_norm < 0.0:
            raise ValueError("initial residual norm cannot be negative")


@dataclass(frozen=True)
class StepReport:
    """A proposed parameter increment and its diagnostics."""

    dx: np.ndarray
    lambda_: float
    eta_bar: float


def rescale_jacobian(J: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Jt = J diag(x); increments map back through dx = diag(x) dxt."""
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("rescaling is undefined for zero parameter components")
    return np.asarray(J, dtype=float) * x[None, :]


def gn_step(Jt: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Gauss-Newton increment (Jt' Jt)^-1 Jt' r via a rank-revealing SVD."""
    u, s, vt = np.linalg.svd(Jt, full_matrices=False)
    rcond = s[-1] / s[0] if s[0] > 0 else 0.0
    if rcond < RCOND_LIMIT:
        raise SingularMatrixError("rank-deficient rescaled Jacobian", rcond)
    return vt.T @ ((u.T @ r) / s)


def gd_step(Jt: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Gradient-descent increment Jt' r (projection onto the dual basis)."""
    return Jt.T @ r


def metric_norm(G: np.ndarray, dx: np.ndarray) -> float:
    """Metric length sqrt(dx' G dx); tiny negative quadratic forms are
    clamped to zero with a warning."""
    q = float(dx @ (G @ dx))
    if q < 0.0:
        warnings.warn(f"metric form returned {q:.3e} < 0; clamped to 0", RuntimeWarning)
        return 0.0
    return float(np.sqrt(q))


def lambda_k(G: np.ndarray, dx_star: np.ndarray) -> float:
    """Scalar making the gradient step as long, in the metric, as the
    Gauss-Newton step: lambda = sqrt((dx*' G^-1 dx*) / (dx*' G dx*))."""
    dx_star = np.asarray(dx_star, dtype=float)
    if not np.any(dx_star != 0.0):
        raise ValueError("lambda is undefined for a zero gradient step")
    try:
        g_inv_dx = np.linalg.solve(G, dx_star)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("metric tensor is singular", 0.0) from exc
    num = float(dx_star @ g_inv_dx)
    den = float(dx_star @ (G @ dx_star))
    if num <= 0.0 or den <= 0.0:
        raise SingularMatrixError("metric tensor is not positive definite", num / max(den, 1e-300))
    return float(np.sqrt(num / den))


def eta_bar(state: OptState) -> float:
    """Residual ratio ||r_k|| / ||r_0||; 1 at the start, may exceed 1 on
    uphill excursions."""
    if state.r0_norm <= 0.0:
        raise ValueError("initial residual is zero; optimization should have terminated")
    return float(np.linalg.norm(state.r) / state.r0_norm)


def _lm_core(state: OptState, scaled_gd_only: bool) -> StepReport:
    jt = rescale_jacobian(state.J, state.x)
    dx_star = gd_step(jt, state.r)
    metric = jt.T @ jt
    lam = lambda_k(metric, dx_star)
    eta = eta_bar(state)
    if scaled_gd_only:
        dxt = lam * dx_star
    else:
        damped = metric + (eta / lam) * np.eye(metric.shape[0])
        try:
            dxt = np.linalg.solve(damped, dx_star)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("damped normal equations are singular", 0.0) from exc
    return StepReport(dx=state.x * dxt, lambda_=lam, eta_bar=eta)


def modified_lm_step(state: OptState) -> StepReport:
    """Step-size-adapted Levenberg-Marquardt increment
    dxt = (Jt' Jt + eta_bar / lambda * I)^-1 Jt' r, mapped back to physical
    units."""
    return _lm_core(state, scaled_gd_only=False)


def corrected_gd_step(state: OptState) -> StepReport:
    """Locally step-size-adapted gradient descent dxt = lambda * Jt' r;
    selectable for ablations."""
    return _lm_core(state, scaled_gd_only=True)


# ---------------------------------------------------------------------------
# iteration drivers

#: Stopping tests: a relative residual ||r_k|| / ||r_0|| below
#: _OBJECTIVE_TOL or a rescaled step below _STEP_TOL converges, and
#: _STALL_ITERS iterations in a row whose relative decrease stays below
#: _STALL_TOL stall.  BFGS converges at f_k <= _OBJECTIVE_TOL**2 f_0 (the
#: residual test on f = 0.5 ||r||^2) or at a gradient norm at most
#: _GRADIENT_TOL times the first; it accepts a line-search trial on the
#: strong Wolfe conditions with _WOLFE_C1 and _WOLFE_C2, within
#: _MAX_LS_TRIALS trials per search.
_STEP_TOL = 1e-10
_OBJECTIVE_TOL = 1e-12
_GRADIENT_TOL = 1e-12
_STALL_TOL = 1e-14
_STALL_ITERS = 5
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
_MAX_LS_TRIALS = 20


@dataclass
class OptRecord:
    """One model evaluation: where it happened and what it cost."""

    k: int
    eval_count: int
    x: np.ndarray
    objective: float
    lambda_: float = np.nan
    eta_bar: float = np.nan
    rel1: float = np.nan
    rel2: float = np.nan


@dataclass
class OptTrace:
    """Per-evaluation history of one optimization run."""

    records: list[OptRecord] = field(default_factory=list)
    status: str = "running"
    message: str = ""

    @property
    def eval_count(self) -> int:
        return self.records[-1].eval_count if self.records else 0

    @property
    def final_x(self) -> np.ndarray:
        return self.records[-1].x

    def evals_to(self, predicate: Callable[[OptRecord], bool]) -> int | None:
        """Cumulative evaluation count at the first record satisfying
        ``predicate``, or None."""
        for rec in self.records:
            if predicate(rec):
                return rec.eval_count
        return None


@dataclass(frozen=True)
class OptimizeOptions:
    """Iteration controls shared by all methods.

    ``max_evals`` (at least 1), the only cost limit, caps cumulative model
    evaluations, line-search trials included; a run that spends it ends
    with status ``max-iters``.  ``bounds`` is one (lo, hi) pair per
    parameter, enforced by halving the step at most ten times.  When
    ``ground_truth`` is given, per-record relative parameter errors are
    filled in; ``ref_norm`` is the Euclidean norm of the reference feature
    vector used for the relative residual column.
    """

    method: str = "modified-lm"
    max_evals: int = 100
    bounds: tuple[tuple[float, float], ...] | None = None
    ground_truth: np.ndarray | None = None
    ref_norm: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_evals < 1:
            raise ValueError(f"evaluation budget max_evals must be at least 1, got {self.max_evals}")


def _end(trace: OptTrace, status: str, message: str) -> OptTrace:
    trace.status = status
    trace.message = message
    return trace


def _inside(x: np.ndarray, bounds) -> bool:
    """True when x lies strictly inside the bounds, or there are none."""
    return bounds is None or all(lo < t < hi for t, (lo, hi) in zip(x, bounds))


def _evaluate(trace: OptTrace, call: Callable, u: np.ndarray, k: int, opts: OptimizeOptions, scale=1.0):
    """Spend one model evaluation ``call(u)`` at the physical point
    ``u * scale`` and append its record to the trace.

    ``call`` returns a residual vector and its Jacobian, or the objective
    0.5 ||r||^2 and its gradient.  Returns that pair, as a float array (a
    float for the objective) and a float array, or None once the run has
    ended at its last record: the budget was spent (``max-iters``), the
    model raised one of MODEL_ERRORS (``error``), or the pair holds NaN or
    inf (``non-finite``: no stopping test can hold on such values).
    """
    if trace.eval_count >= opts.max_evals:
        _end(trace, "max-iters", "evaluation budget exhausted")
        return None
    try:
        value, deriv = call(u)
    except MODEL_ERRORS as exc:
        _end(trace, "error", str(exc))
        return None
    deriv = np.asarray(deriv, dtype=float)
    if np.ndim(value):
        value = np.asarray(value, dtype=float)
        r_norm = float(np.linalg.norm(value))
        objective = 0.5 * r_norm**2
    else:
        value = objective = float(value)
        r_norm = np.sqrt(max(2.0 * objective, 0.0))
    ref_norm = opts.ref_norm
    trace.records.append(
        OptRecord(
            k=k,
            eval_count=trace.eval_count + 1,
            x=u * scale,
            objective=objective,
            rel1=np.nan if opts.ground_truth is None else relative_1(opts.ground_truth / scale, u),
            rel2=float(r_norm / ref_norm) if ref_norm is not None and ref_norm > 0.0 else np.nan,
        )
    )
    if not (np.isfinite(objective) and np.isfinite(deriv).all()):
        _end(trace, "non-finite", f"evaluation {trace.eval_count} returned NaN or inf")
        return None
    return value, deriv


def _apply_bounds(x: np.ndarray, dx: np.ndarray, bounds) -> np.ndarray | None:
    """Halve dx (at most 10 times) until x + dx is strictly inside the
    bounds; None when even the smallest step leaves the box."""
    for _ in range(11):
        if _inside(x + dx, bounds):
            return dx
        dx = 0.5 * dx
    return None


def optimize(
    evaluate: Callable[[np.ndarray, bool], tuple[np.ndarray, np.ndarray | None]],
    x0: np.ndarray,
    opts: OptimizeOptions = OptimizeOptions(),
) -> OptTrace:
    """Drive a residual-based method (modified-lm, gauss-newton, scaled-gd).

    ``evaluate(x, need_jacobian)`` runs the forward model once and returns
    the residual r = ref - f(x) and, on request, the model Jacobian df/dx.
    The trace holds one record per model evaluation; for these methods one
    iteration is exactly one evaluation because the Jacobian shares the
    forward pass.  An evaluation whose residual or Jacobian holds NaN or inf
    ends the run at its record with status ``non-finite``.
    """
    if opts.method == "bfgs":
        raise ValueError("use bfgs_baseline for the BFGS method")
    x = np.asarray(x0, dtype=float).copy()
    trace = OptTrace()
    r0_norm = 0.0
    stall_count = 0
    prev_norm = None

    def residual_and_jacobian(x):
        return evaluate(x, True)

    for k in itertools.count():
        evaluated = _evaluate(trace, residual_and_jacobian, x, k, opts)
        if evaluated is None:
            return trace
        r, jac = evaluated
        r_norm = float(np.linalg.norm(r))
        if k == 0:
            r0_norm = r_norm
        if r0_norm == 0.0 or r_norm / r0_norm < _OBJECTIVE_TOL:
            return _end(trace, "converged", "relative residual below tolerance")
        if prev_norm is not None:
            drop = (prev_norm - r_norm) / max(prev_norm, 1e-300)
            stall_count = stall_count + 1 if drop < _STALL_TOL else 0
            if stall_count >= _STALL_ITERS:
                return _end(trace, "stalled", f"no relative decrease above {_STALL_TOL} for {_STALL_ITERS} iterations")
        prev_norm = r_norm

        state = OptState(x=x, r=r, J=jac, r0_norm=r0_norm)
        try:
            if opts.method == "modified-lm":
                report = modified_lm_step(state)
            elif opts.method == "scaled-gd":
                report = corrected_gd_step(state)
            else:
                jt = rescale_jacobian(state.J, state.x)
                dxt = gn_step(jt, r)
                report = StepReport(dx=state.x * dxt, lambda_=np.nan, eta_bar=eta_bar(state))
        except MODEL_ERRORS as exc:
            return _end(trace, "error", str(exc))
        trace.records[-1].lambda_ = report.lambda_
        trace.records[-1].eta_bar = report.eta_bar

        if float(np.linalg.norm(report.dx / x)) < _STEP_TOL:
            return _end(trace, "converged", "rescaled step below tolerance")
        dx = _apply_bounds(x, report.dx, opts.bounds)
        if dx is None:
            return _end(trace, "stalled", "step could not be pulled back inside the bounds")
        x = x + dx


# ---------------------------------------------------------------------------
# BFGS baseline

def bfgs_baseline(
    fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    opts: OptimizeOptions = OptimizeOptions(method="bfgs"),
) -> OptTrace:
    """BFGS with inverse-Hessian updates and a strong-Wolfe backtracking
    line search (c1 = 1e-4, c2 = 0.9, at most 20 trials per search).

    Backtracking halves on overshoot, with a secant refinement on the
    directional derivative that makes the search exact on quadratics;
    steps that satisfy the sufficient-decrease condition but still have a
    strongly negative slope are doubled instead.

    The iteration runs in start-rescaled coordinates u = x / x0, so its
    course does not depend on the units of x; a zero start component is
    left unscaled.  The bounds are rescaled with it, rel1 is measured in u
    (it is scale-invariant), and the records hold x in physical units.

    ``fg(x)`` returns the objective 0.5 ||r||^2 and its gradient in one
    model evaluation (the gradient shares the forward pass).  Every
    line-search trial is one evaluation and lands in the trace, so the
    cumulative counts are comparable with the residual-based methods.  A
    NaN or inf objective or gradient ends the run at its record with status
    ``non-finite``.  An iteration either spends at least one evaluation or
    ends the run as ``stalled``, so the budget always ends it.
    """
    x0 = np.asarray(x0, dtype=float)
    scale = np.where(x0 != 0.0, x0, 1.0)
    bounds = None if opts.bounds is None else [sorted((lo / s, hi / s)) for (lo, hi), s in zip(opts.bounds, scale)]

    def fg_u(u):
        value, grad = fg(scale * u)
        return value, scale * grad

    u = x0 / scale
    trace = OptTrace()
    n = u.size
    h = np.eye(n)
    evaluated = _evaluate(trace, fg_u, u, 0, opts, scale)
    if evaluated is None:
        return trace
    f, g = evaluated
    f0 = f
    g_scale = max(float(np.linalg.norm(g)), 1e-300)
    first_update = True

    for k in itertools.count(1):
        if float(np.linalg.norm(g)) <= _GRADIENT_TOL * g_scale or f <= _OBJECTIVE_TOL**2 * max(f0, 1e-300):
            return _end(trace, "converged", "gradient vanished")

        accepted = False
        f_new = f
        g_new = g
        alpha = 1.0
        p = -h @ g
        for attempt in range(2):
            if attempt == 1:
                # retry along steepest descent with a fresh inverse Hessian:
                # kinks in the objective can make a stale h non-productive
                h = np.eye(n)
                first_update = True
                p = -g
            slope = float(g @ p)
            if slope >= 0.0:
                continue
            alpha = 1.0
            best = None  # best Armijo-satisfying trial seen: (f, alpha, g)
            for _ in range(_MAX_LS_TRIALS):
                u_trial = u + alpha * p
                if not _inside(u_trial, bounds):
                    alpha *= 0.5
                    continue
                evaluated = _evaluate(trace, fg_u, u_trial, k, opts, scale)
                if evaluated is None:
                    return trace
                f_new, g_new = evaluated
                slope_trial = float(g_new @ p)
                armijo = f_new <= f + _WOLFE_C1 * alpha * slope
                curvature = abs(slope_trial) <= _WOLFE_C2 * abs(slope)
                if armijo and curvature:
                    accepted = True
                    break
                if armijo and (best is None or f_new < best[0]):
                    best = (f_new, alpha, g_new)
                if armijo and slope_trial < 0.0:
                    # Wolfe undershoot: the 1-d minimizer lies beyond alpha.
                    alpha *= 2.0
                    continue
                # Overshoot (in value or slope): refine by a secant step on
                # the directional derivative, which is exact for quadratics,
                # and fall back to halving whenever the estimate leaves a
                # sane bracket.
                denom = slope - slope_trial
                alpha_sec = alpha * slope / denom if denom != 0.0 else 0.5 * alpha
                alpha = alpha_sec if 0.05 * alpha <= alpha_sec <= 0.95 * alpha else 0.5 * alpha
            if not accepted and best is not None:
                # The curvature condition can be unattainable at derivative
                # kinks of the objective; sufficient decrease alone is then
                # accepted (the y's > 0 guard protects the h update).
                f_new, alpha, g_new = best
                accepted = True
            if accepted:
                break
        if not accepted:
            # every evaluation of iteration k is one of its line-search trials
            trials = sum(rec.k == k for rec in trace.records)
            return _end(trace, "stalled", f"line search failed after {trials} evaluated trials")

        s = alpha * p
        y = g_new - g
        ys = float(y @ s)
        if ys > 1e-12 * float(np.linalg.norm(y)) * float(np.linalg.norm(s)):
            if first_update:
                h = (ys / float(y @ y)) * np.eye(n)
                first_update = False
            rho = 1.0 / ys
            i_n = np.eye(n)
            v = i_n - rho * np.outer(s, y)
            h = v @ h @ v.T + rho * np.outer(s, s)
        u = u + s
        if float(np.linalg.norm(s / np.where(u != 0.0, u, 1.0))) < _STEP_TOL:
            return _end(trace, "converged", "rescaled step below tolerance")
        f, g = f_new, g_new


# ---------------------------------------------------------------------------
# trace serialization

def write_trace_csv(trace: OptTrace, path: str | Path, header_comments: list[str] | None = None) -> None:
    """CSV with columns iter, eval_count, objective, E, nu, lambda, eta_bar,
    rel1, rel2, status (one row per model evaluation; the terminal status
    repeats on every row)."""
    rows = (
        [str(rec.k), str(rec.eval_count)]
        + [repr(float(v)) for v in (rec.objective, rec.x[0], rec.x[1])]
        + [cell(v) for v in (rec.lambda_, rec.eta_bar, rec.rel1, rec.rel2)]
        + [trace.status]
        for rec in trace.records
    )
    write_table(path, header_comments or (), "iter,eval_count,objective,E,nu,lambda,eta_bar,rel1,rel2,status", rows)
