"""Nonlinear least-squares steps with automatic step-size adaptation.

The iteration x_{k+1} = x_k + dx_k minimizes 0.5 ||r(x)||^2 for a residual
r = ref - f(x) with model Jacobian J = df/dx.  Steps are computed on the
rescaled Jacobian Jt = J diag(x) so both parameter columns are of order one,
and mapped back through dx = diag(x) dxt.  The residual methods share one
step rule, the damped 2x2 system (Jt' Jt + mu I) dxt = Jt' r:

  modified-lm    mu = eta_bar / lambda
  gauss-newton   mu = 0                 (projection onto the tangent basis)

lambda is the ratio of the metric lengths of the Gauss-Newton and gradient
steps, computable from the gradient step alone,

  lambda = sqrt( (dxt*' G^-1 dxt*) / (dxt*' G dxt*) ),   G = Jt' Jt,

and eta_bar = ||r_k|| / ||r_0|| interpolates the damped system from a
scaled-gradient regime far from the minimizer to pure Gauss-Newton near it.
eta_bar is deliberately not clamped above one: uphill excursions raise the
damping instead of triggering a line search.

There are two unknowns, (E, nu), so the step is worked out on Python
floats without forming Jt.  The driver takes three dot products of J's
columns and two with r, c_ij = J_i' J_j and b_i = J_i' r, works out
eta_bar, and hands them with x to ``modified_lm_step``, the one step
function, which works out lambda and returns (dx0, dx1, lambda) from

  G = [[x0^2 c00, x0 x1 c01], [x0 x1 c01, x1^2 c11]],   dxt* = (x0 b0, x1 b1).

Both 2x2 systems are solved in closed form: G^-1 = [[g11, -g01], [-g01,
g00]] / det G for lambda, and (G + mu I)^-1 the same way.  A Gram with
det G < RCOND_LIMIT g00 g11, whose columns are parallel to within
rounding, is singular.  The recorder computes ||r|| and the five dot
products once per evaluation, on Python floats, for the stopping tests,
eta_bar and the step.  They also tell it whether the evaluation is
finite: a NaN or inf in r makes ||r|| NaN or inf, and one in J makes c00
or c11 so.  A finite J can overflow c00 or c11 as well; only then are J's
entries checked one by one, and such a run ends with status ``error``
from the step.  The check comes before every stopping test.

A BFGS baseline with a strong-Wolfe backtracking line search is provided for
comparisons.  It owns its parameter scaling as the step does: it runs in
start-rescaled coordinates u = x / x0 (a zero start component is left
unscaled) and returns its records in physical units.  Its line search and
its 2x2 inverse-Hessian update run on floats as well.  Both drivers spend
every model evaluation, line-search trials included, through one recorder
that checks the budget and appends one record, so a trace's evaluation
count is its length, and counts between methods are directly comparable.

A run ends on a stopping test or when the evaluation budget, its only cost
limit, is spent (status ``budget``).  The stopping tolerances are fixed
module constants beside BFGS's line-search constants, not options.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .stats import relative_1
from .table import cell, write_table

__all__ = [
    "SingularMatrixError",
    "OptRecord",
    "OptTrace",
    "OptimizeOptions",
    "modified_lm_step",
    "optimize",
    "bfgs_baseline",
    "write_trace_csv",
]

#: Reciprocal-condition threshold below which a normal-equations system is
#: treated as singular.
RCOND_LIMIT = 1e-14

METHODS = ("modified-lm", "gauss-newton", "bfgs")

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


def _gram_rcond(g00: float, g01: float, g11: float) -> float:
    """det G / (g00 g11) for a symmetric 2x2 Gram matrix G: 1 for
    orthogonal columns of Jt, 0 for parallel or zero ones.  The step checks
    its Gram here: below RCOND_LIMIT it is singular, and it must be
    positive definite."""
    if not (g00 >= 0.0 and g11 >= 0.0):
        raise SingularMatrixError("metric tensor is not positive definite", 0.0)
    rcond = 1.0 - (g01 / g00) * (g01 / g11) if g00 > 0.0 and g11 > 0.0 else 0.0
    if not rcond >= RCOND_LIMIT:
        message = "metric tensor is singular" if abs(rcond) < RCOND_LIMIT else "metric tensor is not positive definite"
        raise SingularMatrixError(message, rcond)
    return rcond


def modified_lm_step(x: list[float], dots: tuple[float, ...], eta: float) -> tuple[float, float, float]:
    """Step-size-adapted Levenberg-Marquardt increment
    dxt = (Jt' Jt + eta_bar / lambda * I)^-1 Jt' r, mapped back to physical
    units, as (dx0, dx1, lambda) from x = (x0, x1), the dot products
    dots = (c00, c01, c11, b0, b1) of J's columns with each other and with
    r, and eta = eta_bar.  At eta = 0 it is the Gauss-Newton step.  A zero
    gradient step Jt' r = 0 has no lambda: once the Gram has passed the
    singularity test, the step is (0.0, 0.0, NaN)."""
    x0, x1 = x
    if x0 == 0.0 or x1 == 0.0:
        raise ValueError("rescaling is undefined for zero parameter components")
    c00, c01, c11, b0, b1 = dots
    g00 = x0 * x0 * c00
    g01 = x0 * x1 * c01
    g11 = x1 * x1 * c11
    p = x0 * b0
    q = x1 * b1
    rcond = _gram_rcond(g00, g01, g11)
    if p == 0.0 and q == 0.0:
        return 0.0, 0.0, math.nan
    # lambda = sqrt((dxt*' G^-1 dxt*) / (dxt*' G dxt*)).  Both forms are
    # quadratic in dxt*, so the ratio does not depend on its length: scaling
    # it to unit max-norm keeps p*p and q*q in range
    size = max(abs(p), abs(q))
    ps, qs = p / size, q / size
    cross = (g01 + g01) * ps * qs
    num = g11 * ps * ps - cross + g00 * qs * qs  # det G * dxt*' G^-1 dxt*
    den = (g00 * g11 * rcond) * (g00 * ps * ps + cross + g11 * qs * qs)
    lam = math.sqrt(num / den) if num > 0.0 and den > 0.0 else math.nan
    if not 0.0 < lam < math.inf:
        raise SingularMatrixError("metric tensor is not positive definite", rcond)
    mu = eta / lam
    a, d = g00 + mu, g11 + mu
    det = a * d - g01 * g01
    if not 0.0 < det < math.inf:
        raise SingularMatrixError("damped normal equations are singular", 0.0)
    return x0 * ((d * p - g01 * q) / det), x1 * ((a * q - g01 * p) / det), lam


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
    """One model evaluation: where it happened and what it cost.  Its
    cumulative evaluation count is its position in the trace, plus one."""

    k: int
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
        return len(self.records)

    @property
    def final_x(self) -> np.ndarray:
        return self.records[-1].x

    def evals_to(self, predicate: Callable[[OptRecord], bool]) -> int | None:
        """Cumulative evaluation count at the first record satisfying
        ``predicate``, or None."""
        for count, rec in enumerate(self.records, start=1):
            if predicate(rec):
                return count
        return None


@dataclass(frozen=True)
class OptimizeOptions:
    """Iteration controls shared by all methods.

    ``max_evals`` (at least 1), the only cost limit, caps cumulative model
    evaluations, line-search trials included; a run that spends it ends
    with status ``budget``.  ``bounds`` is one (lo, hi) pair per
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


def _inside(x: list[float], bounds) -> bool:
    """True when the point x (floats) lies strictly inside the bounds, or
    there are none."""
    return bounds is None or all(lo < t < hi for t, (lo, hi) in zip(x, bounds))


def _evaluate(trace: OptTrace, call: Callable, u: np.ndarray, k: int, opts: OptimizeOptions, truth, scale=1.0):
    """Spend one model evaluation ``call(u)`` at the physical point
    ``u * scale`` and append its record to the trace; ``truth`` is the
    ground truth in the coordinates of u, as a list of floats, or None.

    ``call`` returns a residual vector r and its Jacobian J, or the
    objective 0.5 ||r||^2 and its gradient.  Returns, on Python floats,
    ||r|| and the dot products (c00, c01, c11, b0, b1) of J's columns with
    each other and with r, or the objective and the gradient's two
    components; or None once the run has ended at its last record: the
    budget was spent (``budget``), the model raised one of MODEL_ERRORS
    (``error``), or the pair holds NaN or inf (``non-finite``: no stopping
    test can hold on such values).  A Jacobian that is not (r.size, 2) is a
    programming error of the callback and raises ValueError without a
    record.
    """
    if trace.eval_count >= opts.max_evals:
        _end(trace, "budget", "evaluation budget exhausted")
        return None
    try:
        value, deriv = call(u)
    except MODEL_ERRORS as exc:
        _end(trace, "error", str(exc))
        return None
    deriv = np.asarray(deriv, dtype=float)
    if np.ndim(value):
        r = np.asarray(value, dtype=float)
        if deriv.shape != (r.size, 2):
            raise ValueError(f"Jacobian shape {deriv.shape} does not match {r.size} residuals and two parameters")
        # the square root of r.dot(r) is np.linalg.norm of a 1-d float array
        r_norm = math.sqrt(r.dot(r))
        objective = 0.5 * (r_norm * r_norm)
        # NaN or inf in r makes ||r|| NaN or inf, and in J c00 or c11; a
        # finite J can overflow c00 or c11 too, and is left to the step.  The
        # cross products are taken only on finite values, where inf * 0
        # cannot turn up
        c0, c1 = deriv.T
        finite = math.isfinite(r_norm)
        if finite:
            c00, c11 = float(c0.dot(c0)), float(c1.dot(c1))
            finite = (math.isfinite(c00) and math.isfinite(c11)) or bool(np.isfinite(deriv).all())
        result = (r_norm, (c00, float(c0.dot(c1)), c11, float(c0.dot(r)), float(c1.dot(r)))) if finite else None
    else:
        objective = float(value)
        r_norm = math.sqrt(max(2.0 * objective, 0.0))
        g0, g1 = deriv.tolist()
        finite = math.isfinite(objective) and math.isfinite(g0) and math.isfinite(g1)
        result = objective, (g0, g1)
    ref_norm = opts.ref_norm
    trace.records.append(
        OptRecord(
            k=k,
            x=u * scale,
            objective=objective,
            rel1=math.nan if truth is None else relative_1(truth, u.tolist()),
            rel2=float(r_norm / ref_norm) if ref_norm is not None and ref_norm > 0.0 else math.nan,
        )
    )
    if not finite:
        _end(trace, "non-finite", f"evaluation {trace.eval_count} returned NaN or inf")
        return None
    return result


def _apply_bounds(x: list[float], dx: list[float], bounds) -> list[float] | None:
    """The point x + dx, with dx halved (at most 10 times) until the point
    is strictly inside the bounds; None when even the smallest step leaves
    the box."""
    for _ in range(11):
        trial = [t + d for t, d in zip(x, dx)]
        if _inside(trial, bounds):
            return trial
        dx = [0.5 * d for d in dx]
    return None


def optimize(
    evaluate: Callable[[np.ndarray, bool], tuple[np.ndarray, np.ndarray | None]],
    x0: np.ndarray,
    opts: OptimizeOptions = OptimizeOptions(),
) -> OptTrace:
    """Drive a residual-based method (modified-lm, or gauss-newton, its step
    at eta_bar = 0) on two parameters.

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
    if x.shape != (2,):
        raise ValueError(f"{opts.method} takes two parameters, got shape {x.shape}")
    truth = None if opts.ground_truth is None else np.asarray(opts.ground_truth, dtype=float).tolist()
    trace = OptTrace()
    r0_norm = 0.0
    stall_count = 0
    prev_norm = None

    def residual_and_jacobian(x):
        return evaluate(x, True)

    for k in itertools.count():
        evaluated = _evaluate(trace, residual_and_jacobian, x, k, opts, truth)
        if evaluated is None:
            return trace
        r_norm, dots = evaluated
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

        eta = r_norm / r0_norm
        xs = x.tolist()
        try:
            # called through the module global, which perfbench/tracing.py
            # rebinds to time every step
            dx0, dx1, lam = modified_lm_step(xs, dots, 0.0 if opts.method == "gauss-newton" else eta)
        except MODEL_ERRORS as exc:
            return _end(trace, "error", str(exc))
        trace.records[-1].lambda_ = lam
        trace.records[-1].eta_bar = eta

        # the step has already rejected a zero component of x
        if math.hypot(dx0 / xs[0], dx1 / xs[1]) < _STEP_TOL:
            return _end(trace, "converged", "rescaled step below tolerance")
        x_next = _apply_bounds(xs, [dx0, dx1], opts.bounds)
        if x_next is None:
            return _end(trace, "stalled", "step could not be pulled back inside the bounds")
        x = np.array(x_next)


# ---------------------------------------------------------------------------
# BFGS baseline

def bfgs_baseline(
    fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    opts: OptimizeOptions = OptimizeOptions(method="bfgs"),
) -> OptTrace:
    """BFGS on two parameters with inverse-Hessian updates and a
    strong-Wolfe backtracking line search (c1 = 1e-4, c2 = 0.9, at most 20
    trials per search).

    Backtracking halves on overshoot, with a secant refinement on the
    directional derivative that makes the search exact on quadratics;
    steps that satisfy the sufficient-decrease condition but still have a
    strongly negative slope are doubled instead.  When a search fails, it
    is retried once along steepest descent with the inverse Hessian reset
    to the identity; while the inverse Hessian is still the identity the
    failed search already was that search, so the iteration stalls without
    repeating it.

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
    if x0.shape != (2,):
        raise ValueError(f"bfgs_baseline takes two parameters, got shape {x0.shape}")
    scale = np.where(x0 != 0.0, x0, 1.0)
    bounds = None if opts.bounds is None else [sorted((lo / s, hi / s)) for (lo, hi), s in zip(opts.bounds, scale.tolist())]

    def fg_u(u):
        value, grad = fg(scale * u)
        return value, scale * grad

    truth = None if opts.ground_truth is None else (opts.ground_truth / scale).tolist()
    trace = OptTrace()
    evaluated = _evaluate(trace, fg_u, x0 / scale, 0, opts, truth, scale)
    if evaluated is None:
        return trace
    f, (g0, g1) = evaluated
    u0, u1 = (x0 / scale).tolist()
    f0 = f
    g_scale = max(math.hypot(g0, g1), 1e-300)
    # the symmetric inverse Hessian (h00, h01, h11); ``identity`` holds until
    # the first update, which starts from the scaled identity
    h00, h01, h11 = 1.0, 0.0, 1.0
    identity = True

    for k in itertools.count(1):
        if f <= _OBJECTIVE_TOL**2 * max(f0, 1e-300):
            return _end(trace, "converged", "relative residual below tolerance")
        if math.hypot(g0, g1) <= _GRADIENT_TOL * g_scale:
            return _end(trace, "converged", "gradient vanished")

        accepted = False
        for attempt in range(2):
            if attempt == 1:
                if identity:
                    break
                # retry along steepest descent with a fresh inverse Hessian:
                # kinks in the objective can make a stale h non-productive
                h00, h01, h11 = 1.0, 0.0, 1.0
                identity = True
            p0 = -(h00 * g0 + h01 * g1)
            p1 = -(h01 * g0 + h11 * g1)
            slope = g0 * p0 + g1 * p1
            if slope >= 0.0:
                continue
            alpha = 1.0
            best = None  # best Armijo-satisfying trial seen: (f, alpha, g0, g1)
            for _ in range(_MAX_LS_TRIALS):
                u_trial = [u0 + alpha * p0, u1 + alpha * p1]
                if not _inside(u_trial, bounds):
                    alpha *= 0.5
                    continue
                evaluated = _evaluate(trace, fg_u, np.array(u_trial), k, opts, truth, scale)
                if evaluated is None:
                    return trace
                f_new, (gn0, gn1) = evaluated
                slope_trial = gn0 * p0 + gn1 * p1
                armijo = f_new <= f + _WOLFE_C1 * alpha * slope
                curvature = abs(slope_trial) <= _WOLFE_C2 * abs(slope)
                if armijo and curvature:
                    accepted = True
                    break
                if armijo and (best is None or f_new < best[0]):
                    best = (f_new, alpha, gn0, gn1)
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
                f_new, alpha, gn0, gn1 = best
                accepted = True
            if accepted:
                break
        if not accepted:
            # every evaluation of iteration k is one of its line-search trials
            trials = sum(rec.k == k for rec in trace.records)
            return _end(trace, "stalled", f"line search failed after {trials} evaluated trials")

        s0, s1 = alpha * p0, alpha * p1
        y0, y1 = gn0 - g0, gn1 - g1
        ys = y0 * s0 + y1 * s1
        yy = y0 * y0 + y1 * y1
        if ys > 1e-12 * math.hypot(y0, y1) * math.hypot(s0, s1) and yy > 0.0:
            if identity:
                h00 = h11 = ys / yy
                identity = False
            # h <- (I - rho s y') h (I - rho y s') + rho s s', expanded
            rho = 1.0 / ys
            hy0 = h00 * y0 + h01 * y1
            hy1 = h01 * y0 + h11 * y1
            c = rho * (1.0 + rho * (y0 * hy0 + y1 * hy1))
            h00, h01, h11 = (
                h00 - 2.0 * rho * s0 * hy0 + c * s0 * s0,
                h01 - rho * (s0 * hy1 + s1 * hy0) + c * s0 * s1,
                h11 - 2.0 * rho * s1 * hy1 + c * s1 * s1,
            )
        u0, u1 = u0 + s0, u1 + s1
        if math.hypot(s0 / (u0 or 1.0), s1 / (u1 or 1.0)) < _STEP_TOL:
            return _end(trace, "converged", "rescaled step below tolerance")
        f, g0, g1 = f_new, gn0, gn1


# ---------------------------------------------------------------------------
# trace serialization

def write_trace_csv(trace: OptTrace, path: str | Path, header_comments: list[str] | None = None) -> None:
    """CSV with columns iter, eval_count, objective, E, nu, lambda, eta_bar,
    rel1, rel2, status (one row per model evaluation; the terminal status
    repeats on every row)."""
    rows = (
        [str(rec.k), str(count)]
        + [repr(float(v)) for v in (rec.objective, rec.x[0], rec.x[1])]
        + [cell(v) for v in (rec.lambda_, rec.eta_bar, rec.rel1, rec.rel2)]
        + [trace.status]
        for count, rec in enumerate(trace.records, start=1)
    )
    write_table(path, header_comments or (), "iter,eval_count,objective,E,nu,lambda,eta_bar,rel1,rel2,status", rows)
