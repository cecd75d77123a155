"""Ultrasonic material-parameter inversion toolkit.

A step-size-adapted Levenberg-Marquardt method and an autocorrelated
phase-residual objective, exercised end-to-end on a surrogate dispersive
waveguide model with statistical benchmarks (virtual measurements, gamma
material priors, Latin-hypercube draws, optimizer comparisons).
"""

from .forward import (
    EvalCounter,
    ForwardConfig,
    MaterialParams,
    TruncationError,
    excitation,
    forward_jacobian,
    forward_response,
    response_spectrum,
)
from .optim import (
    OptimizeOptions,
    OptTrace,
    bfgs_baseline,
    modified_lm_step,
    optimize,
)
from .signals import (
    PipelineError,
    Signal,
    analytic_signal,
    envelope,
    transform_pipeline,
    unwrap,
)
from .stats import (
    BUILTIN_PRIORS,
    GammaDist,
    MaterialPrior,
    apply_marginals,
    gamma_inv_cdf,
    lhs_sample,
    relative_1,
)

__version__ = "0.1.0"
