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
    Materials,
    ModelOutput,
    TruncationError,
    default_config,
    excitation,
    forward_jacobian,
    forward_response,
    residual_jacobian,
    response_spectrum,
)
from .optim import (
    OptimizeOptions,
    OptState,
    OptTrace,
    StepReport,
    bfgs_baseline,
    corrected_gd_step,
    eta_bar,
    gn_step,
    lambda_k,
    modified_lm_step,
    optimize,
    rescale_jacobian,
)
from .signals import (
    PhaseFeature,
    PhaseObjectiveConfig,
    PipelineError,
    Signal,
    Spectrum,
    analytic_from_spectrum,
    analytic_signal,
    autocorr_spectrum,
    dft_forward,
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
