"""Ultrasonic material-parameter inversion toolkit.

A step-size-adapted Levenberg-Marquardt method and an autocorrelated
phase-residual objective, exercised end-to-end on a surrogate dispersive
waveguide model with statistical benchmarks (virtual measurements, gamma
material priors, Latin-hypercube draws, optimizer comparisons).

The package root holds only ``__version__``: each module's ``__all__`` is
its public list, imported from the module (``from waveinv.forward import
ForwardConfig``).
"""

__version__ = "0.1.0"
