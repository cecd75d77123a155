"""Fixtures shared by the test modules."""

import pytest

from waveinv.stats import BUILTIN_PRIORS, PARAMETERS


@pytest.fixture
def write_builtin_priors():
    """A function that writes the built-in priors to a path as a priors
    file: the header, then one material,parameter,alpha,theta row per
    marginal, with alpha and theta as exact float reprs."""

    def write(path):
        rows = [
            f"{mat},{par},{prior.marginals[par].alpha!r},{prior.marginals[par].theta!r}"
            for mat, prior in BUILTIN_PRIORS.items()
            for par in PARAMETERS
        ]
        path.write_text("\n".join(["material,parameter,alpha,theta", *rows]) + "\n")

    return write
