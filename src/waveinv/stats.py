"""Material-parameter priors, gamma fitting, Latin hypercube sampling, and
the two relative error norms.

Literature ranges for density, Young's modulus, Poisson's ratio, and shear
modulus of the three polymers of interest (PEEK, PA6, PP) were condensed
into gamma marginals; the shape/scale pairs below are the canonical priors
shipped with the package (density in g/cm^3, moduli in GPa).  Marginals are
treated as independent: parameter draws go through an optimized (maximin)
Latin hypercube in the unit cube and are rescaled through the inverse CDFs.

All stochastic operations take an explicit seeded generator; nothing touches
global random state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .table import read_table, write_table

__all__ = [
    "GammaDist",
    "MaterialPrior",
    "BUILTIN_PRIORS",
    "MATERIALS",
    "PARAMETERS",
    "gamma_pdf",
    "gamma_cdf",
    "gamma_inv_cdf",
    "gamma_fit",
    "fit_from_ranges",
    "lhs_sample",
    "apply_marginals",
    "relative_1",
    "relative_2",
    "load_priors",
    "write_priors",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GammaDist:
    """Gamma distribution with shape alpha and scale theta."""

    alpha: float
    theta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf and 0.0 < self.theta < math.inf):
            raise ValueError(f"shape and scale must be positive and finite, got {self.alpha}, {self.theta}")

    @property
    def mean(self) -> float:
        return self.alpha * self.theta

    @property
    def std(self) -> float:
        return math.sqrt(self.alpha) * self.theta


MATERIALS = ("PEEK", "PA6", "PP")
PARAMETERS = ("rho", "E", "nu", "G")

# canonical prior table: (alpha, theta, stated mean, stated std), five
# significant digits; rho in g/cm^3, E and G in GPa, nu dimensionless
_PRIOR_TABLE = {
    ("PEEK", "rho"): (1.3145e2, 1.0653e-2, 1.4003, 0.12213),
    ("PEEK", "E"): (1.063e2, 3.7214e-2, 3.9559, 0.38368),
    ("PEEK", "nu"): (3.2965e3, 1.2158e-4, 0.40079, 6.9805e-3),
    ("PEEK", "G"): (4.7092e2, 2.9832e-3, 1.4049, 6.4739e-2),
    ("PA6", "rho"): (8.3079e1, 1.4188e-2, 1.1787, 0.12932),
    ("PA6", "E"): (6.0458, 0.29571, 1.7878, 0.72711),
    ("PA6", "nu"): (8.1998e1, 4.268e-3, 0.34997, 3.8648e-2),
    ("PA6", "G"): (1.5379e1, 3.3895e-2, 0.52127, 0.13292),
    ("PP", "rho"): (2.5313e2, 3.605e-3, 0.91252, 5.7355e-2),
    ("PP", "E"): (1.0516e1, 0.15586, 1.6391, 0.50544),
    ("PP", "nu"): (5.4154e3, 7.46e-5, 0.40399, 5.4898e-3),
    ("PP", "G"): (5.8031e1, 9.7743e-3, 0.56721, 7.4459e-2),
}

#: Stated moments of the canonical priors, for cross-checks.
PRIOR_STATED_MOMENTS = {key: (mean, std) for key, (_, _, mean, std) in _PRIOR_TABLE.items()}


@dataclass(frozen=True)
class MaterialPrior:
    """Independent gamma marginals for one material (no copula)."""

    name: str
    marginals: dict[str, GammaDist]

    def __post_init__(self) -> None:
        missing = [p for p in PARAMETERS if p not in self.marginals]
        if missing:
            raise ValueError(f"prior {self.name!r} is missing marginals for {missing}")

    def rho_si(self) -> float:
        """Mean density in kg/m^3 (the density is fixed, not optimized)."""
        return 1.0e3 * self.marginals["rho"].mean

    def mean_params_si(self) -> tuple[float, float]:
        """(E in Pa, nu) at the marginal means."""
        return 1.0e9 * self.marginals["E"].mean, self.marginals["nu"].mean

    def std_params_si(self) -> tuple[float, float]:
        return 1.0e9 * self.marginals["E"].std, self.marginals["nu"].std


def _builtin_priors() -> dict[str, MaterialPrior]:
    priors = {}
    for mat in MATERIALS:
        marginals = {
            par: GammaDist(*_PRIOR_TABLE[(mat, par)][:2]) for par in PARAMETERS
        }
        priors[mat] = MaterialPrior(name=mat, marginals=marginals)
    return priors


BUILTIN_PRIORS = _builtin_priors()


# ---------------------------------------------------------------------------
# gamma distribution

def gamma_pdf(d: GammaDist, x) -> np.ndarray | float:
    """Density x^(alpha-1) exp(-x/theta) / (Gamma(alpha) theta^alpha); zero
    for x < 0."""
    from scipy import special  # not at module level: importing scipy takes ~0.3 s

    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = np.exp(
        (d.alpha - 1.0) * np.log(x[pos])
        - x[pos] / d.theta
        - special.gammaln(d.alpha)
        - d.alpha * np.log(d.theta)
    )
    if np.any(x == 0.0):
        # alpha = 1 is the exponential with density 1/theta at the origin
        at_zero = np.inf if d.alpha < 1.0 else (1.0 / d.theta if d.alpha == 1.0 else 0.0)
        out[x == 0.0] = at_zero
    return float(out[0]) if scalar else out


def gamma_cdf(d: GammaDist, x) -> np.ndarray | float:
    from scipy import special

    x = np.asarray(x, dtype=float)
    out = special.gammainc(d.alpha, np.maximum(x, 0.0) / d.theta)
    return out if out.ndim else float(out)


def gamma_inv_cdf(d: GammaDist, p) -> np.ndarray | float:
    """Quantile function; monotone in p, accurate to ~1e-12 in probability."""
    from scipy import special

    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    out = d.theta * special.gammaincinv(d.alpha, p)
    return out if out.ndim else float(out)


def gamma_fit(samples, tol: float = 1e-10, max_iter: int = 100) -> GammaDist:
    """Maximum-likelihood gamma fit via Newton iteration on the digamma
    equation log(alpha) - psi(alpha) = log(mean) - mean(log x).

    Convergence is measured relative to alpha (the absolute criterion is
    meaningless for the ~1e3 shapes of the stiffer priors).
    """
    from scipy import special

    x = np.asarray(samples, dtype=float)
    if x.size < 10:
        raise ValueError(f"need at least 10 samples to fit, got {x.size}")
    if np.any(x <= 0.0):
        raise ValueError("gamma fitting requires strictly positive samples")
    mean = float(np.mean(x))
    s = math.log(mean) - float(np.mean(np.log(x)))
    if s <= 1e-12:
        raise ValueError("degenerate samples (zero log-spread); shape would diverge")
    # standard closed-form initializer
    alpha = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(max_iter):
        step = (math.log(alpha) - special.digamma(alpha) - s) / (
            1.0 / alpha - special.polygamma(1, alpha)
        )
        alpha -= step
        if not (alpha > 0.0 and math.isfinite(alpha)):
            raise ValueError("gamma fit diverged")
        if abs(step) <= tol * max(1.0, alpha):
            break
    return GammaDist(alpha=alpha, theta=mean / alpha)


def fit_from_ranges(
    points,
    ranges,
    mc_rounds: int = 1000,
    draws_per_range: int = 100,
    rng: np.random.Generator | None = None,
) -> GammaDist:
    """Monte Carlo gamma fit from scattered literature values.

    Per round, every (lo, hi) range is expanded into ``draws_per_range``
    uniform draws, pooled with the point values, and fitted; the returned
    shape and scale are the arithmetic means over all rounds.
    """
    points = np.asarray(list(points), dtype=float)
    ranges = [(float(lo), float(hi)) for lo, hi in ranges]
    if points.size == 0 and not ranges:
        raise ValueError("need at least one point or range")
    if rng is None:
        rng = np.random.default_rng(0)
    alphas = np.empty(mc_rounds)
    thetas = np.empty(mc_rounds)
    for i in range(mc_rounds):
        pools = [points]
        for lo, hi in ranges:
            pools.append(rng.uniform(lo, hi, size=draws_per_range))
        fit = gamma_fit(np.concatenate(pools))
        alphas[i] = fit.alpha
        thetas[i] = fit.theta
    return GammaDist(alpha=float(np.mean(alphas)), theta=float(np.mean(thetas)))


# ---------------------------------------------------------------------------
# sampling

def lhs_sample(n: int, m: int, seed: int, restarts: int = 100) -> np.ndarray:
    """Optimized Latin hypercube: n x m unit-cube design with one sample per
    stratum and column, chosen as the maximin (largest minimum pairwise
    distance) design among ``restarts`` seeded candidates.

    The score is non-decreasing in ``restarts`` for a fixed seed because
    candidates are drawn from one stream.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 samples and m >= 1 dimensions")
    if restarts < 1:
        raise ValueError("need at least one candidate design")
    rng = np.random.default_rng(seed)
    best = None
    best_score = -np.inf
    for _ in range(restarts):
        design = np.empty((n, m))
        for j in range(m):
            perm = rng.permutation(n)
            design[:, j] = (perm + rng.uniform(size=n)) / n
        diff = design[:, None, :] - design[None, :, :]
        dist2 = np.sum(diff**2, axis=-1)
        np.fill_diagonal(dist2, np.inf)
        score = float(np.min(dist2))
        if score > best_score:
            best_score = score
            best = design
    return best


def apply_marginals(
    unit: np.ndarray,
    prior: MaterialPrior,
    which: tuple[str, ...] = ("E", "nu"),
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Map unit-cube samples through the inverse marginal CDFs: one column
    of physical draws per name in ``which``.

    Poisson's-ratio draws at or above 0.5 (unit sample beyond the 0.99974
    quantile for the shipped priors) are redrawn uniformly and logged; all
    returned rows satisfy the physical parameter constraints.
    """
    unit = np.asarray(unit, dtype=float)
    if unit.ndim != 2 or unit.shape[1] != len(which):
        raise ValueError(f"expected a (n, {len(which)}) unit matrix, got {unit.shape}")
    values = np.empty_like(unit)
    redraws = 0
    for j, name in enumerate(which):
        dist = prior.marginals[name]
        column = gamma_inv_cdf(dist, unit[:, j])
        if name == "nu":
            for i in range(column.size):
                while column[i] >= 0.5:
                    if rng is None:
                        raise ValueError(
                            "nu draw >= 0.5 requires an explicit generator for the redraw"
                        )
                    u = rng.uniform()
                    column[i] = gamma_inv_cdf(dist, u)
                    redraws += 1
        values[:, j] = column
    if redraws:
        log.info("redrew %d Poisson's-ratio samples >= 0.5 for prior %s", redraws, prior.name)
    return values


# ---------------------------------------------------------------------------
# error norms

def relative_1(x_hat, x) -> float:
    """Elementwise relative Manhattan error ||1 - diag(x_hat)^-1 x||_1."""
    x_hat = np.asarray(x_hat, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(x_hat == 0.0):
        raise ValueError("reference parameters must be nonzero")
    return float(np.sum(np.abs(1.0 - x / x_hat)))


def relative_2(y_hat, y) -> float:
    """Relative Euclidean error ||y_hat - y||_2 / ||y_hat||_2."""
    y_hat = np.asarray(y_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    norm = float(np.linalg.norm(y_hat))
    if norm == 0.0:
        raise ValueError("reference vector must be nonzero")
    return float(np.linalg.norm(y_hat - y) / norm)


# ---------------------------------------------------------------------------
# priors file

_PRIORS_HEADER = "material,parameter,alpha,theta"


def write_priors(priors: dict[str, MaterialPrior], path: str | Path) -> None:
    """Editable CSV: material, parameter, alpha, theta."""
    dists = ((mat, par, prior.marginals[par]) for mat, prior in priors.items() for par in PARAMETERS)
    write_table(path, (), _PRIORS_HEADER, ([mat, par, repr(d.alpha), repr(d.theta)] for mat, par, d in dists))


def load_priors(path: str | Path) -> dict[str, MaterialPrior]:
    """Read a ``write_priors`` file; a malformed row raises ``ValueError``
    naming its line."""
    table: dict[str, dict[str, GammaDist]] = {}
    for mat, par, dist in read_table(path, _PRIORS_HEADER, lambda m, p, a, t: (m, p, GammaDist(float(a), float(t)))):
        table.setdefault(mat, {})[par] = dist
    return {mat: MaterialPrior(name=mat, marginals=marginals) for mat, marginals in table.items()}
