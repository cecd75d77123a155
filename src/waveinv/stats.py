"""Material-parameter priors, the gamma distribution function and quantile,
Latin hypercube sampling, and the relative parameter error.

Literature ranges for density, Young's modulus, Poisson's ratio, and shear
modulus of the three polymers of interest (PEEK, PA6, PP) were condensed
into gamma marginals; the shape/scale pairs below are the canonical priors
shipped with the package (density in g/cm^3, moduli in GPa).  Marginals are
treated as independent: parameter draws go through an optimized (maximin)
Latin hypercube in the unit cube and are rescaled through the inverse CDFs.

All stochastic operations take an explicit seeded generator; nothing touches
global random state.  The gamma functions need numpy alone.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .table import read_table

__all__ = [
    "GammaDist",
    "MaterialPrior",
    "BUILTIN_PRIORS",
    "MATERIALS",
    "PARAMETERS",
    "gamma_cdf",
    "gamma_inv_cdf",
    "lhs_sample",
    "apply_marginals",
    "relative_1",
    "load_priors",
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
        # an integer shape would reach integer powers in Temme's expansion
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "theta", float(self.theta))

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

# P(a, x) and its inverse in numpy (Numerical Recipes 6.2; Temme's uniform
# expansion as in DLMF 8.12).  Everything below works on the unit-scale
# variable x / theta and a 1-d array of it.

_EPS = float(np.finfo(float).eps)

#: Bernoulli numbers B_2, B_4, ..., B_14 of the Stirling series.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)

#: Near the mode, |x - a| <= 0.4 a, log(1 + t) - t with t = (x - a) / a is
#: summed as a series, and for shapes a >= 20 Temme's expansion gives P or
#: Q, with 10 powers of 1/a and 20 powers of eta; the terms left out are
#: below the rounding error there.
_NEAR = 0.4
_TEMME_SHAPE = 20.0
_TEMME_ORDERS = 10
_TEMME_DEGREE = 20

#: Terms of the series for P summed per vectorized block: one block for
#: x < 30 or so.
_SERIES_BLOCK = 64

#: Halley and bisection steps before the quantile stops refining.
_MAX_STEPS = 100

#: Probabilities below this are solved in logs (:func:`_deep_quantile`): at
#: large shapes P(a, x) near them is subnormal, and a bracket on P itself
#: climbs away from the root.
_DEEP = 1e-300


def _stirling(a: float) -> float:
    """The Stirling remainder log Gamma(a + 1) - (a + 1/2) log a + a - log(2 pi) / 2."""
    if a < 10.0:
        return math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
    return sum(b / (2 * m * (2 * m - 1) * a ** (2 * m - 1)) for m, b in enumerate(_BERNOULLI, start=1))


@functools.cache
def _log1pmx_weights() -> np.ndarray:
    """w with log(1 + t) - t = sum_n w[n] u^n, u = t / (2 + t), from
    log(1 + t) = 2 atanh(u) = sum over odd n of 2 u^n / n and
    t = 2u / (1 - u) = sum over n >= 1 of 2 u^n.  For |t| <= 0.4, |u| <= 1/4
    and 30 terms reach the last bit."""
    return np.array([0.0] + [(2.0 / n if n % 2 else 0.0) - 2.0 for n in range(1, 30)])


@functools.cache
def _temme_table() -> np.ndarray:
    """d[k, n], the coefficient of eta^n in C_k(eta) of Temme's expansion.

    C_0 = 1/mu - 1/eta with eta^2 / 2 = mu - log(1 + mu), and
    d[k, n] = (n + 2) d[k - 1, n + 2] + (-1)^k g_k d[0, n], where g_k are
    the coefficients of Gamma*(a) = Gamma(a) / (sqrt(2 pi / a) (a / e)^a) = sum g_k a^-k.
    """
    size = _TEMME_DEGREE + 2 * _TEMME_ORDERS
    # mu(eta) = sum m[n] eta^n solves (1 + mu) eta = mu dmu/deta
    m = [0.0, 1.0]
    for n in range(2, size + 2):
        m.append((m[n - 1] - sum(j * m[n + 1 - j] * m[j] for j in range(2, n))) / (n + 1))
    # eta / mu = sum r[n] eta^n, so 1/mu - 1/eta = sum r[n + 1] eta^n
    r = [1.0]
    for n in range(1, size + 1):
        r.append(-sum(m[i + 1] * r[n - i] for i in range(1, n + 1)))
    # log Gamma*(a) = sum B_2j / (2j (2j - 1) a^(2j - 1)), exponentiated
    log_g = [0.0] * (_TEMME_ORDERS + 1)
    for j, b in enumerate(_BERNOULLI, start=1):
        if 2 * j - 1 <= _TEMME_ORDERS:
            log_g[2 * j - 1] = b / (2 * j * (2 * j - 1))
    g = [1.0]
    for k in range(1, _TEMME_ORDERS + 1):
        g.append(sum(j * log_g[j] * g[k - j] for j in range(1, k + 1)) / k)
    rows = [r[1:]]
    for k in range(1, _TEMME_ORDERS):
        rows.append([(n + 2) * rows[-1][n + 2] + (-1) ** k * g[k] * rows[0][n] for n in range(len(rows[-1]) - 2)])
    return np.array([row[:_TEMME_DEGREE] for row in rows])


@functools.lru_cache(maxsize=64)
def _shape_terms(a: float) -> tuple[float, np.ndarray | None]:
    """log(sqrt(2 pi a)) plus the Stirling remainder, so that
    log(x^a e^-x / Gamma(a + 1)) = a (log(x/a) - (x - a)/a) - this; and for
    a >= 20 the coefficients of eta^n in sum_k C_k(eta) a^-k / sqrt(2 pi a)."""
    log_norm = 0.5 * math.log(2.0 * math.pi * a) + _stirling(a)
    if a < _TEMME_SHAPE:
        return log_norm, None
    return log_norm, a ** -np.arange(_TEMME_ORDERS) @ _temme_table() / math.sqrt(2.0 * math.pi * a)


def _temme(a: float, t: np.ndarray, lg: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The smaller tail at x = a (1 + t), P for t < 0 and Q otherwise:
    erfc(|eta| sqrt(a/2)) / 2 -+ exp(-a eta^2 / 2) sum_k C_k(eta) a^-k / sqrt(2 pi a),
    with eta^2 / 2 = t - log(1 + t) = -lg."""
    eta = np.copysign(np.sqrt(-2.0 * lg), t)
    r = np.exp(a * lg) * (np.vander(eta, weights.size, increasing=True) * weights).sum(axis=1)
    erfc = np.fromiter(map(math.erfc, np.abs(eta) * math.sqrt(0.5 * a)), float, count=eta.size)
    return 0.5 * erfc + r * np.copysign(1.0, t)


def _lower_series(a: float, x: np.ndarray) -> np.ndarray:
    """sum_n x^n / ((a + 1) ... (a + n)), so that P = x^a e^-x / Gamma(a + 1) times it."""
    total = np.ones_like(x)
    term = total
    live = np.ones(x.shape, bool)
    k = a + np.arange(1.0, _SERIES_BLOCK + 1.0)
    while True:
        terms = term[:, None] * np.cumprod(x[:, None] / k, axis=1)
        total = total + np.where(live, terms.sum(axis=1), 0.0)  # a converged row keeps its sum
        term = terms[:, -1]
        live &= term > _EPS * total
        if np.count_nonzero(live) == 0:
            return total
        k = k + _SERIES_BLOCK


def _upper_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """1 / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / (x + 5 - a - ...))),
    so that Q = x^a e^-x / Gamma(a) times it; modified Lentz method."""
    b = x + 1.0 - a
    c = np.full_like(x, np.inf)
    d = 1.0 / b
    h = d
    done = np.zeros(x.shape, bool)
    for i in range(1, 1000):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        # a converged row keeps its value: more factors of 1 +- ulp would
        # let it drift while slower rows converge
        h = np.where(done, h, h * (d * c))
        done |= np.abs(d * c - 1.0) <= _EPS
        if np.count_nonzero(done) == done.size:
            break
    return h


def _log_prefix(a: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """t = (x - a) / a, lg = log(1 + t) - t, the mask |t| <= 0.4 where lg is
    summed as a series, and log D, D = x^a e^-x / Gamma(a + 1) = exp(a lg) / (sqrt(2 pi a) e^stirling)."""
    t = (x - a) / a
    lg = np.log(x / a) - t  # log(1 + t) - t; near x = a the two terms cancel
    near = np.abs(t) <= _NEAR
    if np.count_nonzero(near):
        u = t[near] / (2.0 + t[near])
        w = _log1pmx_weights()
        lg[near] = (np.vander(u, w.size, increasing=True) * w).sum(axis=1)
    return t, lg, near, a * lg - _shape_terms(a)[0]


def _gamma_pq(a: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(a, x), Q(a, x) and log D, D = x^a e^-x / Gamma(a + 1), for finite x > 0.

    Each method computes one tail and the other is 1 minus it.  Temme's
    expansion serves |x - a| <= 0.4 a for a >= 20 and gives the smaller
    tail.  The continued fraction gives Q for x >= a + 1 where a D < 0.2,
    which bounds Q by 0.2: the upper tail, where 1 - P would lose the
    digits of a small Q.  The series gives P everywhere else; near the
    mode it converges in a few dozen terms, where the fraction needs 15
    to 60 iterations.
    """
    t, lg, near, log_d = _log_prefix(a, x)
    weights = _shape_terms(a)[1]
    p = np.empty_like(x)
    q = np.empty_like(x)
    temme = near if weights is not None else np.zeros(x.shape, bool)
    fraction = ~temme & (x >= a + 1.0) & (log_d < math.log(0.2 / a))
    series = ~(temme | fraction)
    if np.count_nonzero(temme):
        small = _temme(a, t[temme], lg[temme], weights)
        upper = t[temme] >= 0.0
        p[temme] = np.where(upper, 1.0 - small, small)
        q[temme] = np.where(upper, small, 1.0 - small)
    if np.count_nonzero(series):
        p[series] = np.exp(log_d[series]) * _lower_series(a, x[series])
        q[series] = 1.0 - p[series]
    if np.count_nonzero(fraction):
        q[fraction] = a * np.exp(log_d[fraction]) * _upper_fraction(a, x[fraction])
        p[fraction] = 1.0 - q[fraction]
    return p, q, log_d


def gamma_cdf(d: GammaDist, x) -> np.ndarray | float:
    """P(X <= x), the regularized lower incomplete gamma P(alpha, x / theta);
    0 for x <= 0, 1 at x = inf, NaN for NaN."""
    x = np.maximum(np.asarray(x, dtype=float), 0.0) / d.theta
    out = np.where(x > 0.0, 1.0, x)
    inside = (x > 0.0) & (x < np.inf)
    if np.count_nonzero(inside):
        out[inside] = _gamma_pq(d.alpha, x[inside])[0]
    return out if out.ndim else float(out)


def _normal_upper_quantile(q: np.ndarray) -> np.ndarray:
    """z with upper-tail probability q <= 0.5: Abramowitz and Stegun
    26.2.23 (error below 4.5e-4), then one Newton step on erfc."""
    s = np.sqrt(-2.0 * np.log(q))
    z = s - (2.515517 + s * (0.802853 + s * 0.010328)) / (1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))
    tail = 0.5 * np.fromiter(map(math.erfc, z * math.sqrt(0.5)), float, count=z.size)
    with np.errstate(over="ignore", invalid="ignore"):
        step = (tail - q) * math.sqrt(2.0 * math.pi) * np.exp(0.5 * z * z)
    return np.where(np.isfinite(step), z + step, z)  # q below ~1e-300 keeps the first guess


def _wilson_hilferty(a: float, z: np.ndarray) -> np.ndarray:
    """The Wilson-Hilferty approximation of the quantile at the standard
    normal deviate z: the cube root of a gamma variate is nearly normal."""
    return a * np.maximum(1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a)), 0.0) ** 3


def _gamma_quantile(a: float, p: np.ndarray) -> np.ndarray:
    """x with P(a, x) = p: Wilson-Hilferty start, then Halley steps on the
    smaller tail, kept inside a bracket by bisection; below ``_DEEP`` see
    :func:`_deep_quantile`."""
    # P(a, x) <= x^a / Gamma(a + 1), so (p Gamma(a + 1))^(1/a) is a lower
    # bound; the quantile underflows to 0 with it
    lo = np.exp((np.log(p) + math.lgamma(a + 1.0)) / a)
    deep = p < _DEEP
    if np.count_nonzero(lo) < lo.size or np.count_nonzero(deep):
        out = np.zeros_like(p)
        solve = (lo > 0.0) & ~deep
        if np.count_nonzero(solve):
            out[solve] = _gamma_quantile(a, p[solve])
        deep &= lo > 0.0
        if np.count_nonzero(deep):
            out[deep] = _deep_quantile(a, p[deep], lo[deep])
        return out
    hi = np.full_like(p, np.inf)
    lower = p <= 0.5
    tail = np.where(lower, p, 1.0 - p)
    z = _normal_upper_quantile(tail)
    x = np.maximum(_wilson_hilferty(a, np.where(lower, -z, z)), lo)
    # a converged entry keeps its value, so each entry's result does not
    # depend on the others in the batch
    converged = np.zeros(p.shape, bool)
    for _ in range(_MAX_STEPS):
        p_x, q_x, log_d = _gamma_pq(a, x)
        f = np.where(lower, p_x - p, tail - q_x)  # P(a, x) - p, from the tail that holds its digits
        np.copyto(lo, x, where=f < 0.0)
        np.copyto(hi, x, where=f > 0.0)
        s = a - 1.0 - x
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = f * x / (a * np.exp(log_d))  # Newton step: dP/dx = a D / x
            dx = u / (1.0 - 0.5 * np.minimum(1.0, u * s / x))  # Halley: P''/P' = s / x
            # Halley's relative error after the step is K e^3, e = |dx| / x,
            # K = s^2 / 12 + (a - 1) / 6 (plus 1 for a margin)
            e = np.abs(dx / x)
            done = e * e * e * (s * s / 12.0 + abs(a - 1.0) / 6.0 + 1.0) <= _EPS
        new = np.where(converged, x, x - dx)
        bad = ~(done | converged | ((new >= lo) & (new <= hi)))
        if np.count_nonzero(bad):
            new[bad] = np.where(hi[bad] < np.inf, 0.5 * (lo[bad] + hi[bad]), 2.0 * x[bad])
        x = new
        converged |= done
        if np.count_nonzero(converged) == converged.size:
            break
    return x


def _deep_quantile(a: float, p: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """x with P(a, x) = p < ``_DEEP``, given the lower bound ``lo``.

    Near such a quantile P itself is subnormal or underflows to 0, so Newton
    steps solve log P(a, x) = log p, with log P = log D + log S from the
    prefix and the positive series S of :func:`_lower_series`; neither
    underflows.  d log P / dx = a / (x S).  The root lies below a
    (P(a, a) > 1/2), where the series converges.  For a >= 1 the density is
    log-concave, so log P is concave in x and, after at most one step from
    the Wilson-Hilferty start in [lo, a], the iterates rise to the root;
    every iterate is kept at or above ``lo``.
    """
    log_p = np.log(p)
    x = np.clip(_wilson_hilferty(a, -_normal_upper_quantile(p)), lo, a)
    converged = np.zeros(p.shape, bool)  # a converged entry keeps its value
    for _ in range(_MAX_STEPS):
        series = _lower_series(a, x)
        dx = (_log_prefix(a, x)[3] + np.log(series) - log_p) * x * series / a
        done = converged | (np.abs(dx) <= 4.0 * _EPS * x)
        x = np.where(converged, x, np.maximum(x - dx, lo))
        converged = done
        if np.count_nonzero(converged) == converged.size:
            break
    return x


def gamma_inv_cdf(d: GammaDist, p) -> np.ndarray | float:
    """Quantile function; monotone in p.  For shapes 0.5 to 1e4 and p in
    [1e-6, 1 - 1e-6] it was measured within 1e-13 relative of
    scipy.special.gammaincinv.  Subnormal p is served too: at p = 5e-324
    and shapes 1e4 and 1e6 the result is within 1e-14 of the exact root."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    out = d.theta * _gamma_quantile(d.alpha, p.reshape(-1)).reshape(p.shape)
    return out if out.ndim else float(out)


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
# error norm

def relative_1(x_hat, x) -> float:
    """Elementwise relative Manhattan error ||1 - diag(x_hat)^-1 x||_1 of
    two vectors of equal length, summed left to right on floats (for two
    parameters the same bits as numpy's sum)."""
    x_hat = np.asarray(x_hat, dtype=float).tolist()
    x = np.asarray(x, dtype=float).tolist()
    if 0.0 in x_hat:
        raise ValueError("reference parameters must be nonzero")
    total = 0.0
    for ref, value in zip(x_hat, x, strict=True):
        total += abs(1.0 - value / ref)
    return total


# ---------------------------------------------------------------------------
# priors file

_PRIORS_HEADER = "material,parameter,alpha,theta"


def load_priors(path: str | Path) -> dict[str, MaterialPrior]:
    """Read an editable priors CSV with the header
    ``material,parameter,alpha,theta`` and one gamma marginal (shape alpha,
    scale theta) per row; a malformed row raises ``ValueError`` naming its
    line."""
    table: dict[str, dict[str, GammaDist]] = {}
    for mat, par, dist in read_table(path, _PRIORS_HEADER, lambda m, p, a, t: (m, p, GammaDist(float(a), float(t)))):
        table.setdefault(mat, {})[par] = dist
    return {mat: MaterialPrior(name=mat, marginals=marginals) for mat, marginals in table.items()}
