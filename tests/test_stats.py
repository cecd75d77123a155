"""Tests for priors, the gamma distribution function and quantile, Latin
hypercube sampling, and the relative parameter error."""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from waveinv.optim import OptimizeOptions, optimize
from waveinv.stats import (
    BUILTIN_PRIORS,
    MATERIALS,
    PARAMETERS,
    PRIOR_STATED_MOMENTS,
    GammaDist,
    apply_marginals,
    gamma_cdf,
    gamma_inv_cdf,
    lhs_sample,
    load_priors,
    relative_1,
)


class TestGammaPdf:
    """The gamma density, taken as the derivative of gamma_cdf."""

    def test_exponential_at_origin(self):
        d, h = GammaDist(1.0, 2.0), 1e-7
        assert (gamma_cdf(d, h) - gamma_cdf(d, 0.0)) / h == pytest.approx(0.5, rel=1e-6)

    def test_negative_support_is_zero(self):
        assert np.array_equal(gamma_cdf(GammaDist(3.0, 1.0), np.array([-1.0, -0.5, 0.0])), np.zeros(3))

    def test_peek_density_mean(self):
        d = BUILTIN_PRIORS["PEEK"].marginals["rho"]
        assert d.mean == pytest.approx(1.4003, rel=1e-4)

    def test_mode_is_stationary(self):
        # the second difference of the cdf is the density's slope times h^2
        d, h = GammaDist(5.0, 2.0), 1e-3
        mode = (d.alpha - 1.0) * d.theta
        for x, flat in ((mode, True), (0.5 * mode, False)):
            slope = (gamma_cdf(d, x + h) - 2.0 * gamma_cdf(d, x) + gamma_cdf(d, x - h)) / h**2
            assert (abs(slope) <= 1e-8) == flat, (x, slope)

    def test_integrates_to_one(self):
        for d in (GammaDist(1.3, 0.7), GammaDist(9.0, 0.5), GammaDist(131.45, 0.010653)):
            hi = d.mean + 20 * d.std
            assert gamma_cdf(d, hi) - gamma_cdf(d, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_invalid_dist_rejected(self):
        with pytest.raises(ValueError):
            GammaDist(-1.0, 1.0)
        with pytest.raises(ValueError):
            GammaDist(1.0, 0.0)


class TestGammaInvCdf:
    def test_round_trip_at_mean(self):
        d = GammaDist(106.3, 0.037214)
        p = gamma_cdf(d, d.mean)
        assert gamma_inv_cdf(d, p) == pytest.approx(d.mean, abs=1e-8)

    def test_exponential_closed_form(self):
        assert gamma_inv_cdf(GammaDist(1.0, 1.0), 1.0 - np.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_peek_nu_median(self):
        d = BUILTIN_PRIORS["PEEK"].marginals["nu"]
        assert 0.39 <= gamma_inv_cdf(d, 0.5) <= 0.41

    def test_monotone(self):
        d = GammaDist(4.0, 1.5)
        ps = np.linspace(0.01, 0.99, 50)
        xs = gamma_inv_cdf(d, ps)
        assert np.all(np.diff(xs) > 0.0)

    def test_probability_round_trip(self):
        d = GammaDist(4.0, 1.5)
        for p in (0.01, 0.3, 0.5, 0.9, 0.999):
            assert gamma_cdf(d, gamma_inv_cdf(d, p)) == pytest.approx(p, abs=1e-10)

    def test_rejects_boundary_probabilities(self):
        d = GammaDist(1.0, 1.0)
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                gamma_inv_cdf(d, p)

    def test_integer_shape_and_scale(self):
        # an integer shape of 20 or more used to reach integer negative powers
        for p in (0.3, 1e-310):
            assert gamma_inv_cdf(GammaDist(20, 2), p) == gamma_inv_cdf(GammaDist(20.0, 2.0), p)
        assert gamma_cdf(GammaDist(100, 1), 90.0) == gamma_cdf(GammaDist(100.0, 1.0), 90.0)


class TestGammaFit:
    """A method-of-moments gamma fit to inverse-transform draws
    gamma_inv_cdf(d, u), u uniform, as apply_marginals draws the priors,
    recovers d."""

    @staticmethod
    def fit(d, seed, size=100000):
        x = gamma_inv_cdf(d, np.random.default_rng(seed).uniform(size=size))
        alpha = np.mean(x) ** 2 / np.var(x)
        return GammaDist(alpha, np.mean(x) / alpha)

    def test_recovers_peek_modulus_prior(self):
        fit = self.fit(GammaDist(106.3, 0.037214), 42)
        assert fit.mean == pytest.approx(3.9559, rel=0.01)

    def test_exponential_shape(self):
        fit = self.fit(GammaDist(1.0, 2.0), 43)
        assert fit.alpha == pytest.approx(1.0, rel=0.05)

    def test_matches_method_of_moments(self):
        # numpy's own gamma sampler as an independent cross-check oracle
        x = np.random.default_rng(44).gamma(7.0, 1.3, size=200000)
        fit = self.fit(GammaDist(7.0, 1.3), 44, size=200000)
        assert fit.alpha == pytest.approx(np.mean(x) ** 2 / np.var(x), rel=0.02)

    def test_large_shape_converges(self):
        fit = self.fit(GammaDist(5415.4, 7.46e-5), 45, size=50000)  # the stiffest shipped prior
        assert fit.mean == pytest.approx(0.40399, rel=0.01)


#: Shapes spread evenly in log over the accuracy domain 0.5 <= alpha <= 1e4.
SHAPES = st.floats(min_value=math.log(0.5), max_value=math.log(1e4)).map(math.exp)
SCALES = st.floats(min_value=1e-3, max_value=1e3)
PROBABILITIES = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


class TestGammaAgainstScipy:
    """scipy.special as the oracle: gammainc for the distribution function,
    theta * gammaincinv for the quantile."""

    @settings(max_examples=300, deadline=None)
    @given(alpha=SHAPES, theta=SCALES, p=PROBABILITIES, stretch=st.floats(0.5, 2.0))
    def test_cdf_matches_gammainc(self, alpha, theta, p, stretch):
        d = GammaDist(alpha, theta)
        xs = theta * special.gammaincinv(alpha, p) * np.array([1.0, stretch])
        got = gamma_cdf(d, xs)
        # 2e-14: gammainc itself is off by up to 1.1e-14 near alpha = 0.5
        # (test_cdf_where_gammainc_drifts)
        assert np.max(np.abs(got - special.gammainc(alpha, xs / theta))) <= 2e-14
        assert gamma_cdf(d, float(xs[1])) == got[1]  # scalar input, a float; entries do not interact

    @settings(max_examples=300, deadline=None)
    @given(alpha=SHAPES, theta=SCALES, ps=st.lists(PROBABILITIES, min_size=1, max_size=8))
    def test_quantile_matches_gammaincinv(self, alpha, theta, ps):
        d = GammaDist(alpha, theta)
        got = gamma_inv_cdf(d, np.array(ps))
        np.testing.assert_allclose(got, theta * special.gammaincinv(alpha, ps), rtol=1e-11, atol=0.0)
        one = gamma_inv_cdf(d, ps[0])  # scalar input, a float
        assert isinstance(one, float)
        assert one == got[0]

    @settings(max_examples=100, deadline=None)
    @given(alpha=SHAPES, ps=st.lists(PROBABILITIES, min_size=2, max_size=12))
    def test_quantile_monotone_in_p(self, alpha, ps):
        xs = gamma_inv_cdf(GammaDist(alpha, 1.0), np.sort(ps))
        # non-decreasing to within the quantile's own accuracy
        assert np.all(np.diff(xs) >= -1e-13 * xs[1:])

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=SHAPES,
        bad=st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(math.nan)),
        good=PROBABILITIES,
    )
    def test_probabilities_outside_open_interval_rejected(self, alpha, bad, good):
        d = GammaDist(alpha, 1.0)
        for p in (bad, np.array([good, bad])):
            with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
                gamma_inv_cdf(d, p)

    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, 2.0, 7.0, 20.0, 100.0, 5415.4, 1e4, 1e6])
    def test_quantile_at_tiny_probabilities(self, alpha):
        d = GammaDist(alpha, 1.0)
        # P is subnormal near these quantiles, where gammaincinv itself
        # loses digits
        deep = np.array([5e-324, 1e-320, 1e-310, 2.2e-308, 1e-301])
        np.testing.assert_allclose(gamma_inv_cdf(d, deep), special.gammaincinv(alpha, deep), rtol=1e-3, atol=0.0)
        ps = np.array([1e-300, 1e-200, 1e-20])
        np.testing.assert_allclose(gamma_inv_cdf(d, ps), special.gammaincinv(alpha, ps), rtol=1e-9, atol=0.0)
        # continuous where the solver switches to log P; either side is
        # within about |log p| eps / alpha of the root
        below, at = gamma_inv_cdf(d, np.array([np.nextafter(1e-300, 0.0), 1e-300]))
        assert abs(below - at) <= 1e-12 * at

    @pytest.mark.parametrize(
        "alpha, want",
        # 40-digit roots of P(alpha, x) = 5e-324 (mpmath); scipy 1.17's
        # gammaincinv gives 6629.6066 and 962022.54
        [(1e4, 6629.606484352349285), (1e6, 962023.9263240446038)],
    )
    def test_quantile_at_smallest_subnormal(self, alpha, want):
        assert gamma_inv_cdf(GammaDist(alpha, 1.0), 5e-324) == pytest.approx(want, rel=1e-14)

    def test_cdf_where_gammainc_drifts(self):
        # P(a, x) to 50 digits is 0.855279252744993313...; scipy 1.17's
        # gammainc returns 1.13e-14 more
        a, x = 0.5009365006641944, 1.0653240293947728
        assert gamma_cdf(GammaDist(a, 1.0), x) == pytest.approx(0.8552792527449933, abs=3e-16)

    @pytest.mark.parametrize("key", sorted(PRIOR_STATED_MOMENTS))
    def test_shipped_marginals(self, key):
        mat, par = key
        d = BUILTIN_PRIORS[mat].marginals[par]
        ps = np.concatenate([[1e-6, 1e-4, 1e-2], np.linspace(0.05, 0.95, 19), [1 - 1e-2, 1 - 1e-4, 1 - 1e-6]])
        want = d.theta * special.gammaincinv(d.alpha, ps)
        np.testing.assert_allclose(gamma_inv_cdf(d, ps), want, rtol=1e-11, atol=0.0)
        assert np.max(np.abs(gamma_cdf(d, want) - special.gammainc(d.alpha, want / d.theta))) <= 1e-14


class TestLhs:
    def test_stratification_1d(self):
        u = np.sort(lhs_sample(4, 1, seed=1)[:, 0])
        for i, v in enumerate(u):
            assert i / 4 <= v < (i + 1) / 4

    def test_projection_property(self):
        u = lhs_sample(16, 3, seed=2)
        for j in range(3):
            strata = np.floor(u[:, j] * 16).astype(int)
            assert sorted(strata) == list(range(16))

    def test_deterministic(self):
        a = lhs_sample(8, 2, seed=5, restarts=50)
        b = lhs_sample(8, 2, seed=5, restarts=50)
        assert np.array_equal(a, b)

    def test_maximin_improves_with_restarts(self):
        def score(d):
            diff = d[:, None, :] - d[None, :, :]
            dist2 = np.sum(diff**2, axis=-1)
            np.fill_diagonal(dist2, np.inf)
            return float(np.min(dist2))

        assert score(lhs_sample(10, 2, seed=5, restarts=100)) >= score(
            lhs_sample(10, 2, seed=5, restarts=1)
        )

    def test_open_unit_interval(self):
        u = lhs_sample(32, 2, seed=9)
        assert np.all(u > 0.0) and np.all(u < 1.0)


class TestApplyMarginals:
    def test_median_maps_to_median(self):
        prior = BUILTIN_PRIORS["PEEK"]
        unit = np.array([[0.5, 0.5]])
        draws = apply_marginals(unit, prior, ("E", "nu"))
        assert draws.shape == (1, 2)
        assert draws[0, 0] == pytest.approx(gamma_inv_cdf(prior.marginals["E"], 0.5))

    def test_empirical_mean(self):
        rng = np.random.default_rng(10)
        unit = rng.uniform(size=(10000, 2))
        prior = BUILTIN_PRIORS["PEEK"]
        draws = apply_marginals(unit, prior, ("E", "nu"), rng=rng)
        assert draws[:, 0].mean() == pytest.approx(prior.marginals["E"].mean, rel=0.01)
        assert draws[:, 1].mean() == pytest.approx(prior.marginals["nu"].mean, rel=0.01)

    def test_extreme_nu_quantile_redrawn_and_logged(self, caplog):
        # PA6 has P(nu >= 0.5) = 2.6e-4: a unit sample beyond 0.99974 maps
        # above 0.5 and must be redrawn
        prior = BUILTIN_PRIORS["PA6"]
        unit = np.array([[0.5, 0.99999]])
        rng = np.random.default_rng(11)
        with caplog.at_level(logging.INFO, logger="waveinv.stats"):
            draws = apply_marginals(unit, prior, ("E", "nu"), rng=rng)
        assert re.search(r"redrew [1-9]\d* Poisson's-ratio samples >= 0.5 for prior PA6", caplog.text)
        assert draws[0, 1] < 0.5

    def test_all_draws_physical(self):
        rng = np.random.default_rng(12)
        for mat in MATERIALS:
            unit = rng.uniform(size=(500, 2))
            e, nu = apply_marginals(unit, BUILTIN_PRIORS[mat], ("E", "nu"), rng=rng).T
            assert np.all(e > 0.0)
            assert np.all((nu > 0.0) & (nu < 0.5))


finite_nonzero = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0)


class TestErrorNorms:
    def test_relative1_zero_at_match(self):
        assert relative_1([2.0, 3.0], [2.0, 3.0]) == 0.0

    def test_relative1_hand_examples(self):
        assert relative_1([2.0, 4.0], [1.0, 2.0]) == pytest.approx(1.0)
        assert relative_1([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_relative1_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_1([0.0, 1.0], [1.0, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(
        x_hat=st.tuples(finite_nonzero, finite_nonzero),
        x=st.tuples(finite_nonzero, finite_nonzero),
        zero_at=st.sampled_from([None, 0, 1]),
        zero=st.sampled_from([0.0, -0.0]),
    )
    def test_relative1_bits_match_numpy(self, x_hat, x, zero_at, zero):
        # the float loop gives numpy's bits, so the rel1 trace column is
        # byte-identical; a zero reference component still raises
        if zero_at is not None:
            x_hat = tuple(zero if i == zero_at else v for i, v in enumerate(x_hat))
            with pytest.raises(ValueError):
                relative_1(x_hat, x)
            return
        with np.errstate(all="ignore"):
            want = float(np.sum(np.abs(1 - np.array(x) / np.array(x_hat))))
        assert relative_1(x_hat, x).hex() == want.hex()

    def test_relative1_triangle_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x_hat = rng.uniform(0.5, 2.0, 3)
            x = rng.uniform(-2.0, 2.0, 3)
            z = rng.uniform(-2.0, 2.0, 3)
            bound = relative_1(x_hat, z) + np.sum(np.abs(z - x) / np.abs(x_hat))
            assert relative_1(x_hat, x) <= bound + 1e-12

    def test_relative2(self):
        # the rel2 column of an optimizer record, ||ref - f(x)|| / ||ref||,
        # at the start point of an identity model f(x) = x
        def rel2(ref, x0):
            ref = np.asarray(ref)
            opts = OptimizeOptions(max_evals=1, ref_norm=float(np.linalg.norm(ref)))
            return optimize(lambda x, _: (ref - x, np.eye(2)), np.asarray(x0), opts).records[0].rel2

        assert rel2([3.0, 4.0], [3.0, 4.0]) == 0.0
        assert rel2([3.0, 4.0], [6.0, 8.0]) == pytest.approx(1.0)
        assert rel2([3.0, 4.0], [3.0, 8.0]) == pytest.approx(0.8)
        assert np.isnan(rel2([0.0, 0.0], [1.0, 1.0]))  # no reference norm, no relative residual


class TestPriorTable:
    def test_moment_identities_to_stated_digits(self):
        # mean = alpha theta and std = sqrt(alpha) theta against the stated
        # five-significant-digit values, for all 12 cells
        for (mat, par), (mean, std) in PRIOR_STATED_MOMENTS.items():
            d = BUILTIN_PRIORS[mat].marginals[par]
            assert d.mean == pytest.approx(mean, rel=5e-4), (mat, par)
            assert d.std == pytest.approx(std, rel=5e-4), (mat, par)

    def test_all_materials_and_parameters_present(self):
        assert set(BUILTIN_PRIORS) == set(MATERIALS)
        for prior in BUILTIN_PRIORS.values():
            assert set(prior.marginals) == set(PARAMETERS)

    def test_nu_tail_probability_matches_redraw_guard(self):
        # the 0.99974-quantile guard corresponds to P(nu >= 0.5) = 2.6e-4,
        # realized by the PA6 marginal
        d = BUILTIN_PRIORS["PA6"].marginals["nu"]
        assert 1.0 - gamma_cdf(d, 0.5) == pytest.approx(2.6e-4, rel=0.02)

    def test_si_conversions(self):
        prior = BUILTIN_PRIORS["PEEK"]
        assert prior.rho_si() == pytest.approx(1400.3, rel=1e-4)
        e_si, nu = prior.mean_params_si()
        assert e_si == pytest.approx(3.9559e9, rel=1e-4)
        assert nu == pytest.approx(0.40079, rel=1e-4)

    def test_priors_file_round_trip(self, tmp_path, write_builtin_priors):
        path = tmp_path / "priors.csv"
        write_builtin_priors(path)
        back = load_priors(path)
        for mat in MATERIALS:
            for par in PARAMETERS:
                orig = BUILTIN_PRIORS[mat].marginals[par]
                got = back[mat].marginals[par]
                assert got.alpha == orig.alpha
                assert got.theta == orig.theta
