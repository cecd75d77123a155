"""Tests for priors, gamma fitting, Latin hypercube sampling, and error norms."""

import logging
import re

import numpy as np
import pytest
from scipy.integrate import quad

from waveinv.stats import (
    BUILTIN_PRIORS,
    MATERIALS,
    PARAMETERS,
    PRIOR_STATED_MOMENTS,
    GammaDist,
    apply_marginals,
    fit_from_ranges,
    gamma_cdf,
    gamma_fit,
    gamma_inv_cdf,
    gamma_pdf,
    lhs_sample,
    load_priors,
    relative_1,
    relative_2,
    write_priors,
)


class TestGammaPdf:
    def test_exponential_at_origin(self):
        assert gamma_pdf(GammaDist(1.0, 2.0), 0.0) == pytest.approx(0.5)

    def test_negative_support_is_zero(self):
        assert gamma_pdf(GammaDist(3.0, 1.0), -1.0) == 0.0

    def test_peek_density_mean(self):
        d = BUILTIN_PRIORS["PEEK"].marginals["rho"]
        assert d.mean == pytest.approx(1.4003, rel=1e-4)

    def test_mode_is_stationary(self):
        d = GammaDist(5.0, 2.0)
        mode = (d.alpha - 1.0) * d.theta
        h = 1e-5
        deriv = (gamma_pdf(d, mode + h) - gamma_pdf(d, mode - h)) / (2 * h)
        assert abs(deriv) <= 1e-8

    def test_integrates_to_one(self):
        for d in (GammaDist(1.3, 0.7), GammaDist(9.0, 0.5), GammaDist(131.45, 0.010653)):
            hi = d.mean + 20 * d.std
            val, _ = quad(lambda t: gamma_pdf(d, t), 0.0, hi, limit=200)
            assert val == pytest.approx(1.0, abs=1e-6)

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


class TestGammaFit:
    def test_recovers_peek_modulus_prior(self):
        rng = np.random.default_rng(42)
        x = rng.gamma(106.3, 0.037214, size=100000)
        fit = gamma_fit(x)
        assert fit.mean == pytest.approx(3.9559, rel=0.01)

    def test_exponential_shape(self):
        rng = np.random.default_rng(43)
        fit = gamma_fit(rng.exponential(2.0, size=100000))
        assert fit.alpha == pytest.approx(1.0, rel=0.05)

    def test_matches_method_of_moments(self):
        # method-of-moments as an independent cross-check oracle
        rng = np.random.default_rng(44)
        x = rng.gamma(7.0, 1.3, size=200000)
        fit = gamma_fit(x)
        mom_alpha = np.mean(x) ** 2 / np.var(x)
        assert fit.alpha == pytest.approx(mom_alpha, rel=0.02)

    def test_constant_samples_rejected(self):
        with pytest.raises(ValueError):
            gamma_fit(np.full(100, 3.0))

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            gamma_fit(np.array([1.0] * 20 + [-0.5]))

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            gamma_fit(np.arange(1.0, 6.0))

    def test_large_shape_converges(self):
        rng = np.random.default_rng(45)
        x = rng.gamma(5415.4, 7.46e-5, size=50000)  # the stiffest shipped prior
        fit = gamma_fit(x)
        assert fit.mean == pytest.approx(0.40399, rel=0.01)


class TestFitFromRanges:
    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            fit_from_ranges([], [(2.0, 2.0)], mc_rounds=1, rng=np.random.default_rng(0))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_from_ranges([], [], mc_rounds=1)

    def test_single_round_equals_single_fit(self):
        ranges = [(1.0, 2.0), (1.5, 3.0)]
        points = [1.7, 2.2]
        est = fit_from_ranges(points, ranges, mc_rounds=1, rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        pooled = np.concatenate(
            [np.asarray(points)] + [rng.uniform(lo, hi, size=100) for lo, hi in ranges]
        )
        direct = gamma_fit(pooled)
        assert est.alpha == pytest.approx(direct.alpha, rel=1e-12)
        assert est.theta == pytest.approx(direct.theta, rel=1e-12)

    def test_quantile_slice_consistency(self):
        # ranges built as equal-probability slices of a known gamma: the MC
        # average must agree with a one-shot mega-draw from the same scheme
        true = GammaDist(9.0, 0.5)
        edges = gamma_inv_cdf(true, np.linspace(0.001, 0.999, 41))
        ranges = list(zip(edges[:-1], edges[1:]))
        est = fit_from_ranges([], ranges, mc_rounds=100, rng=np.random.default_rng(3))
        rng = np.random.default_rng(99)
        mega = np.concatenate([rng.uniform(lo, hi, size=20000) for lo, hi in ranges])
        oracle = gamma_fit(mega)
        assert est.alpha == pytest.approx(oracle.alpha, rel=5e-3)
        assert est.theta == pytest.approx(oracle.theta, rel=5e-3)
        assert est.mean == pytest.approx(true.mean, rel=0.01)


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


class TestErrorNorms:
    def test_relative1_zero_at_match(self):
        assert relative_1([2.0, 3.0], [2.0, 3.0]) == 0.0

    def test_relative1_hand_examples(self):
        assert relative_1([2.0, 4.0], [1.0, 2.0]) == pytest.approx(1.0)
        assert relative_1([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_relative1_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_1([0.0, 1.0], [1.0, 1.0])

    def test_relative1_triangle_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x_hat = rng.uniform(0.5, 2.0, 3)
            x = rng.uniform(-2.0, 2.0, 3)
            z = rng.uniform(-2.0, 2.0, 3)
            bound = relative_1(x_hat, z) + np.sum(np.abs(z - x) / np.abs(x_hat))
            assert relative_1(x_hat, x) <= bound + 1e-12

    def test_relative2(self):
        assert relative_2([3.0, 4.0], [3.0, 4.0]) == 0.0
        assert relative_2([3.0, 4.0], [0.0, 0.0]) == pytest.approx(1.0)
        assert relative_2([3.0, 4.0], [3.0, 0.0]) == pytest.approx(0.8)
        with pytest.raises(ValueError):
            relative_2([0.0, 0.0], [1.0, 1.0])


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

    def test_priors_file_round_trip(self, tmp_path):
        path = tmp_path / "priors.csv"
        write_priors(BUILTIN_PRIORS, path)
        back = load_priors(path)
        for mat in MATERIALS:
            for par in PARAMETERS:
                orig = BUILTIN_PRIORS[mat].marginals[par]
                got = back[mat].marginals[par]
                assert got.alpha == orig.alpha
                assert got.theta == orig.theta
