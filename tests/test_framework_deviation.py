"""Tests for the Lemma 2 / Lemma 3 deviation models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import DistributionError
from repro.framework import DeviationModel, ValueDistribution, build_deviation_model
from repro.mechanisms import (
    LaplaceMechanism,
    PiecewiseMechanism,
    SquareWaveMechanism,
    get_mechanism,
)


class TestBuild:
    def test_lemma2_laplace(self):
        mech = LaplaceMechanism()
        model = build_deviation_model(mech, 0.5, 1000)
        assert model.delta == 0.0
        assert model.sigma == pytest.approx(
            math.sqrt(mech.noise_variance(0.5) / 1000)
        )

    def test_lemma2_ignores_population(self):
        mech = LaplaceMechanism()
        with_pop = build_deviation_model(
            mech, 0.5, 1000, ValueDistribution.case_study().rescale(2, -1.1)
        )
        without = build_deviation_model(mech, 0.5, 1000)
        assert with_pop.sigma == without.sigma

    def test_lemma3_requires_population(self):
        with pytest.raises(DistributionError):
            build_deviation_model(PiecewiseMechanism(), 0.5, 1000)

    def test_lemma3_piecewise_case_study(self):
        model = build_deviation_model(
            PiecewiseMechanism(), 0.001, 10_000, ValueDistribution.case_study()
        )
        assert model.delta == pytest.approx(0.0)
        assert model.sigma**2 == pytest.approx(533.210, abs=0.05)

    def test_lemma3_square_case_study(self):
        model = build_deviation_model(
            SquareWaveMechanism(), 0.001, 10_000, ValueDistribution.case_study()
        )
        assert model.delta == pytest.approx(-0.050, abs=2e-3)
        assert model.sigma**2 == pytest.approx(3.33e-5, rel=0.05)

    def test_more_reports_shrink_sigma(self):
        mech = LaplaceMechanism()
        small = build_deviation_model(mech, 0.5, 100)
        large = build_deviation_model(mech, 0.5, 10_000)
        assert large.sigma == pytest.approx(small.sigma / 10.0)

    def test_invalid_reports(self):
        with pytest.raises(ValueError):
            build_deviation_model(LaplaceMechanism(), 0.5, 0)


class TestModelQueries:
    @pytest.fixture()
    def model(self):
        return DeviationModel(delta=0.1, sigma=0.5, reports=100, epsilon=1.0)

    def test_pdf_matches_gaussian(self, model):
        from scipy import stats

        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(
            model.pdf(x), stats.norm.pdf(x, 0.1, 0.5), rtol=1e-12
        )

    def test_pdf_integrates_to_one(self, model):
        x = np.linspace(-6, 6, 100_001)
        assert np.trapezoid(model.pdf(x), x) == pytest.approx(1.0, abs=1e-6)

    def test_supremum_probability_limits(self, model):
        assert model.supremum_probability(0.0) == pytest.approx(0.0, abs=1e-12)
        assert model.supremum_probability(100.0) == pytest.approx(1.0)

    def test_supremum_plus_exceedance_is_one(self, model):
        xi = 0.7
        total = model.supremum_probability(xi) + model.exceedance_probability(xi)
        assert total == pytest.approx(1.0)

    def test_interval_probability_monotone(self, model):
        assert model.interval_probability(-1, 1) < model.interval_probability(-2, 2)

    def test_negative_supremum_rejected(self, model):
        with pytest.raises(ValueError):
            model.supremum_probability(-0.1)

    def test_empty_interval_rejected(self, model):
        with pytest.raises(ValueError):
            model.interval_probability(1.0, 0.0)

    def test_envelope_default_is_three_sigma(self, model):
        assert model.envelope() == pytest.approx(abs(model.delta) + 3 * model.sigma,
                                                 rel=1e-3)

    def test_envelope_grows_with_confidence(self, model):
        assert model.envelope(0.999) > model.envelope(0.9)

    def test_envelope_invalid_confidence(self, model):
        with pytest.raises(ValueError):
            model.envelope(1.0)

    def test_sample_moments(self, model, rng):
        sample = model.sample(200_000, rng)
        assert sample.mean() == pytest.approx(model.delta, abs=0.01)
        assert sample.std() == pytest.approx(model.sigma, rel=0.02)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DistributionError):
            DeviationModel(delta=0.0, sigma=0.0, reports=10, epsilon=1.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(DistributionError, match="delta must be finite"):
            DeviationModel(delta=delta, sigma=1.0, reports=10, epsilon=1.0)


class TestAgainstSimulation:
    """The framework's core claim: the Gaussian matches actual aggregation."""

    @pytest.mark.parametrize("name", ["laplace", "piecewise", "square_wave_unit"])
    def test_deviation_distribution(self, name, rng):
        mech = get_mechanism(name)
        lo, hi = mech.input_domain
        population = ValueDistribution.uniform_grid(
            lo + 0.1 * (hi - lo), hi, 10
        )
        reports, eps, repeats = 2_000, 0.1, 300
        column = population.sample(reports, rng)
        empirical_pop = ValueDistribution.from_data(column, bins=None)
        model = build_deviation_model(mech, eps, reports, empirical_pop)
        bias = mech.deterministic_bias(eps) or 0.0
        deviations = np.array([
            mech.perturb(column, eps, rng).mean() - bias - column.mean()
            for _ in range(repeats)
        ])
        assert deviations.mean() == pytest.approx(
            model.delta, abs=4 * model.sigma / math.sqrt(repeats)
        )
        assert deviations.std(ddof=1) == pytest.approx(model.sigma, rel=0.2)
