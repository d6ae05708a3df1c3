"""Tests for :class:`repro.framework.ValueDistribution`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DistributionError
from repro.framework import ValueDistribution


class TestConstruction:
    def test_sorts_values(self):
        dist = ValueDistribution(np.array([0.5, -0.5]), np.array([0.25, 0.75]))
        np.testing.assert_array_equal(dist.values, [-0.5, 0.5])
        np.testing.assert_array_equal(dist.probabilities, [0.75, 0.25])

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            ValueDistribution(np.empty(0), np.empty(0))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DistributionError):
            ValueDistribution(np.array([1.0]), np.array([0.5, 0.5]))

    def test_rejects_negative_probability(self):
        with pytest.raises(DistributionError):
            ValueDistribution(np.array([0.0, 1.0]), np.array([-0.1, 1.1]))

    def test_rejects_unnormalized(self):
        with pytest.raises(DistributionError):
            ValueDistribution(np.array([0.0, 1.0]), np.array([0.4, 0.4]))


class TestConstructors:
    def test_from_data_exact_uniques(self):
        dist = ValueDistribution.from_data([1.0, 1.0, 2.0, 3.0], bins=None)
        np.testing.assert_array_equal(dist.values, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(dist.probabilities, [0.5, 0.25, 0.25])

    def test_from_data_binned(self, rng):
        column = rng.normal(size=10_000)
        dist = ValueDistribution.from_data(column, bins=32)
        assert len(dist) <= 32
        assert dist.mean() == pytest.approx(column.mean(), abs=0.05)

    def test_from_data_empty_rejected(self):
        with pytest.raises(DistributionError):
            ValueDistribution.from_data([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("bins", [None, 8])
    def test_from_data_non_finite_rejected(self, bad, bins):
        with pytest.raises(DistributionError, match="NaN or infinite"):
            ValueDistribution.from_data([0.0, bad, 1.0], bins=bins)

    @pytest.mark.parametrize("bins", [0, -3])
    def test_from_data_bins_below_one_rejected(self, bins):
        with pytest.raises(DistributionError, match="bins must be >= 1"):
            ValueDistribution.from_data([0.0, 0.5, 1.0], bins=bins)

    def test_uniform_grid(self):
        dist = ValueDistribution.uniform_grid(0.0, 1.0, 5)
        np.testing.assert_allclose(dist.probabilities, 0.2)
        assert dist.support == (0.0, 1.0)

    def test_case_study_matches_paper(self):
        dist = ValueDistribution.case_study()
        np.testing.assert_allclose(dist.values, np.linspace(0.1, 1.0, 10))
        assert dist.mean() == pytest.approx(0.55)

    def test_point_mass(self):
        dist = ValueDistribution.point_mass(0.3)
        assert dist.mean() == 0.3
        assert dist.variance() == 0.0


class TestQueries:
    def test_expect_linearity(self):
        dist = ValueDistribution.case_study()
        assert dist.expect(lambda v: 2.0 * v) == pytest.approx(2.0 * dist.mean())

    def test_variance_against_numpy(self):
        dist = ValueDistribution.from_data([0.0, 0.0, 1.0, 2.0], bins=None)
        assert dist.variance() == pytest.approx(np.var([0, 0, 1, 2]))

    def test_sample_distribution(self, rng):
        dist = ValueDistribution.case_study()
        sample = dist.sample(100_000, rng)
        assert sample.mean() == pytest.approx(0.55, abs=0.01)
        assert set(np.round(np.unique(sample), 10)) <= set(
            np.round(dist.values, 10)
        )

    def test_rescale(self):
        dist = ValueDistribution.case_study().rescale(2.0, -1.0)
        assert dist.mean() == pytest.approx(2.0 * 0.55 - 1.0)
        assert dist.support == (pytest.approx(-0.8), pytest.approx(1.0))

    def test_rescale_zero_slope_rejected(self):
        with pytest.raises(DistributionError):
            ValueDistribution.case_study().rescale(0.0, 0.0)


@given(
    values=st.lists(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        min_size=1,
        max_size=30,
        unique=True,
    ),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_property_empirical_distribution_roundtrip(values, seed):
    """from_data(bins=None) reproduces exactly the empirical frequencies."""
    rng = np.random.default_rng(seed)
    column = rng.choice(np.asarray(values), size=200)
    dist = ValueDistribution.from_data(column, bins=None)
    assert dist.probabilities.sum() == pytest.approx(1.0)
    assert dist.mean() == pytest.approx(column.mean(), abs=1e-9)
