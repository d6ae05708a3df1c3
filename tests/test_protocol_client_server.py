"""Tests for the frozen reference Client and streaming Aggregator oracle."""

from __future__ import annotations

import numpy as np
import pytest

from reference_protocol import Aggregator, Client, Report
from repro.exceptions import AggregationError, DimensionError
from repro.mechanisms import LaplaceMechanism, PiecewiseMechanism, get_mechanism
from repro.protocol import BudgetPlan


@pytest.fixture()
def plan():
    return BudgetPlan(epsilon=1.0, dimensions=8, sampled_dimensions=3)


class TestReport:
    def test_alignment_enforced(self):
        with pytest.raises(DimensionError):
            Report(dimensions=np.array([0, 1]), values=np.array([0.5]))

    def test_arrays_normalized(self):
        report = Report(dimensions=[2, 0], values=[0.1, 0.2])
        assert report.dimensions.dtype == np.int64
        assert report.values.dtype == np.float64


class TestClient:
    def test_report_shape(self, plan, rng):
        client = Client(LaplaceMechanism(), plan)
        report = client.report(rng.uniform(-1, 1, 8), rng)
        assert report.dimensions.size == 3
        assert np.unique(report.dimensions).size == 3
        assert np.all((0 <= report.dimensions) & (report.dimensions < 8))

    def test_wrong_tuple_size_rejected(self, plan, rng):
        client = Client(LaplaceMechanism(), plan)
        with pytest.raises(DimensionError):
            client.report(np.zeros(5), rng)

    def test_sampling_is_uniform(self, plan, rng):
        client = Client(LaplaceMechanism(), plan)
        counts = np.zeros(8)
        for _ in range(2000):
            counts[client.report(np.zeros(8), rng).dimensions] += 1
        expected = 2000 * 3 / 8
        assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))

    def test_values_perturbed_with_per_dim_budget(self, plan, rng):
        # Statistical check: the spread of reported values matches the
        # eps/m Laplace scale, not the collective-eps scale.
        mech = LaplaceMechanism()
        client = Client(mech, plan)
        values = np.concatenate(
            [client.report(np.zeros(8), rng).values for _ in range(3000)]
        )
        expected_std = np.sqrt(mech.noise_variance(plan.epsilon_per_dimension))
        assert values.std() == pytest.approx(expected_std, rel=0.1)


class TestAggregator:
    def test_streaming_matches_batch(self, plan, rng):
        mech = LaplaceMechanism()
        stream = Aggregator(mech, plan)
        batch = Aggregator(mech, plan)
        block = rng.normal(size=(50, 8))
        for row in block:
            stream.add_report(Report(dimensions=np.arange(8), values=row))
        batch.add_matrix(block)
        np.testing.assert_allclose(
            stream.aggregate().theta_hat, batch.aggregate().theta_hat
        )

    def test_masked_ingestion(self, plan, rng):
        agg = Aggregator(LaplaceMechanism(), plan)
        block = rng.normal(size=(100, 8))
        mask = rng.random((100, 8)) < 0.5
        mask[0, :] = True  # ensure no empty dimension
        agg.add_matrix(block, mask)
        result = agg.aggregate()
        j = 3
        expected = block[mask[:, j], j].mean()
        assert result.theta_hat[j] == pytest.approx(expected)
        assert result.report_counts[j] == mask[:, j].sum()

    def test_empty_dimension_raises(self, plan):
        agg = Aggregator(LaplaceMechanism(), plan)
        agg.add_report(Report(dimensions=np.array([0]), values=np.array([0.5])))
        with pytest.raises(AggregationError):
            agg.aggregate()

    def test_out_of_range_dimension_rejected(self, plan):
        agg = Aggregator(LaplaceMechanism(), plan)
        with pytest.raises(DimensionError):
            agg.add_report(Report(dimensions=np.array([8]), values=np.array([0.0])))

    def test_mask_shape_mismatch(self, plan, rng):
        agg = Aggregator(LaplaceMechanism(), plan)
        with pytest.raises(DimensionError):
            agg.add_matrix(rng.normal(size=(10, 8)), mask=np.ones((9, 8), bool))

    def test_wrong_width_rejected(self, plan, rng):
        agg = Aggregator(LaplaceMechanism(), plan)
        with pytest.raises(DimensionError):
            agg.add_matrix(rng.normal(size=(10, 7)))

    def test_reset(self, plan, rng):
        agg = Aggregator(LaplaceMechanism(), plan)
        agg.add_matrix(rng.normal(size=(5, 8)))
        agg.reset()
        assert np.all(agg.report_counts == 0)

    def test_unbiased_mechanism_no_calibration_shift(self, plan):
        agg = Aggregator(PiecewiseMechanism(), plan)
        block = np.full((10, 8), 0.25)
        agg.add_matrix(block)
        np.testing.assert_allclose(agg.aggregate().theta_hat, 0.25)

    def test_min_reports_property(self, plan, rng):
        agg = Aggregator(LaplaceMechanism(), plan)
        agg.add_matrix(rng.normal(size=(7, 8)))
        result = agg.aggregate()
        assert result.min_reports == 7
        assert result.dimensions == 8


class TestClientToServerRoundtrip:
    def test_end_to_end_unbiased(self, rng):
        # Many clients -> aggregator recovers the true mean (law of large
        # numbers check of the whole reference path).
        plan = BudgetPlan(epsilon=4.0, dimensions=4, sampled_dimensions=2)
        mech = get_mechanism("piecewise")
        client = Client(mech, plan)
        agg = Aggregator(mech, plan)
        truth = np.array([-0.5, 0.0, 0.25, 0.75])
        for _ in range(30_000):
            agg.add_report(client.report(truth, rng))
        result = agg.aggregate()
        np.testing.assert_allclose(result.theta_hat, truth, atol=0.05)
        # r_j ~ n m / d.
        assert result.report_counts.mean() == pytest.approx(15_000, rel=0.05)
