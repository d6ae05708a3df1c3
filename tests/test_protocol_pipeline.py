"""Tests for the vectorized end-to-end mean pipeline and populations.

Categorical (Section V-C) collection runs on the session API directly:
``TestFrequencyPipeline`` drives ``LDPClient``/``LDPServer`` over a schema
of ``CategoricalAttribute`` columns with a histogram-encoding mechanism.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import mse, true_mean
from hypothesis import given, settings, strategies as st

from reference_protocol import Aggregator, Client
from repro.exceptions import DimensionError, DistributionError, DomainError
from repro.framework import ValueDistribution
from repro.hdr4me import Recalibrator
from repro.hdr4me.frequency import postprocess_frequencies
from repro.mechanisms import LaplaceMechanism, PiecewiseMechanism
from repro.protocol import BudgetPlan, MeanEstimationPipeline, build_populations
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    Schema,
    sample_attribute_mask,
)


class TestMeanPipeline:
    def test_full_reporting_counts(self, rng):
        data = rng.uniform(-1, 1, size=(500, 6))
        pipeline = MeanEstimationPipeline(LaplaceMechanism(), 1.0, dimensions=6)
        result = pipeline.run(data, rng)
        assert np.all(result.aggregation.report_counts == 500)
        assert result.users == 500

    def test_sampled_reporting_counts(self, rng):
        data = rng.uniform(-1, 1, size=(4000, 10))
        pipeline = MeanEstimationPipeline(
            LaplaceMechanism(), 1.0, dimensions=10, sampled_dimensions=3
        )
        result = pipeline.run(data, rng)
        counts = result.aggregation.report_counts
        assert counts.sum() == 4000 * 3
        expected = 4000 * 3 / 10
        assert np.all(np.abs(counts - expected) < 6 * np.sqrt(expected))

    def test_recovers_mean_large_budget(self, rng):
        data = rng.uniform(-1, 1, size=(20_000, 5))
        pipeline = MeanEstimationPipeline(PiecewiseMechanism(), 20.0, dimensions=5)
        result = pipeline.run(data, rng)
        np.testing.assert_allclose(
            result.theta_hat, true_mean(data), atol=0.05
        )

    def test_chunking_invariance(self):
        data = np.random.default_rng(3).uniform(-1, 1, size=(1000, 4))
        small = MeanEstimationPipeline(
            LaplaceMechanism(), 1.0, dimensions=4, chunk_size=64
        ).run(data, rng=7)
        big = MeanEstimationPipeline(
            LaplaceMechanism(), 1.0, dimensions=4, chunk_size=100_000
        ).run(data, rng=7)
        # Different chunking consumes randomness differently, so compare
        # statistically rather than exactly.
        assert mse(small.theta_hat, big.theta_hat) < 1.0

    def test_shape_validation(self, rng):
        pipeline = MeanEstimationPipeline(LaplaceMechanism(), 1.0, dimensions=4)
        with pytest.raises(DimensionError):
            pipeline.run(rng.uniform(-1, 1, size=(10, 5)), rng)

    @pytest.mark.parametrize("bad", [1.5, -2.0, np.nan, np.inf])
    def test_run_rejects_data_outside_the_domain(self, rng, bad):
        # The domain check lives in the client's schema validation, once
        # per chunk; run() itself only checks the shape.
        data = rng.uniform(-1, 1, size=(50, 4))
        data[37, 2] = bad
        pipeline = MeanEstimationPipeline(
            LaplaceMechanism(), 1.0, dimensions=4, chunk_size=16
        )
        with pytest.raises(DomainError, match="attribute 'x2'"):
            pipeline.run(data, rng)

    def test_run_accepts_round_off_outside_the_domain(self, rng):
        data = rng.uniform(-1, 1, size=(20, 3))
        data[0, 0] = 1.0 + 1e-10
        pipeline = MeanEstimationPipeline(LaplaceMechanism(), 1.0, dimensions=3)
        assert pipeline.run(data, rng).users == 20

    def test_invalid_chunk_size(self):
        with pytest.raises(DimensionError):
            MeanEstimationPipeline(
                LaplaceMechanism(), 1.0, dimensions=4, chunk_size=0
            )

    def test_mask_has_exactly_m_per_row(self, rng):
        mask = sample_attribute_mask(200, 12, 5, rng)
        np.testing.assert_array_equal(mask.sum(axis=1), np.full(200, 5))

    def test_matches_reference_client_distribution(self, rng):
        """The vectorized path agrees with the per-user reference Client."""
        data = np.tile(np.array([-0.4, 0.1, 0.7]), (30_000, 1))
        mech = PiecewiseMechanism()
        pipeline = MeanEstimationPipeline(
            mech, 2.0, dimensions=3, sampled_dimensions=2
        )
        fast = pipeline.run(data, rng)

        plan = BudgetPlan(epsilon=2.0, dimensions=3, sampled_dimensions=2)
        client = Client(mech, plan)
        agg = Aggregator(mech, plan)
        for row in data[:30_000]:
            agg.add_report(client.report(row, rng))
        slow = agg.aggregate()
        np.testing.assert_allclose(fast.theta_hat, slow.theta_hat, atol=0.05)


class TestDeviationModelBridge:
    def test_unbounded_needs_no_population(self, rng):
        pipeline = MeanEstimationPipeline(LaplaceMechanism(), 1.0, dimensions=6)
        model = pipeline.deviation_model(users=1000)
        assert model.ndim == 6

    def test_bounded_from_data(self, rng):
        data = rng.uniform(-1, 1, size=(2000, 4))
        pipeline = MeanEstimationPipeline(PiecewiseMechanism(), 1.0, dimensions=4)
        model = pipeline.deviation_model(users=2000, data=data)
        assert model.ndim == 4
        assert np.all(model.sigmas > 0)

    def test_bounded_from_shared_population(self):
        pipeline = MeanEstimationPipeline(PiecewiseMechanism(), 1.0, dimensions=3)
        model = pipeline.deviation_model(
            users=500, populations=ValueDistribution.point_mass(0.0)
        )
        assert np.allclose(model.sigmas, model.sigmas[0])

    def test_reports_scale_with_m(self):
        full = MeanEstimationPipeline(LaplaceMechanism(), 1.0, dimensions=10)
        sampled = MeanEstimationPipeline(
            LaplaceMechanism(), 1.0, dimensions=10, sampled_dimensions=5
        )
        # Same collective budget: sampling halves reports but doubles the
        # per-dimension budget, so the sigmas differ accordingly.
        model_full = full.deviation_model(users=1000)
        model_sampled = sampled.deviation_model(users=1000)
        assert model_sampled.sigmas[0] != model_full.sigmas[0]

    def test_build_populations_validates(self):
        with pytest.raises(DimensionError):
            build_populations(np.zeros(5))

    def test_build_populations_nan_column_rejected(self):
        data = np.zeros((5, 3))
        data[2, 1] = np.nan
        with pytest.raises(DistributionError, match="NaN or infinite"):
            build_populations(data)

    def test_recalibrated_run_beats_raw(self, rng):
        data = rng.uniform(-1, 1, size=(3000, 50))
        pipeline = MeanEstimationPipeline(LaplaceMechanism(), 0.2, dimensions=50)
        run = pipeline.run(data, rng)
        model = pipeline.deviation_model(users=run.users)
        result = Recalibrator(norm="l1").recalibrate(run.theta_hat, model)
        baseline = pipeline.run(data, rng)
        assert mse(result.theta_star, true_mean(data)) < mse(
            baseline.theta_hat, true_mean(data)
        )


def _frequency_round(mechanism, epsilon, category_counts, labels, rng,
                     sampled_dimensions=None):
    """One categorical round: ``d`` label columns through the session API,
    each histogram-encoded and perturbed with the named mechanism."""
    schema = Schema(
        [
            CategoricalAttribute("q%d" % j, n_categories=v)
            for j, v in enumerate(category_counts)
        ]
    )
    client = LDPClient(
        schema, epsilon, sampled_attributes=sampled_dimensions,
        protocols=mechanism,
    )
    server = LDPServer(
        schema, epsilon, sampled_attributes=sampled_dimensions,
        protocols=mechanism,
    )
    server.ingest(client.report_batch(labels, rng))
    return server.estimate().attributes


class TestFrequencyPipeline:
    def test_multi_dimension_estimates(self, rng):
        labels = rng.integers(0, 4, size=(20_000, 3))
        estimates = _frequency_round("piecewise", 8.0, [4, 4, 4], labels, rng)
        assert len(estimates) == 3
        for j, estimate in enumerate(estimates):
            truth = np.bincount(labels[:, j], minlength=4) / labels.shape[0]
            np.testing.assert_allclose(
                postprocess_frequencies(estimate.value), truth, atol=0.08
            )

    def test_sampled_dimensions_reduce_reports(self, rng):
        labels = rng.integers(0, 3, size=(9000, 3))
        estimates = _frequency_round(
            "laplace", 2.0, [3, 3, 3], labels, rng, sampled_dimensions=1
        )
        for estimate in estimates:
            assert estimate.reports < 9000
            assert estimate.reports == pytest.approx(3000, rel=0.2)

    def test_label_shape_validated(self, rng):
        with pytest.raises(DimensionError):
            _frequency_round("laplace", 1.0, [3, 3], np.zeros((10, 3), dtype=int), rng)

    def test_empty_category_counts_rejected(self, rng):
        with pytest.raises(DimensionError):
            _frequency_round("laplace", 1.0, [], np.zeros((10, 0)), rng)

    def test_no_user_exceeds_m_reports(self, rng):
        """Privacy-accounting regression: exactly m of d dimensions per user.

        The historical per-dimension Bernoulli(m/d) sampling could let a
        user report more than m dimensions while paying only eps/m each,
        overspending the collective budget. With exactly-m sampling the
        total report count is deterministically n*m (Bernoulli sampling
        only hits that in expectation) and no user can exceed m.
        """
        users, m = 4000, 2
        labels = rng.integers(0, 3, size=(users, 5))
        estimates = _frequency_round(
            "laplace", 2.0, [3] * 5, labels, rng, sampled_dimensions=m
        )
        assert sum(e.reports for e in estimates) == users * m
        assert all(e.reports <= users for e in estimates)

    def test_per_user_sampling_mask_never_exceeds_m(self, rng):
        """The sampling primitive itself guarantees the per-user cap."""
        mask = sample_attribute_mask(1000, 7, 3, rng)
        assert mask.sum(axis=1).max() == 3


# ----------------------------------------------------------- populations


def _outcome(build):
    """A result, or the type and message of the error it raised."""
    try:
        return build()
    except (DistributionError, ValueError) as exc:
        return (type(exc), str(exc))


def _per_column(data, bins):
    return [ValueDistribution.from_data(data[:, j], bins) for j in range(data.shape[1])]


def _assert_same(data, bins):
    got = _outcome(lambda: build_populations(data, bins))
    want = _outcome(lambda: _per_column(data, bins))
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for new, old in zip(got, want):
        assert new.values.tobytes() == old.values.tobytes()
        assert new.probabilities.tobytes() == old.probabilities.tobytes()


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _columns(draw):
    rows = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["any", "constant", "few", "tiny"]))
        if kind == "constant":
            column = [draw(_finite)] * rows
        elif kind == "few":
            pool = draw(st.lists(_finite, min_size=1, max_size=3))
            column = [draw(st.sampled_from(pool)) for _ in range(rows)]
        elif kind == "tiny":  # ranges near the denormal and ulp limits
            base = draw(_finite)
            column = [
                base + draw(st.sampled_from([0.0, 5e-324, 1e-300, 1e-12]))
                for _ in range(rows)
            ]
        else:
            column = draw(st.lists(_finite, min_size=rows, max_size=rows))
        columns.append(column)
    return np.array(columns, dtype=np.float64).T


@given(data=_columns(), bins=st.one_of(st.none(), st.integers(1, 70)))
@settings(max_examples=200, deadline=None)
def test_build_populations_matches_from_data_bit_for_bit(data, bins):
    _assert_same(data, bins)


@given(
    data=_columns(),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    where=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    bins=st.one_of(st.none(), st.integers(1, 40)),
)
@settings(max_examples=50, deadline=None)
def test_build_populations_non_finite_raises_like_from_data(data, bad, where, bins):
    data = data.copy()
    data[where[0] % data.shape[0], where[1] % data.shape[1]] = bad
    with pytest.raises(DistributionError, match="NaN or infinite"):
        build_populations(data, bins)
    _assert_same(data, bins)


@pytest.mark.parametrize("bins", [0, -3])
def test_build_populations_rejects_bins_below_one(bins):
    with pytest.raises(DistributionError, match="bins must be >= 1"):
        build_populations(np.zeros((4, 2)), bins)


@pytest.mark.parametrize(
    "data",
    [
        np.full((1, 3), 0.25),  # a single row
        np.array([[1.0, -2.0], [1.0, 3.0], [1.0, 3.0]]),  # a constant column
        np.linspace(-1, 1, 3000).reshape(-1, 3),
    ],
)
@pytest.mark.parametrize("bins", [None, 1, 2, 64])
def test_build_populations_edge_shapes(data, bins):
    _assert_same(data, bins)


def test_build_populations_fig4_shape():
    data = np.random.default_rng(0).uniform(-1, 1, size=(5000, 60))
    _assert_same(data, 32)


def test_build_populations_refuses_non_finite_before_binning():
    # The first column's range is one ulp: binning it into 4096 bins would
    # fail before the NaN in the second column was ever looked at.
    data = [[1.0, np.nan], [np.nextafter(1.0, 2.0), 0.0]]
    with pytest.raises(DistributionError, match="NaN or infinite"):
        build_populations(data, 4096)


def test_from_data_range_too_narrow_for_bins_is_typed():
    with pytest.raises(DistributionError, match="4096 finite-width bins"):
        ValueDistribution.from_data([1.0, np.nextafter(1.0, 2.0)], 4096)
