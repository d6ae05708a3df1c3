"""Tests for the GRR / OUE / OLH frequency oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DimensionError, DomainError
from repro.freq_oracles import (
    GeneralizedRandomizedResponse,
    OlhReports,
    OptimizedLocalHashing,
    OptimizedUnaryEncoding,
    available_oracles,
    get_oracle,
)
from repro.hdr4me import Recalibrator
from repro.session import CategoricalAttribute, LDPServer, Schema

ORACLE_NAMES = ("grr", "oue", "olh")


def _roundtrip(name, epsilon, labels, v, rng):
    oracle = get_oracle(name, epsilon, v)
    reports = oracle.privatize(labels, rng)
    return oracle, oracle.estimate(reports)


class TestRegistry:
    def test_names(self):
        assert available_oracles() == ["grr", "olh", "oue"]

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_oracle("rappor", 1.0, 4)

    def test_validation(self):
        with pytest.raises(DimensionError):
            get_oracle("grr", 1.0, 1)


class TestGRR:
    def test_probabilities_sum(self):
        oracle = GeneralizedRandomizedResponse(1.0, 8)
        total = oracle.p_true + (oracle.n_categories - 1) * oracle.p_other
        assert total == pytest.approx(1.0)

    def test_ldp_ratio_exact(self):
        oracle = GeneralizedRandomizedResponse(1.3, 10)
        assert oracle.p_true / oracle.p_other == pytest.approx(np.exp(1.3))

    def test_keep_rate(self, rng):
        oracle = GeneralizedRandomizedResponse(2.0, 4)
        labels = np.zeros(100_000, dtype=int)
        reports = oracle.privatize(labels, rng)
        assert np.mean(reports == 0) == pytest.approx(oracle.p_true, abs=0.01)

    def test_lies_are_uniform_over_others(self, rng):
        oracle = GeneralizedRandomizedResponse(0.5, 5)
        labels = np.zeros(200_000, dtype=int)
        reports = oracle.privatize(labels, rng)
        lies = reports[reports != 0]
        counts = np.bincount(lies, minlength=5)[1:]
        assert np.all(np.abs(counts / lies.size - 0.25) < 0.01)

    def test_label_validation(self, rng):
        oracle = GeneralizedRandomizedResponse(1.0, 3)
        with pytest.raises(DomainError):
            oracle.privatize(np.array([3]), rng)
        with pytest.raises(DimensionError):
            oracle.privatize(np.empty(0, dtype=int), rng)


class TestOUE:
    def test_report_matrix_shape(self, rng):
        oracle = OptimizedUnaryEncoding(1.0, 6)
        reports = oracle.privatize(rng.integers(0, 6, 50), rng)
        assert reports.shape == (50, 6)
        assert set(np.unique(reports)) <= {0.0, 1.0}

    def test_bit_probabilities(self, rng):
        oracle = OptimizedUnaryEncoding(1.0, 4)
        labels = np.zeros(100_000, dtype=int)
        reports = oracle.privatize(labels, rng)
        assert reports[:, 0].mean() == pytest.approx(0.5, abs=0.01)
        assert reports[:, 1].mean() == pytest.approx(oracle.p_flip, abs=0.01)

    def test_estimate_shape_validated(self):
        oracle = OptimizedUnaryEncoding(1.0, 4)
        with pytest.raises(DimensionError):
            oracle.estimate(np.zeros((10, 3)))


class TestOLH:
    def test_bucket_count(self):
        oracle = OptimizedLocalHashing(1.0, 100)
        assert oracle.n_buckets == int(np.floor(np.e)) + 1

    def test_reports_in_bucket_range(self, rng):
        oracle = OptimizedLocalHashing(1.0, 20)
        reports = oracle.privatize(rng.integers(0, 20, 500), rng)
        assert reports.buckets.min() >= 0
        assert reports.buckets.max() < oracle.n_buckets

    def test_estimate_requires_olh_reports(self):
        oracle = OptimizedLocalHashing(1.0, 5)
        with pytest.raises(DimensionError):
            oracle.estimate(np.zeros(5))

    def test_chunked_estimation_invariant(self, rng):
        oracle = OptimizedLocalHashing(1.0, 12)
        labels = rng.integers(0, 12, 3000)
        reports = oracle.privatize(labels, rng)
        assert np.array_equal(
            oracle.support_counts(reports, chunk=128),
            oracle.support_counts(reports, chunk=100_000),
        )

    def test_support_counts_match_per_user_reference(self, rng):
        """The broadcast grid must reproduce the definitional counts
        ``Σ_i 1[H(seed_i, j) = bucket_i]`` exactly (int64, not approx)."""
        from repro.freq_oracles.olh import _hash_buckets

        oracle = OptimizedLocalHashing(1.0, 9)
        reports = oracle.privatize(rng.integers(0, 9, 700), rng)
        expected = np.zeros(9, dtype=np.int64)
        for i in range(reports.buckets.size):
            for j in range(9):
                hashed = _hash_buckets(
                    reports.seeds[i : i + 1],
                    np.array([j], dtype=np.int64),
                    oracle.n_buckets,
                )
                expected[j] += int(hashed[0] == reports.buckets[i])
        counts = oracle.support_counts(reports, chunk=256)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)

    def test_support_counts_allocation_shape(self, rng, monkeypatch):
        """Regression: counting must broadcast, never materialize the
        flat ``(chunk * v,)`` repeat/tile temporaries it used to build."""
        oracle = OptimizedLocalHashing(1.0, 50)
        labels = rng.integers(0, 50, 2000)
        reports = oracle.privatize(labels, rng)
        baseline = oracle.support_counts(reports)

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("support_counts materialized a flat copy")

        import repro.freq_oracles.olh as olh_module

        monkeypatch.setattr(olh_module.np, "repeat", forbidden)
        monkeypatch.setattr(olh_module.np, "tile", forbidden)
        assert np.array_equal(oracle.support_counts(reports), baseline)


class TestAccuracy:
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_unbiased_recovery(self, name, rng):
        v = 8
        labels = rng.choice(v, size=60_000, p=np.linspace(2, 1, v) / np.sum(
            np.linspace(2, 1, v)))
        truth = np.bincount(labels, minlength=v) / labels.size
        _, estimate = _roundtrip(name, 2.0, labels, v, rng)
        np.testing.assert_allclose(estimate, truth, atol=0.03)
        assert estimate.sum() == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_variance_formula_matches_monte_carlo(self, name, rng):
        v, eps, n, repeats = 6, 1.0, 4_000, 60
        oracle = get_oracle(name, eps, v)
        labels = rng.choice(v, size=n, p=[0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        estimates = np.array([
            get_oracle(name, eps, v).estimate(
                get_oracle(name, eps, v).privatize(labels, rng)
            )[0]
            for _ in range(repeats)
        ])
        predicted = oracle.estimation_variance(0.5, n)
        assert estimates.var(ddof=1) == pytest.approx(predicted, rel=0.5)

    def test_oue_beats_grr_for_large_domains(self):
        # The classic crossover: GRR variance grows with v, OUE's doesn't.
        eps, n, v = 1.0, 10_000, 64
        grr = GeneralizedRandomizedResponse(eps, v)
        oue = OptimizedUnaryEncoding(eps, v)
        assert oue.estimation_variance(0.0, n) < grr.estimation_variance(0.0, n)

    def test_grr_beats_oue_for_tiny_domains(self):
        eps, n, v = 2.0, 10_000, 2
        grr = GeneralizedRandomizedResponse(eps, v)
        oue = OptimizedUnaryEncoding(eps, v)
        assert grr.estimation_variance(0.0, n) < oue.estimation_variance(0.0, n)

    def test_olh_variance_close_to_oue(self):
        eps, n, v = 1.0, 10_000, 128
        olh = OptimizedLocalHashing(eps, v)
        oue = OptimizedUnaryEncoding(eps, v)
        ratio = olh.estimation_variance(0.0, n) / oue.estimation_variance(0.0, n)
        assert 0.5 < ratio < 2.0


class TestHdr4meComposition:
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_deviation_model_dimensions(self, name):
        oracle = get_oracle(name, 1.0, 10)
        model = oracle.deviation_model(users=5_000)
        assert model.ndim == 10
        assert np.all(model.deltas == 0.0)

    def test_model_frequency_validation(self):
        oracle = get_oracle("grr", 1.0, 4)
        with pytest.raises(DimensionError):
            oracle.deviation_model(users=100, frequencies=np.zeros(3))
        with pytest.raises(DimensionError):
            oracle.deviation_model(users=0)

    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_recalibrated_estimate(self, name, rng):
        v = 16
        labels = rng.choice(v, size=30_000)
        oracle = get_oracle(name, 1.0, v)
        reports = oracle.privatize(labels, rng)
        raw = oracle.estimate(reports)
        result = Recalibrator(norm="l2").recalibrate(
            raw, oracle.deviation_model(labels.size, frequencies=raw)
        )
        truth = np.bincount(labels, minlength=v) / labels.size
        raw_mse = np.mean((raw - truth) ** 2)
        enhanced_mse = np.mean((result.theta_star - truth) ** 2)
        # A single categorical attribute is below the Lemma 4/5 thresholds,
        # so L2 is not expected to *help* here — only to stay sane (its
        # shrinkage bias is bounded by the envelope-to-frequency ratio).
        assert enhanced_mse < 10 * raw_mse + 1e-6


@given(
    eps=st.floats(min_value=0.2, max_value=5.0),
    v=st.integers(min_value=2, max_value=64),
)
@settings(max_examples=40, deadline=None)
def test_property_grr_probabilities_valid(eps, v):
    oracle = GeneralizedRandomizedResponse(eps, v)
    assert 0.0 < oracle.p_other < oracle.p_true < 1.0
    assert oracle.p_true + (v - 1) * oracle.p_other == pytest.approx(1.0)


@given(
    eps=st.floats(min_value=0.2, max_value=5.0),
    v=st.integers(min_value=2, max_value=64),
    n=st.integers(min_value=10, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_property_variances_positive(eps, v, n):
    for name in ORACLE_NAMES:
        oracle = get_oracle(name, eps, v)
        assert oracle.estimation_variance(0.3, n) > 0.0


def _no_reports(oracle):
    if isinstance(oracle, GeneralizedRandomizedResponse):
        return np.empty(0, dtype=np.int64)
    if isinstance(oracle, OptimizedUnaryEncoding):
        return np.empty((0, oracle.n_categories))
    return OlhReports(
        seeds=np.empty((0, 2), dtype=np.int64), buckets=np.empty(0, dtype=np.int64)
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_zero_reports_raise_dimension_error(name):
    """No reports is a typed error, never a NaN estimate, a numpy
    warning or a raw ZeroDivisionError."""
    oracle = get_oracle(name, 1.0, 5)
    with pytest.raises(DimensionError):
        oracle.estimate(_no_reports(oracle))
    with pytest.raises(DimensionError):
        oracle.frequencies(np.zeros(5, dtype=np.int64), 0)
    with pytest.raises(DimensionError):
        oracle.estimation_variance(0.3, 0)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_estimate_matches_session_collector_bit_for_bit(name, rng):
    """The oracle and its session collector share one estimator: folding
    the same reports in frames gives the one-shot estimate's exact bits."""
    v = 7
    schema = Schema([CategoricalAttribute("c", n_categories=v)])
    collector = LDPServer(schema, 1.5, protocols=name).collectors["c"]
    oracle = collector.oracle
    frames = [oracle.privatize(rng.integers(0, v, size), rng) for size in (900, 1, 611)]
    state = collector.new_state()
    for frame in frames:
        collector.fold(state, collector.check_payload(frame))
    one_shot = oracle.estimate(collector.concat_payloads(frames))
    assert [x.hex() for x in collector.estimate(state)] == [
        x.hex() for x in one_shot
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ORACLE_NAMES)
@pytest.mark.parametrize(
    "labels",
    [[0.5, 1.7, 2.9], [2.0, 0.5], [0.0, np.nan], [np.nan]],
    ids=["fractions", "one-fraction", "nan", "all-nan"],
)
def test_labels_that_are_not_integers_are_refused(name, labels, rng):
    """Fractional and NaN labels are a DomainError, never truncated into
    counts, cast with a numpy warning or a raw IndexError."""
    oracle = get_oracle(name, 1.0, 4)
    with pytest.raises(DomainError):
        oracle.privatize(np.array(labels), rng)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_integral_float_labels_privatize_like_int_labels(name):
    """Schema-validated label columns are float64: ``2.0`` is label 2."""
    oracle = get_oracle(name, 1.0, 4)
    labels = np.array([0, 2, 3, 1, 2, 0])
    from_ints = oracle.privatize(labels, np.random.default_rng(3))
    from_floats = oracle.privatize(labels.astype(np.float64), np.random.default_rng(3))
    if isinstance(from_ints, OlhReports):
        from_ints, from_floats = (
            np.concatenate([r.seeds.ravel(), r.buckets]) for r in (from_ints, from_floats)
        )
    assert np.array_equal(from_ints, from_floats)


def test_grr_tally_refuses_fractional_reports():
    oracle = GeneralizedRandomizedResponse(1.0, 4)
    with pytest.raises(DomainError):
        oracle.estimate(np.array([0.5, 1.7, 2.9]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fill", [0.5, np.nan, 2.0, -1.0, np.inf])
def test_oue_tally_refuses_entries_that_are_not_bits(fill):
    oracle = OptimizedUnaryEncoding(1.0, 4)
    with pytest.raises(DomainError):
        oracle.estimate(np.full((3, 4), fill))
    one_bad = np.zeros((3, 4))
    one_bad[1, 2] = fill
    with pytest.raises(DomainError):
        oracle.estimate(one_bad)


def _olh_reports(seeds, buckets):
    return OlhReports(seeds=np.asarray(seeds), buckets=np.asarray(buckets))


#: Malformed reports per oracle (v = 4, ε = 1, so OLH has g = 3 buckets)
#: and the ReproError subclass both the oracle and its collector raise.
MALFORMED_REPORTS = [
    ("grr", "fractions", np.array([0.5, 1.7]), DomainError),
    ("grr", "integral-floats", np.array([0.0, 2.0]), DomainError),
    ("grr", "empty-floats", np.array([]), DomainError),
    ("grr", "out-of-range", np.array([0, 4]), DomainError),
    ("grr", "negative", np.array([-1, 2]), DomainError),
    ("grr", "booleans", np.array([True, False]), DomainError),
    ("grr", "matrix", np.zeros((2, 2), dtype=np.int64), DimensionError),
    ("oue", "halves", np.full((3, 4), 0.5), DomainError),
    ("oue", "nan", np.array([[0.0, np.nan, 1.0, 0.0]]), DomainError),
    ("oue", "narrow", np.zeros((3, 3)), DimensionError),
    ("oue", "vector", np.zeros(4), DimensionError),
    (
        "olh",
        "buckets-out-of-range",
        _olh_reports(np.ones((4, 2), dtype=np.int64), [99, -5, 1000, 7]),
        DomainError,
    ),
    (
        "olh",
        "shape-mismatch",
        _olh_reports(np.ones((2, 2), dtype=np.int64), [0, 1, 2, 0]),
        DimensionError,
    ),
    ("olh", "float-seeds", _olh_reports(np.ones((4, 2)), [0, 1, 2, 0]), DimensionError),
    (
        "olh",
        "float-buckets",
        _olh_reports(np.ones((2, 2), dtype=np.int64), [0.0, 1.0]),
        DimensionError,
    ),
    ("olh", "not-olh-reports", np.zeros(5, dtype=np.int64), DimensionError),
]


EMPTY_REPORTS = {
    "grr": np.zeros(0, dtype=np.int64),
    "oue": np.zeros((0, 4)),
    "olh": _olh_reports(np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)),
}


def _oracle_collector(name):
    schema = Schema([CategoricalAttribute("c", n_categories=4)])
    return LDPServer(schema, 1.0, protocols=name).collectors["c"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, reports, error",
    [case[0:1] + case[2:] for case in MALFORMED_REPORTS],
    ids=["%s-%s" % case[:2] for case in MALFORMED_REPORTS],
)
def test_oracle_and_collector_share_one_report_check(name, reports, error):
    """The oracle's tally and the session collector refuse the same reports
    with the same typed error: the oracle owns its report format."""
    collector = _oracle_collector(name)
    with pytest.raises(error) as from_collector:
        collector.check_payload(reports)
    with pytest.raises(error) as from_oracle:
        collector.oracle.tally(reports)
    assert from_collector.type is from_oracle.type
    assert "'c'" in str(from_collector.value)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracle_and_collector_count_the_same_reports(name, rng):
    """Well-formed reports pass both checks and fold into the oracle's
    own counts; empty reports pass, and only the estimate refuses them."""
    collector = _oracle_collector(name)
    oracle = collector.oracle
    reports = oracle.privatize(rng.integers(0, 4, 200), rng)
    state = collector.new_state()
    collector.accumulate(state, reports)
    counts, users = oracle.tally(reports)
    assert np.array_equal(state.counts, counts)
    assert state.users == users == collector.payload_rows(reports) == 200
    assert np.array_equal(collector.estimate(state), oracle.estimate(reports))
    doubled = collector.concat_payloads([reports, reports])
    assert collector.payload_rows(doubled) == 400
    empty = collector.check_payload(EMPTY_REPORTS[name])
    assert collector.payload_rows(empty) == 0
    assert oracle.tally(empty)[1] == 0
    with pytest.raises(DimensionError):
        oracle.estimate(empty)
