"""Tests for the Section V-C frequency-estimation extension.

The estimator is the session's histogram-encoding collector: a
categorical attribute served by a mechanism name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import AggregationError, DimensionError, DomainError
from repro.freq_oracles import get_oracle
from repro.hdr4me import (
    Recalibrator,
    one_hot_encode,
    postprocess_frequencies,
    true_frequencies,
)
from repro.hdr4me.frequency import adapt_to_unit_domain
from repro.mechanisms import PiecewiseMechanism, SquareWaveMechanism
from repro.session import CategoricalAttribute, LDPClient, LDPServer, Schema


def _collect(protocol, epsilon, labels, n_categories, rng):
    """One round of a single categorical attribute; return the server."""
    schema = Schema([CategoricalAttribute("value", n_categories=n_categories)])
    client = LDPClient(schema, epsilon, protocols=protocol)
    server = LDPServer(schema, epsilon, protocols=protocol)
    server.ingest(client.report_batch(np.asarray(labels)[:, None], rng))
    return server


class TestEncoding:
    def test_one_hot_shape_and_rows(self):
        encoded = one_hot_encode(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        )

    def test_row_sums_are_one(self, rng):
        labels = rng.integers(0, 5, size=100)
        encoded = one_hot_encode(labels, 5)
        np.testing.assert_array_equal(encoded.sum(axis=1), np.ones(100))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            one_hot_encode(np.array([0, 3]), 3)

    def test_rejects_negative_labels(self):
        with pytest.raises(DomainError):
            one_hot_encode(np.array([-1]), 3)

    def test_rejects_matrix_input(self):
        with pytest.raises(DimensionError):
            one_hot_encode(np.zeros((2, 2), dtype=int), 3)

    def test_rejects_single_category(self):
        with pytest.raises(DimensionError):
            one_hot_encode(np.array([0]), 1)

    def test_true_frequencies(self):
        freq = true_frequencies(np.array([0, 0, 1, 2]), 4)
        np.testing.assert_allclose(freq, [0.5, 0.25, 0.25, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "helper", [one_hot_encode, true_frequencies], ids=lambda f: f.__name__
)
@pytest.mark.parametrize(
    "labels",
    [[0.5, 1.7], [0.0, np.nan], [0, 7], [-1, 0]],
    ids=["fractions", "nan", "above-range", "negative"],
)
def test_label_helpers_refuse_what_the_oracles_refuse(helper, labels):
    """One label rule: a DomainError, never a raw IndexError or TypeError
    and never extra frequencies for labels past ``v``."""
    with pytest.raises(DomainError):
        helper(np.array(labels), 4)
    with pytest.raises(DomainError):
        get_oracle("grr", 1.0, 4).privatize(np.array(labels), 0)


def test_label_helpers_accept_integral_floats():
    labels = np.array([0, 2, 3, 2])
    floats = labels.astype(np.float64)
    np.testing.assert_array_equal(one_hot_encode(floats, 4), one_hot_encode(labels, 4))
    np.testing.assert_array_equal(
        true_frequencies(floats, 4), [0.25, 0.0, 0.5, 0.25]
    )


class TestPostprocess:
    def test_clips_and_normalizes(self):
        out = postprocess_frequencies(np.array([-0.2, 0.5, 0.9]))
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(1.0)

    def test_no_normalize(self):
        out = postprocess_frequencies(np.array([0.2, 0.3]), normalize=False)
        np.testing.assert_allclose(out, [0.2, 0.3])

    def test_all_zero_stays_zero(self):
        out = postprocess_frequencies(np.array([-1.0, -2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0])


class TestAdaptation:
    def test_unit_domain_mechanism_unchanged(self):
        mech = SquareWaveMechanism()
        assert adapt_to_unit_domain(mech) is mech

    def test_standard_domain_mechanism_wrapped(self):
        wrapped = adapt_to_unit_domain(PiecewiseMechanism())
        assert wrapped.input_domain == (0.0, 1.0)


class TestEstimator:
    @pytest.mark.parametrize("name", ["laplace", "piecewise", "square_wave_unit"])
    def test_recovers_frequencies(self, name, rng):
        labels = rng.choice(4, size=40_000, p=[0.5, 0.3, 0.15, 0.05])
        estimate = _collect(name, 4.0, labels, 4, rng).estimate()
        truth = true_frequencies(labels, 4)
        np.testing.assert_allclose(
            postprocess_frequencies(estimate["value"].value), truth, atol=0.05
        )

    def test_epsilon_per_entry_is_half_per_dim(self):
        schema = Schema(
            [CategoricalAttribute("c%d" % j, n_categories=3) for j in range(6)]
        )
        client = LDPClient(
            schema, epsilon=2.0, sampled_attributes=4, protocols="laplace"
        )
        for collector in client.collectors.values():
            assert collector.epsilon_per_entry == pytest.approx(0.25)

    def test_with_recalibration(self, rng):
        labels = rng.choice(8, size=20_000)
        estimate = _collect("piecewise", 1.0, labels, 8, rng).estimate(
            postprocess=Recalibrator(norm="l2")
        )
        attr = estimate["value"]
        assert attr.enhanced is not None
        # L2 shrinks, never amplifies.
        assert np.all(np.abs(attr.enhanced) <= np.abs(attr.raw) + 1e-12)

    def test_without_recalibration_enhanced_is_none(self, rng):
        server = _collect("laplace", 1.0, rng.choice(3, size=1000), 3, rng)
        attr = server.estimate()["value"]
        assert attr.enhanced is None
        assert attr.value is attr.raw
        assert attr.reports == 1000

    def test_empty_input_rejected(self, rng):
        server = _collect("laplace", 1.0, np.empty(0, dtype=int), 3, rng)
        with pytest.raises(AggregationError):
            server.estimate()
