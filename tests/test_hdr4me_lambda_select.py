"""Tests for framework-driven λ* selection (Lemmas 4 and 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CalibrationError
from repro.framework import DeviationModel, MultivariateDeviationModel
from repro.hdr4me import (
    deviation_envelopes,
    improvement_guarantee,
    l1_lambda,
    l2_lambda,
)


def _model(deltas, sigmas):
    return MultivariateDeviationModel(
        [
            DeviationModel(delta=d, sigma=s, reports=100, epsilon=0.01)
            for d, s in zip(deltas, sigmas)
        ]
    )


class TestEnvelopes:
    def test_envelope_formula(self):
        model = _model([0.0, -0.5], [1.0, 2.0])
        env = deviation_envelopes(model, confidence=0.9973)
        assert env[0] == pytest.approx(3.0 * 1.0, rel=1e-3)
        assert env[1] == pytest.approx(0.5 + 3.0 * 2.0, rel=1e-3)

    def test_accepts_model_or_sequence(self):
        model = _model([0.0], [1.0])
        np.testing.assert_allclose(
            deviation_envelopes(model), deviation_envelopes(model.dimensions)
        )

    def test_empty_sequence_gives_empty_array(self):
        assert deviation_envelopes([]).size == 0


class TestL1Lambda:
    def test_equals_envelope(self):
        model = _model([0.1, 0.0], [0.5, 2.0])
        np.testing.assert_allclose(l1_lambda(model), deviation_envelopes(model))

    def test_larger_noise_larger_lambda(self):
        model = _model([0.0, 0.0], [0.5, 5.0])
        lam = l1_lambda(model)
        assert lam[1] > lam[0]


class TestL2Lambda:
    def test_plugin_reference_from_theta_hat(self):
        model = _model([0.0, 0.0], [1.0, 1.0])
        theta_hat = np.array([0.9, 0.05])
        lam = l2_lambda(model, theta_hat=theta_hat, floor=0.05)
        env = deviation_envelopes(model)
        assert lam[0] == pytest.approx(env[0] / (2 * 0.9))
        # |0.05| at the floor.
        assert lam[1] == pytest.approx(env[1] / (2 * 0.05))

    def test_explicit_reference_mean(self):
        model = _model([0.0], [1.0])
        lam = l2_lambda(model, reference_mean=np.array([0.5]))
        assert lam[0] == pytest.approx(deviation_envelopes(model)[0] / 1.0)

    def test_reference_clipped_to_domain(self):
        model = _model([0.0], [1.0])
        # theta_hat far outside the domain is clipped to 1 before use.
        lam_big = l2_lambda(model, theta_hat=np.array([50.0]))
        lam_one = l2_lambda(model, theta_hat=np.array([1.0]))
        assert lam_big[0] == pytest.approx(lam_one[0])

    def test_no_reference_uses_floor(self):
        model = _model([0.0], [1.0])
        lam = l2_lambda(model, floor=0.1)
        assert lam[0] == pytest.approx(deviation_envelopes(model)[0] / 0.2)

    def test_invalid_floor(self):
        model = _model([0.0], [1.0])
        with pytest.raises(CalibrationError):
            l2_lambda(model, floor=0.0)

    def test_reference_size_mismatch(self):
        model = _model([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(CalibrationError):
            l2_lambda(model, reference_mean=np.array([0.5]))


class TestImprovementGuarantee:
    def test_l1_threshold_is_one(self):
        result = improvement_guarantee(_model([0.0], [10.0]), "l1")
        assert result.threshold == 1.0

    def test_l2_threshold_is_two(self):
        result = improvement_guarantee(_model([0.0], [10.0]), "l2")
        assert result.threshold == 2.0

    def test_high_noise_gives_high_probability(self):
        # sigma = 100: essentially every deviation exceeds 1.
        result = improvement_guarantee(_model([0.0, 0.0], [100.0, 100.0]), "l1")
        assert result.paper_bound > 0.98
        assert result.all_dims_probability > 0.97

    def test_low_noise_gives_low_probability(self):
        result = improvement_guarantee(_model([0.0], [0.01]), "l1")
        assert result.paper_bound < 1e-6

    def test_bound_ordering(self):
        model = _model([0.0, 0.0], [1.5, 1.5])
        result = improvement_guarantee(model, "l1")
        assert result.all_dims_probability <= result.paper_bound

    def test_invalid_norm(self):
        with pytest.raises(CalibrationError):
            improvement_guarantee(_model([0.0], [1.0]), "elastic")
