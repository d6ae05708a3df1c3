"""Tests for the exception hierarchy and its use across the library."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AggregationError,
    CalibrationError,
    DimensionError,
    DistributionError,
    DomainError,
    PrivacyBudgetError,
    ReproError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            AggregationError,
            CalibrationError,
            DimensionError,
            DistributionError,
            DomainError,
            PrivacyBudgetError,
        ],
    )
    def test_subclass_of_base(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_errors_catchable_as_valueerror(self):
        for exc in (PrivacyBudgetError, DomainError, DimensionError,
                    CalibrationError, DistributionError):
            assert issubclass(exc, ValueError)

    def test_aggregation_is_runtime_error(self):
        assert issubclass(AggregationError, RuntimeError)


class TestSingleCatchAll:
    """A caller can guard any library call with one except clause."""

    def test_budget_error_caught_as_repro_error(self):
        from repro.mechanisms import LaplaceMechanism

        with pytest.raises(ReproError):
            LaplaceMechanism().perturb(np.zeros(1), -1.0)

    def test_domain_error_caught_as_repro_error(self):
        from repro.mechanisms import PiecewiseMechanism

        with pytest.raises(ReproError):
            PiecewiseMechanism().perturb(np.array([2.0]), 1.0)

    def test_distribution_error_caught_as_repro_error(self):
        from repro.framework import ValueDistribution

        with pytest.raises(ReproError):
            ValueDistribution(np.array([1.0]), np.array([0.5]))

    def test_calibration_error_caught_as_repro_error(self):
        from repro.hdr4me import Recalibrator

        with pytest.raises(ReproError):
            Recalibrator(norm="l7")

    def test_aggregation_error_caught_as_repro_error(self):
        from repro.session import LDPServer, NumericAttribute, Schema

        schema = Schema([NumericAttribute("a"), NumericAttribute("b")])
        server = LDPServer(schema, 1.0, sampled_attributes=1,
                           protocols="laplace")
        with pytest.raises(ReproError) as caught:
            server.estimate()
        assert isinstance(caught.value, AggregationError)


class TestTypedRaisesAcrossTheLibrary:
    """Converted raise sites keep their messages and their ValueError base.

    These sites used to raise bare ValueError; they now raise classes
    from the repro hierarchy (enforced by the ``typed-errors`` analysis
    rule), and because every one subclasses ValueError, pre-existing
    callers that caught ValueError still work.
    """

    def test_parameter_error_is_value_error(self):
        from repro import ParameterError, StateDeltaError

        assert issubclass(ParameterError, ReproError)
        assert issubclass(ParameterError, ValueError)
        assert issubclass(StateDeltaError, ReproError)
        assert issubclass(StateDeltaError, ValueError)

    def test_spawn_children_rejects_negative_count(self):
        from repro import ParameterError
        from repro.rng import spawn_children

        with pytest.raises(ParameterError, match="non-negative"):
            list(spawn_children(7, -1))
        with pytest.raises(ValueError):  # old contract still holds
            list(spawn_children(7, -1))

    def test_endpoint_parse_raises_parameter_error(self):
        from repro import ParameterError
        from repro.experiments.socket_round import parse_endpoint

        with pytest.raises(ParameterError, match="HOST:PORT"):
            parse_endpoint("no-port-here")
        with pytest.raises(ParameterError, match="PORT"):
            parse_endpoint("host:not-a-number")

    def test_registry_rejects_duplicate_registration(self):
        from repro import ParameterError
        from repro.mechanisms import register_mechanism
        from repro.mechanisms.laplace import LaplaceMechanism

        with pytest.raises(ParameterError, match="already registered"):
            register_mechanism("laplace", LaplaceMechanism)

    def test_laplace_rejects_nonpositive_sensitivity(self):
        from repro import ParameterError
        from repro.mechanisms.laplace import LaplaceMechanism

        with pytest.raises(ParameterError, match="positive"):
            LaplaceMechanism(sensitivity=0.0)

    def test_state_delta_error_on_incompatible_snapshots(self):
        from repro import StateDeltaError
        from repro.session import LDPServer, NumericAttribute, Schema

        schema = Schema([NumericAttribute("a"), NumericAttribute("b")])
        ours = LDPServer(schema, epsilon=1.0).state
        theirs = LDPServer(schema, epsilon=2.0).state
        with pytest.raises(StateDeltaError):
            ours.delta(theirs)
