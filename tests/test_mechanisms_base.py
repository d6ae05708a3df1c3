"""Tests for :mod:`repro.mechanisms.base`: validation, the ABC contract,
and the affine domain adapter."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import DomainError, PrivacyBudgetError
from repro.mechanisms import (
    AffineTransformedMechanism,
    HybridMechanism,
    LaplaceMechanism,
    PiecewiseMechanism,
    SquareWaveMechanism,
    monte_carlo_moments,
    validate_epsilon,
    validate_values,
)
from repro.mechanisms.base import check_values, validated_copy
from testutil import interior_value


class TestValidateEpsilon:
    @pytest.mark.parametrize("epsilon", [0.001, 0.1, 1, 10, 5000])
    def test_accepts_positive(self, epsilon):
        assert validate_epsilon(epsilon) == float(epsilon)

    @pytest.mark.parametrize("epsilon", [0, -1, float("nan"), float("inf")])
    def test_rejects_invalid(self, epsilon):
        with pytest.raises(PrivacyBudgetError):
            validate_epsilon(epsilon)


class TestValidateValues:
    def test_clips_roundoff(self):
        out = validate_values(np.array([1.0 + 1e-12, -1.0 - 1e-12]), (-1, 1))
        assert out.max() <= 1.0
        assert out.min() >= -1.0

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            validate_values(np.array([1.5]), (-1, 1))

    def test_returns_float64(self):
        out = validate_values([0, 1], (-1, 1))
        assert out.dtype == np.float64

    def test_empty_ok(self):
        assert validate_values(np.empty(0), (-1, 1)).size == 0


class TestValidatedCopy:
    """The kernels' one working copy: same verdicts as validate_values."""

    @pytest.mark.parametrize(
        "values",
        [[0.2, np.nan], [np.inf], [-np.inf, 0.0], [1.5], [-1.0 - 2e-9, 0.3]],
    )
    def test_refuses_with_validate_values_message(self, values):
        with pytest.raises(DomainError) as copied:
            validated_copy(np.array(values), (-1, 1))
        with pytest.raises(DomainError) as checked_only:
            check_values(np.array(values), (-1, 1))
        with pytest.raises(DomainError) as checked:
            validate_values(np.array(values), (-1, 1))
        assert str(copied.value) == str(checked.value)
        assert str(checked_only.value) == str(checked.value)

    def test_c_order_copy_of_a_transposed_view(self):
        records = np.random.default_rng(0).uniform(-1, 1, (50, 8))
        records[4, 2] = 1.0 + 5e-10
        view = records[:, 1:6].T
        out = validated_copy(view, (-1, 1))
        assert out.flags.c_contiguous and not np.shares_memory(out, records)
        np.testing.assert_array_equal(out, validate_values(view, (-1, 1)))
        assert records[4, 2] == 1.0 + 5e-10

    def test_signed_zeros_and_zero_d_input(self):
        out = validated_copy(np.array([-0.0, 0.0]), (0.0, 1.0))
        assert np.signbit(out).tolist() == np.signbit(
            validate_values(np.array([-0.0, 0.0]), (0.0, 1.0))
        ).tolist()
        scalar = validated_copy(1.0 + 1e-12, (-1, 1))
        assert scalar.shape == () and scalar == 1.0


class TestCheckValues:
    """The check alone (its refusals are checked with validated_copy's)."""

    def test_returns_the_callers_array_unclipped(self):
        values = np.array([0.5, 1.0 + 5e-10])
        out = check_values(values, (-1, 1))
        assert out is values and out[1] == 1.0 + 5e-10
        assert check_values([0, 1], (-1, 1)).dtype == np.float64
        assert check_values(np.empty(0), (-1, 1)).size == 0


class TestHybridPerturb:
    """Hybrid validates once, before any draw, and copies only per branch."""

    @pytest.mark.parametrize("epsilon", [0.5, 2.0])  # pure Duchi, mixture
    @pytest.mark.parametrize(
        "values", [[0.2, np.nan], [np.inf], [1.5], [-1.0 - 2e-9, 0.3]]
    )
    def test_refuses_before_any_draw(self, epsilon, values):
        gen = np.random.default_rng(3)
        before = gen.bit_generator.state
        with pytest.raises(DomainError) as refused:
            HybridMechanism().perturb(np.array(values), epsilon, gen)
        with pytest.raises(DomainError) as validated:
            validate_values(np.array(values), (-1, 1))
        assert str(refused.value) == str(validated.value)
        assert gen.bit_generator.state == before

    def test_leaves_the_callers_values_alone(self):
        records = np.random.default_rng(1).uniform(-1, 1, (40, 6))
        records[3, 2] = 1.0 + 5e-10
        kept = records.copy()
        HybridMechanism().perturb(records[:, 1:4].T, 2.0, 7)
        np.testing.assert_array_equal(records, kept)


class TestMechanismContract:
    def test_perturb_preserves_shape(self, any_mechanism, rng):
        lo, hi = any_mechanism.input_domain
        values = rng.uniform(lo, hi, size=(7, 5))
        out = any_mechanism.perturb(values, 1.0, rng)
        assert out.shape == (7, 5)

    def test_perturb_rejects_bad_epsilon(self, any_mechanism, rng):
        with pytest.raises(PrivacyBudgetError):
            any_mechanism.perturb(np.zeros(3) + interior_value(any_mechanism),
                                  -1.0, rng)

    def test_bounded_outputs_stay_in_support(self, any_mechanism, rng):
        if not any_mechanism.bounded:
            pytest.skip("unbounded mechanism")
        lo, hi = any_mechanism.input_domain
        values = rng.uniform(lo, hi, size=5000)
        out = any_mechanism.perturb(values, 0.8, rng)
        support = any_mechanism.output_support(0.8)
        assert out.min() >= support[0] - 1e-9
        assert out.max() <= support[1] + 1e-9

    def test_unbounded_support_is_infinite(self, any_mechanism):
        if any_mechanism.bounded:
            pytest.skip("bounded mechanism")
        lo, hi = any_mechanism.output_support(1.0)
        assert lo == -math.inf and hi == math.inf

    def test_second_moment_consistent(self, any_mechanism):
        values = np.array([interior_value(any_mechanism)])
        eps = 1.3
        mean = values + any_mechanism.conditional_bias(values, eps)
        second = any_mechanism.conditional_second_moment(values, eps)
        variance = any_mechanism.conditional_variance(values, eps)
        np.testing.assert_allclose(second, variance + mean**2, rtol=1e-12)

    def test_deterministic_bias_unbiased_mechanisms(self, any_mechanism):
        if any_mechanism.name.startswith("square_wave"):
            assert any_mechanism.deterministic_bias(1.0) is None
        else:
            assert any_mechanism.deterministic_bias(1.0) == pytest.approx(0.0)


class TestAffineTransformedMechanism:
    def test_roundtrip_moments(self, rng):
        inner = SquareWaveMechanism()
        outer = AffineTransformedMechanism(inner, (-1.0, 1.0))
        t_outer = 0.2  # maps to u = 0.6
        bias_inner = inner.conditional_bias(np.array([0.6]), 1.0)[0]
        bias_outer = outer.conditional_bias(np.array([t_outer]), 1.0)[0]
        assert bias_outer == pytest.approx(2.0 * bias_inner)
        var_inner = inner.conditional_variance(np.array([0.6]), 1.0)[0]
        var_outer = outer.conditional_variance(np.array([t_outer]), 1.0)[0]
        assert var_outer == pytest.approx(4.0 * var_inner)

    def test_monte_carlo_agrees(self, rng):
        outer = AffineTransformedMechanism(SquareWaveMechanism(), (-1.0, 1.0))
        bias_mc, var_mc = monte_carlo_moments(outer, -0.4, 0.7, 150_000, rng)
        bias_an = outer.conditional_bias(np.array([-0.4]), 0.7)[0]
        var_an = outer.conditional_variance(np.array([-0.4]), 0.7)[0]
        assert bias_mc == pytest.approx(bias_an, abs=0.01)
        assert var_mc == pytest.approx(var_an, rel=0.05)

    def test_output_support_mapped(self):
        outer = AffineTransformedMechanism(SquareWaveMechanism(), (-1.0, 1.0))
        b = SquareWaveMechanism.half_width(1.0)
        lo, hi = outer.output_support(1.0)
        assert lo == pytest.approx(-1.0 - 2.0 * b)
        assert hi == pytest.approx(1.0 + 2.0 * b)

    def test_identity_wrap_of_standard_domain(self, rng):
        outer = AffineTransformedMechanism(PiecewiseMechanism(), (-1.0, 1.0))
        values = rng.uniform(-1, 1, 100)
        np.testing.assert_allclose(
            outer.conditional_variance(values, 1.0),
            PiecewiseMechanism().conditional_variance(values, 1.0),
        )

    def test_degenerate_domain_rejected(self):
        with pytest.raises(DomainError):
            AffineTransformedMechanism(LaplaceMechanism(), (1.0, 1.0))

    def test_rejects_values_outside_outer_domain(self, rng):
        outer = AffineTransformedMechanism(SquareWaveMechanism(), (0.0, 10.0))
        with pytest.raises(DomainError):
            outer.perturb(np.array([11.0]), 1.0, rng)

    def test_third_moment_scales_cubically(self, rng):
        inner = SquareWaveMechanism()
        outer = AffineTransformedMechanism(inner, (-1.0, 1.0))
        rho_inner = inner.abs_third_central_moment(
            np.array([0.6]), 1.0, rng=1, samples=50_000
        )[0]
        rho_outer = outer.abs_third_central_moment(
            np.array([0.2]), 1.0, rng=1, samples=50_000
        )[0]
        assert rho_outer == pytest.approx(8.0 * rho_inner, rel=0.1)
