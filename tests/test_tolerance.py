"""The scalar tolerance check agrees with numpy's at the tolerance edges."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DistributionError
from repro.framework import ValueDistribution
from repro.mechanisms import available_mechanisms, get_mechanism
from repro.tolerance import isclose


def _edge_pairs(b, rtol, atol):
    """Pairs ``(a, b)`` on, just inside and just outside the tolerance."""
    bound = atol + rtol * abs(b)
    pairs = []
    for sign in (1.0, -1.0):
        edge = b + sign * bound
        pairs.append((edge, b))
        pairs.append((math.nextafter(edge, math.inf), b))
        pairs.append((math.nextafter(edge, -math.inf), b))
    return pairs


@pytest.mark.parametrize("b", [0.0, 1.0, -1.0, 1e-12, 3.7, -250.0, 1e8])
@pytest.mark.parametrize("rtol, atol", [(1e-5, 1e-8), (1e-5, 1e-12), (0.0, 1e-9)])
def test_edges_match_numpy(b, rtol, atol):
    accepted = rejected = 0
    for a, ref in _edge_pairs(b, rtol, atol):
        expected = bool(np.isclose(a, ref, rtol=rtol, atol=atol))
        assert isclose(a, ref, rtol=rtol, atol=atol) is expected
        accepted += expected
        rejected += not expected
    assert accepted and rejected  # the pairs straddle the edge


@pytest.mark.parametrize(
    "a, b",
    [
        (math.inf, math.inf),
        (-math.inf, -math.inf),
        (math.inf, -math.inf),
        (math.inf, 1.0),
        (1.0, math.inf),
        (math.nan, math.nan),
        (math.nan, 1.0),
        (1.0, math.nan),
    ],
)
def test_non_finite_match_numpy(a, b):
    assert isclose(a, b) is bool(np.isclose(a, b))


@given(
    a=st.floats(allow_nan=True, allow_infinity=True),
    b=st.floats(allow_nan=True, allow_infinity=True),
    atol=st.sampled_from([0.0, 1e-12, 1e-8, 1.0]),
)
@settings(max_examples=300, deadline=None)
def test_matches_numpy_everywhere(a, b, atol):
    assert isclose(a, b, atol=atol) is bool(np.isclose(a, b, atol=atol))


@pytest.mark.parametrize("name", available_mechanisms())
def test_deterministic_bias_matches_the_allclose_rule(name):
    mechanism = get_mechanism(name)
    for epsilon in (0.05, 0.8, 4.0):
        lo, hi = mechanism.input_domain
        probes = np.array([lo, 0.5 * (lo + hi), hi])
        biases = mechanism.conditional_bias(probes, epsilon)
        expected = (
            float(biases[0]) if np.allclose(biases, biases[0], atol=1e-12) else None
        )
        assert mechanism.deterministic_bias(epsilon) == expected


def test_value_distribution_total_at_the_edge():
    bound = 1e-8 + 1e-5  # atol + rtol·|1|
    inside = math.nextafter(1.0 + bound, 0.0)
    outside = math.nextafter(1.0 + bound, math.inf)
    for total, expected in ((inside, True), (outside, False)):
        assert bool(np.isclose(total, 1.0, atol=1e-8)) is expected
        values, probs = np.array([0.0, 1.0]), np.array([0.5, total - 0.5])
        if expected:
            ValueDistribution(values, probs)
        else:
            with pytest.raises(DistributionError):
                ValueDistribution(values, probs)
