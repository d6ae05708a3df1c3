"""Bit-identity of the deviation models' Gaussian primitives.

The framework evaluates the standard normal cdf and its inverse with
``scipy.special.ndtr``/``ndtri`` instead of ``scipy.stats.norm``. These
properties pin, on whichever scipy is installed, that every public
quantity built on them has exactly the bits the ``scipy.stats.norm``
formulas give, at the extremes too (±inf and NaN deviations, subnormal
and huge scales, confidences next to 0 and 1).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from repro.framework import DeviationModel, MultivariateDeviationModel
from repro.framework.deviation import envelope_quantile
from repro.framework.multivariate import _product

INF = float("inf")
NAN = float("nan")

deltas = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 0.3, -2.5, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
sigmas = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-12, 0.05, 1.0, 1e12, 1e300, 1.7e308]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
deviations = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, INF, -INF, NAN]),
    st.floats(),
)
suprema = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 0.01, 1.0, 1e300, INF]),
    st.floats(min_value=0.0),
)
confidences = st.one_of(
    st.sampled_from([5e-324, 1e-12, 0.5, 0.9973, 1 - 1e-12, 1 - 2**-53]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)


def _hexes(value):
    return [float(v).hex() for v in np.ravel(value)]


def _assert_same(ours, reference):
    assert type(ours) is type(reference)
    assert np.shape(ours) == np.shape(reference)
    assert _hexes(ours) == _hexes(reference)


def _model(delta, sigma):
    return DeviationModel(delta=delta, sigma=sigma, reports=100, epsilon=1.0)


def _reference_cdf(model, x):
    return stats.norm.cdf(x, loc=model.delta, scale=model.sigma)


def _reference_inside(model, xi):
    xi = np.broadcast_to(np.asarray(xi, dtype=np.float64), model.deltas.shape)
    cdf = stats.norm.cdf
    return cdf(xi, loc=model.deltas, scale=model.sigmas) - cdf(
        -xi, loc=model.deltas, scale=model.sigmas
    )


@settings(max_examples=300, deadline=None)
@given(deltas, sigmas, st.lists(deviations, min_size=1, max_size=8))
@example(0.0, 5e-324, [INF, -INF, NAN, 1e-300, 0.0])
@example(1e300, 1.7e308, [-1e300, 1e300, -INF])
def test_cdf_matches_scipy_stats(delta, sigma, xs):
    model = _model(delta, sigma)
    with np.errstate(all="ignore"):
        _assert_same(model.cdf(np.array(xs)), _reference_cdf(model, np.array(xs)))
        _assert_same(model.cdf(xs[0]), _reference_cdf(model, np.float64(xs[0])))


@settings(max_examples=300, deadline=None)
@given(deltas, sigmas, deviations, deviations, suprema)
@example(0.0, 1.0, -INF, INF, INF)
@example(0.2, 1e-300, 0.0, 1e-300, 1e-300)
def test_interval_and_supremum_probability_match_scipy_stats(
    delta, sigma, a, b, xi
):
    model = _model(delta, sigma)
    low, high = (a, b) if not a > b else (b, a)
    with np.errstate(all="ignore"):
        expected = float(
            _reference_cdf(model, np.float64(high))
            - _reference_cdf(model, np.float64(low))
        )
        _assert_same(model.interval_probability(low, high), expected)
        expected = float(
            _reference_cdf(model, np.float64(xi))
            - _reference_cdf(model, np.float64(-xi))
        )
        _assert_same(model.supremum_probability(xi), expected)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(deltas, sigmas, suprema), min_size=1, max_size=6),
    suprema,
    confidences,
)
@example([(0.0, 1.0, 0.0), (0.1, 5e-324, INF), (-3.0, 1e300, 1e-300)], 1e-300, 1e-12)
@example([(1e300, 1.7e308, INF)], INF, 1 - 1e-12)
def test_box_envelope_probabilities_match_scipy_stats(dims, shared_xi, confidence):
    model = MultivariateDeviationModel([_model(d, s) for d, s, _ in dims])
    per_dim_xi = np.array([xi for _, _, xi in dims])
    with np.errstate(all="ignore"):
        for xi in (per_dim_xi, shared_xi):
            inside = _reference_inside(model, xi)
            _assert_same(model.box_probability(xi), _product(inside))
            _assert_same(model.all_outside_probability(xi), _product(1.0 - inside))
        z = stats.norm.ppf(0.5 + confidence / 2.0)
        _assert_same(
            model.envelopes(confidence), np.abs(model.deltas) + z * model.sigmas
        )


@settings(max_examples=500, deadline=None)
@given(confidences)
@example(1e-12)
@example(1 - 1e-12)
def test_envelope_quantile_matches_scipy_stats(confidence):
    _assert_same(
        envelope_quantile(confidence), stats.norm.ppf(0.5 + confidence / 2.0)
    )
