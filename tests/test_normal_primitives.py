"""Bit-identity of the deviation models' Gaussian primitives.

The framework evaluates the standard normal cdf and its inverse with its
own Cephes port, :func:`repro.framework.normal.ndtr`/``ndtri``, instead
of scipy. These properties pin, on whichever scipy is installed, that
the port gives exactly the bits of ``scipy.special.ndtr``/``ndtri`` at
every branch edge, and that every public quantity built on it has the
bits the ``scipy.stats.norm`` formulas give, at the extremes too (±inf
and NaN deviations, subnormal and huge scales, confidences next to 0 and
1). The port takes ``exp``/``log`` from the platform libm through
:mod:`math`, so these tests are also the check that it is the libm
scipy's compiled Cephes code calls.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy import special, stats

from repro.framework import DeviationModel, MultivariateDeviationModel
from repro.framework.deviation import envelope_quantile
from repro.framework.multivariate import _product
from repro.framework.normal import MAXLOG, ndtr, ndtri

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


def _around(edge, steps=3):
    """``edge`` and its ``steps`` float neighbours on either side."""
    values = [edge]
    down = up = edge
    for _ in range(steps):
        down = math.nextafter(down, -math.inf)
        up = math.nextafter(up, math.inf)
        values += [down, up]
    return values


SQRT2 = math.sqrt(2.0)
#: ndtr's branch edges in ``a``: ``|a/√2| = √½`` (erf/erfc), erfc's
#: ``x = 1`` and ``x = 8``, and the ``x² = MAXLOG`` underflow cut.
NDTR_EDGES = [
    value
    for edge in (1.0, SQRT2, 8.0 * SQRT2, math.sqrt(MAXLOG) * SQRT2)
    for value in _around(edge)
]
#: ndtri's branch edges in ``y``: the central interval ``[e⁻², 1 − e⁻²]``
#: and ``z = √(−2 log y) = 8`` at ``y = e⁻³²``.
NDTRI_EDGES = [
    value
    for edge in (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0))
    for value in _around(edge)
]

ndtr_args = st.one_of(
    st.sampled_from(
        NDTR_EDGES
        + [-a for a in NDTR_EDGES]
        + [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, INF, -INF, NAN]
    ),
    st.floats(min_value=-40.0, max_value=40.0),
    st.floats(),
)
ndtri_args = st.one_of(
    st.sampled_from(
        NDTRI_EDGES
        + [0.0, -0.0, 1.0, 5e-324, 0.5, 1 - 2**-53, -1e-300, 1 + 2**-52, -INF, INF, NAN]
    ),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e-14),
    st.floats(),
)


@settings(max_examples=500, deadline=None)
@given(ndtr_args, st.lists(ndtr_args, min_size=1, max_size=12))
@example(1.0, [-1.0, SQRT2, -SQRT2, 8.0 * SQRT2, -8.0 * SQRT2])
@example(37.7, [37.67, 37.68, -37.68, 37.69, 38.0, -38.0])
@example(math.sqrt(MAXLOG) * SQRT2, [-math.sqrt(MAXLOG) * SQRT2])
@example(NAN, [INF, -INF, NAN, 0.0, -0.0, 5e-324])
def test_ndtr_matches_scipy_special(a, values):
    with np.errstate(all="ignore"):
        _assert_same(ndtr(a), special.ndtr(a))
        _assert_same(ndtr(np.float64(a)), special.ndtr(np.float64(a)))
        _assert_same(ndtr(np.array(a)), special.ndtr(np.array(a)))
        grid = np.array(values)
        _assert_same(ndtr(grid), special.ndtr(grid))
        _assert_same(ndtr(values), special.ndtr(values))
        block = np.resize(grid, (3, len(values)))
        _assert_same(ndtr(block), special.ndtr(block))


@settings(max_examples=500, deadline=None)
@given(ndtri_args)
@example(math.exp(-2.0))
@example(1.0 - math.exp(-2.0))
@example(math.exp(-32.0))
@example(0.0)
@example(1.0)
@example(-0.25)
@example(1.5)
@example(NAN)
def test_ndtri_matches_scipy_special(y):
    _assert_same(ndtri(y), special.ndtri(y))
    _assert_same(ndtri(np.float64(y)), special.ndtri(np.float64(y)))
    _assert_same(ndtri(np.array(y)), special.ndtri(np.array(y)))
    grid = np.array([y, 1.0 - y, y / 2.0])
    _assert_same(ndtri(grid), special.ndtri(grid))


def test_ndtri_boundaries():
    assert ndtri(0.0) == -INF and ndtri(-0.0) == -INF
    assert ndtri(1.0) == INF
    for y in (-1e-300, 1.0 + 2**-52, -INF, INF, NAN):
        assert np.isnan(ndtri(y))
    assert np.isnan(ndtr(NAN))
    assert ndtr(INF) == 1.0 and ndtr(-INF) == 0.0


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
