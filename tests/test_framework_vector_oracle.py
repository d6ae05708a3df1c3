"""Pin the vectorized Theorem 1/3/4 quantities to the per-dimension formulas.

:class:`MultivariateDeviationModel` evaluates envelopes and box/all-outside
probabilities over its cached ``δ``/``σ`` vectors. The oracle here rebuilds
each quantity one dimension at a time from the scalar
:class:`DeviationModel` methods; the two must agree bit for bit, so the
comparisons use ``float.hex`` rather than a tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.framework import DeviationModel, MultivariateDeviationModel
from repro.hdr4me import Recalibrator, deviation_envelopes
from repro.hdr4me.lambda_select import DEFAULT_CONFIDENCE, DEFAULT_FLOOR
from repro.hdr4me.solvers import recalibrate_l1, recalibrate_l2


def _hex(values) -> list:
    return [float(v).hex() for v in np.atleast_1d(np.asarray(values, dtype=np.float64))]


def _oracle_product(probabilities) -> float:
    log_total = 0.0
    for p in probabilities:
        if p <= 0.0:
            return 0.0
        log_total += math.log(p)
    return math.exp(log_total)


def _oracle_box(model, xi) -> float:
    return _oracle_product(
        m.supremum_probability(float(b)) for m, b in zip(model.dimensions, xi)
    )


def _oracle_all_outside(model, xi) -> float:
    return _oracle_product(
        m.exceedance_probability(float(b)) for m, b in zip(model.dimensions, xi)
    )


def _oracle_envelopes(model, confidence) -> np.ndarray:
    return np.array([m.envelope(confidence) for m in model.dimensions])


def _oracle_recalibrate(norm, theta, model):
    envelopes = _oracle_envelopes(model, DEFAULT_CONFIDENCE)
    if norm == "l1":
        lambdas = envelopes
        theta_star = recalibrate_l1(theta, lambdas)
        threshold = 1.0
    else:
        reference = np.abs(np.clip(theta, -1.0, 1.0))
        lambdas = envelopes / (2.0 * np.maximum(reference, DEFAULT_FLOOR))
        theta_star = recalibrate_l2(theta, lambdas)
        threshold = 2.0
    suprema = [threshold] * model.ndim
    return (
        theta_star,
        lambdas,
        1.0 - _oracle_box(model, suprema),
        _oracle_all_outside(model, suprema),
    )


@st.composite
def _cases(draw):
    d = draw(st.integers(min_value=1, max_value=12))
    finite = st.floats(min_value=-5.0, max_value=5.0)
    deltas = draw(st.lists(finite, min_size=d, max_size=d))
    sigmas = draw(
        st.lists(st.floats(min_value=1e-4, max_value=10.0), min_size=d, max_size=d)
    )
    bound = st.one_of(
        st.floats(min_value=0.0, max_value=30.0), st.just(0.0), st.just(math.inf)
    )
    suprema = draw(st.one_of(bound, st.lists(bound, min_size=d, max_size=d)))
    theta = draw(st.lists(finite, min_size=d, max_size=d))
    confidence = draw(st.floats(min_value=1e-6, max_value=1.0 - 1e-9))
    model = MultivariateDeviationModel(
        [
            DeviationModel(delta=a, sigma=s, reports=100, epsilon=1.0)
            for a, s in zip(deltas, sigmas)
        ]
    )
    return model, suprema, np.array(theta), confidence


@given(case=_cases())
@settings(max_examples=150, deadline=None)
def test_vector_path_matches_scalar_oracle(case):
    model, suprema, theta, confidence = case
    xi = np.broadcast_to(np.asarray(suprema, dtype=np.float64), (model.ndim,))

    expected = _oracle_envelopes(model, confidence)
    assert _hex(model.envelopes(confidence)) == _hex(expected)
    assert _hex(deviation_envelopes(model, confidence)) == _hex(expected)
    assert _hex(deviation_envelopes(model.dimensions, confidence)) == _hex(expected)

    box = model.box_probability(suprema)
    assert _hex(box) == _hex(_oracle_box(model, xi))
    assert _hex(model.any_outside_probability(suprema)) == _hex(1.0 - box)
    assert _hex(model.all_outside_probability(suprema)) == _hex(
        _oracle_all_outside(model, xi)
    )

    for norm in ("l1", "l2"):
        result = Recalibrator(norm).recalibrate(theta, model)
        theta_star, lambdas, paper_bound, all_dims = _oracle_recalibrate(
            norm, theta, model
        )
        assert _hex(result.theta_star) == _hex(theta_star)
        assert _hex(result.lambdas) == _hex(lambdas)
        assert _hex(result.guarantee.paper_bound) == _hex(paper_bound)
        assert _hex(result.guarantee.all_dims_probability) == _hex(all_dims)


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_recalibrate_makes_no_per_dimension_calls(monkeypatch, norm):
    """A d = 2000 recalibration never falls back to the scalar methods."""
    calls = {"envelope": 0, "supremum_probability": 0}

    def counting(name):
        original = getattr(DeviationModel, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(DeviationModel, name, counting(name))
    d = 2000
    model = MultivariateDeviationModel(
        [DeviationModel(delta=0.01, sigma=0.2, reports=50, epsilon=1.0)] * d
    )
    result = Recalibrator(norm).recalibrate(np.linspace(-1.0, 1.0, d), model)
    assert result.theta_star.shape == (d,)
    assert calls == {"envelope": 0, "supremum_probability": 0}
