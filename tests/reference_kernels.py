"""Frozen ``np.where`` sampling kernels: the oracle for the branch-free ones.

Each function reproduces, expression for expression, the sampling code the
library shipped before its kernels switched to the bit-pattern ``select``
and in-place arithmetic. They take the same arguments as the mechanism's
``perturb`` (or the oracle's ``privatize``), read parameters from the live
instance, and draw from the generator in the same order, so for equal
seeds a kernel and its reference must agree bit for bit. Do not edit these
functions to follow a kernel change: the point is that they do not move.
"""

from __future__ import annotations

import math

import numpy as np

from repro.freq_oracles.olh import OlhReports, _PRIME, _hash_buckets
from repro.mechanisms.base import validate_epsilon, validate_values
from repro.rng import ensure_rng


def piecewise(mech, values, epsilon, rng):
    eps = validate_epsilon(epsilon)
    arr = validate_values(values, mech.input_domain)
    gen = ensure_rng(rng)
    big_q = mech.boundary(eps)
    left = (big_q + 1.0) / 2.0 * np.asarray(arr, dtype=np.float64) - (big_q - 1.0) / 2.0
    right = left + big_q - 1.0
    prob_center = 1.0 / (1.0 + math.exp(-eps / 2.0))

    in_center = gen.random(arr.shape) < prob_center
    center_draw = left + gen.random(arr.shape) * (big_q - 1.0)
    tail_position = gen.random(arr.shape) * (big_q + 1.0)
    left_tail_len = left + big_q
    tail_draw = np.where(
        tail_position < left_tail_len,
        -big_q + tail_position,
        right + (tail_position - left_tail_len),
    )
    return np.where(in_center, center_draw, tail_draw)


def square_wave_unit(mech, values, epsilon, rng):
    eps = validate_epsilon(epsilon)
    arr = validate_values(values, mech.input_domain)
    gen = ensure_rng(rng)
    b = mech.half_width(eps)
    b_exp = mech._b_exp(eps)
    prob_center = 2.0 * b_exp / (2.0 * b_exp + 1.0)

    in_center = gen.random(arr.shape) < prob_center
    center_draw = arr - b + gen.random(arr.shape) * 2.0 * b
    tail_position = gen.random(arr.shape)
    tail_draw = np.where(
        tail_position < arr,
        -b + tail_position,
        b + tail_position,
    )
    return np.where(in_center, center_draw, tail_draw)


def square_wave(mech, values, epsilon, rng):
    """The registry's affine-wrapped square wave on ``[−1, 1]``."""
    arr = validate_values(values, mech.input_domain)
    inner = (np.asarray(arr, dtype=np.float64) - mech._offset) / mech._slope
    drawn = square_wave_unit(mech.inner, inner, epsilon, rng)
    return mech._slope * np.asarray(drawn, dtype=np.float64) + mech._offset


def duchi(mech, values, epsilon, rng):
    eps = validate_epsilon(epsilon)
    arr = validate_values(values, mech.input_domain)
    gen = ensure_rng(rng)
    big_c = mech.magnitude(eps)
    prob_positive = 0.5 + arr * mech._half_slope(eps)
    positive = gen.random(arr.shape) < prob_positive
    return np.where(positive, big_c, -big_c)


def hybrid(mech, values, epsilon, rng):
    eps = validate_epsilon(epsilon)
    arr = validate_values(values, mech.input_domain)
    gen = ensure_rng(rng)
    alpha = mech.mixing_probability(eps)
    if alpha == 0.0:
        return duchi(mech._duchi, arr, eps, gen)
    use_piecewise = gen.random(arr.shape) < alpha
    piecewise_draw = piecewise(mech._piecewise, arr, eps, gen)
    duchi_draw = duchi(mech._duchi, arr, eps, gen)
    return np.where(use_piecewise, piecewise_draw, duchi_draw)


def staircase_noise(mech, size, epsilon, rng):
    eps = validate_epsilon(epsilon)
    gen = ensure_rng(rng)
    gamma = mech._gamma(eps)
    delta = mech.sensitivity
    b = math.exp(-eps)

    sign = gen.choice((-1.0, 1.0), size=size)
    geometric = gen.geometric(p=1.0 - b, size=size) - 1
    uniform = gen.random(size=size)
    left = gen.random(size=size) < gamma / (gamma + (1.0 - gamma) * b)
    offset = np.where(
        left,
        gamma * uniform,
        gamma + (1.0 - gamma) * uniform,
    )
    return sign * (geometric + offset) * delta


def _additive(sample_noise):
    def perturb(mech, values, epsilon, rng):
        eps = validate_epsilon(epsilon)
        arr = validate_values(values, mech.input_domain)
        return arr + sample_noise(mech, arr.shape, eps, rng)

    return perturb


def _laplace_noise(mech, size, epsilon, rng):
    return mech.sample_noise(size, epsilon, rng)


#: Registered mechanism name -> frozen ``perturb``.
MECHANISMS = {
    "duchi": duchi,
    "hybrid": hybrid,
    "laplace": _additive(_laplace_noise),
    "piecewise": piecewise,
    "scdf": _additive(staircase_noise),
    "square_wave": square_wave,
    "square_wave_unit": square_wave_unit,
    "staircase": _additive(staircase_noise),
}


def grr(oracle, labels, rng):
    arr = oracle._check_labels(labels)
    gen = oracle._rng(rng)
    keep = gen.random(arr.size) < oracle.p_true
    offset = gen.integers(1, oracle.n_categories, size=arr.size)
    lie = (arr + offset) % oracle.n_categories
    return np.where(keep, arr, lie)


def olh(oracle, labels, rng):
    arr = oracle._check_labels(labels)
    gen = oracle._rng(rng)
    seeds = np.column_stack(
        [
            gen.integers(1, 1 << 30, size=arr.size),
            gen.integers(0, _PRIME, size=arr.size),
        ]
    )
    true_buckets = _hash_buckets(seeds, arr, oracle.n_buckets)
    keep = gen.random(arr.size) < oracle.p_true
    offset = gen.integers(1, oracle.n_buckets, size=arr.size)
    lie = (true_buckets + offset) % oracle.n_buckets
    return OlhReports(seeds=seeds, buckets=np.where(keep, true_buckets, lie))
