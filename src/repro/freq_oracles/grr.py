"""Generalized randomized response (GRR, a.k.a. direct encoding).

Each user reports her true category with probability
``p = e^ε / (e^ε + v − 1)`` and any specific other category with
probability ``q = 1 / (e^ε + v − 1)``. The per-category count is then a
Binomial whose success probability is ``P = f·p + (1 − f)·q``, giving the
unbiased estimator ``f̂ = (c/n − q) / (p − q)`` with variance
``P(1 − P) / (n (p − q)²)``.

GRR is optimal for small category counts and degrades linearly in ``v``
— the regime comparison with OUE/OLH is exercised in the
``bench_freq_oracles`` benchmark.
"""

from __future__ import annotations

import math
from typing import Any, Tuple

import numpy as np

from ..exceptions import DomainError
from ..mechanisms.base import select
from ..rng import RngLike
from .base import FrequencyOracle, check_labels


class GeneralizedRandomizedResponse(FrequencyOracle):
    """ε-LDP direct encoding over ``v`` categories."""

    name = "grr"

    @property
    def p_true(self) -> float:
        """Probability of reporting the true category."""
        e_eps = math.exp(self.epsilon)
        return e_eps / (e_eps + self.n_categories - 1.0)

    @property
    def p_other(self) -> float:
        """Probability of reporting one specific wrong category."""
        e_eps = math.exp(self.epsilon)
        return 1.0 / (e_eps + self.n_categories - 1.0)

    def privatize(self, labels: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Return perturbed integer labels (same shape as ``labels``)."""
        arr = self._check_labels(labels)
        gen = self._rng(rng)
        keep = gen.random(arr.size) < self.p_true
        # A uniform *other* category: draw from v-1 and skip the truth.
        lie = gen.integers(1, self.n_categories, size=arr.size)
        lie += arr
        lie %= self.n_categories
        # arr is _check_labels' own int64 copy, so the select may fill it.
        return select(keep, arr, lie, out=arr)

    @property
    def support_probabilities(self) -> Tuple[float, float]:
        return self.p_true, self.p_other

    def check_reports(self, reports: Any, where: str) -> np.ndarray:
        """``reports`` as an int64 ``(n,)`` vector of noisy labels.

        Unlike the user's labels, noisy labels never pass through a float
        column, so a float dtype is refused even when integral.
        """
        arr = np.asarray(reports)
        if arr.ndim == 1 and arr.dtype.kind not in "iu":
            raise DomainError(
                "%s must have an integer dtype, got %s" % (where, arr.dtype)
            )
        return check_labels(arr, self.n_categories, where)

    def support_counts(self, canonical: np.ndarray) -> np.ndarray:
        """Per-category counts of the perturbed labels."""
        return np.bincount(canonical, minlength=self.n_categories)
