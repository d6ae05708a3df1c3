"""Duchi et al.'s binary mechanism, the earliest bounded LDP mechanism.

For ``t ∈ [−1, 1]`` the output is one of the two extreme points ``±C`` with

    C = (e^ε + 1) / (e^ε − 1)
    Pr[t* = +C] = 1/2 + t (e^ε − 1) / (2 (e^ε + 1))

which yields an unbiased estimator (``E[t*] = t``) with conditional
variance ``C² − t²``. The paper cites it as the prototypical *bounded*
mechanism whose binary output Piecewise and Hybrid later improve upon.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..rng import RngLike, ensure_rng
from .base import Mechanism, select, validate_epsilon, validated_copy


class DuchiMechanism(Mechanism):
    """ε-LDP binary perturbation for values in ``[−1, 1]``."""

    name = "duchi"
    bounded = True

    @staticmethod
    def magnitude(epsilon: float) -> float:
        """Return the output magnitude ``C = (e^ε + 1)/(e^ε − 1)``.

        Computed as ``1/tanh(ε/2)`` — identical algebraically and finite
        for arbitrarily large budgets.
        """
        eps = validate_epsilon(epsilon)
        return 1.0 / math.tanh(eps / 2.0)

    @staticmethod
    def _half_slope(epsilon: float) -> float:
        """Return ``(e^ε − 1)/(2(e^ε + 1)) = tanh(ε/2)/2`` (overflow-safe)."""
        return math.tanh(epsilon / 2.0) / 2.0

    def perturb(
        self, values: np.ndarray, epsilon: float, rng: RngLike = None
    ) -> np.ndarray:
        eps = validate_epsilon(epsilon)
        prob_positive = validated_copy(values, self.input_domain)
        gen = ensure_rng(rng)
        big_c = self.magnitude(eps)
        prob_positive *= self._half_slope(eps)
        prob_positive += 0.5
        draw = gen.random(prob_positive.shape)
        return select(draw < prob_positive, big_c, -big_c, out=draw)

    def conditional_bias(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        return np.zeros(arr.shape)

    def conditional_variance(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        eps = validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        return self.magnitude(eps) ** 2 - arr**2

    def abs_third_central_moment(
        self,
        values: np.ndarray,
        epsilon: float,
        rng: RngLike = None,
        samples: int = 200_000,
    ) -> np.ndarray:
        """Exact two-point sum ``Σ p |±C − t|³`` (no sampling needed)."""
        eps = validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        big_c = self.magnitude(eps)
        prob_positive = 0.5 + arr * self._half_slope(eps)
        return (
            prob_positive * np.abs(big_c - arr) ** 3
            + (1.0 - prob_positive) * np.abs(-big_c - arr) ** 3
        )

    def output_support(self, epsilon: float) -> Tuple[float, float]:
        big_c = self.magnitude(epsilon)
        return (-big_c, big_c)
