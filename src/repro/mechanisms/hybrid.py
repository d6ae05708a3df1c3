"""Hybrid mechanism (Wang et al., ICDE 2019) — Piecewise/Duchi mixture.

The Hybrid mechanism tosses a coin: with probability ``α`` it runs the
Piecewise mechanism, otherwise the Duchi binary mechanism, both with the
full per-dimension budget ``ε``. Wang et al. show the worst-case variance
is minimized by

    α = 1 − e^{−ε/2}    if ε > ε* ≈ 0.61
    α = 0               otherwise (pure Duchi)

Both components are unbiased, so the mixture is unbiased and its
conditional variance is the mixture of conditional second moments::

    Var[t*|t] = α Var_PM[t*|t] + (1 − α) Var_Duchi[t*|t]

(the cross term vanishes because both conditional means equal ``t``).
The output support is the wider of the two components' supports, so the
mechanism is bounded.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..rng import RngLike, ensure_rng
from .base import Mechanism, select, validate_epsilon, validate_values
from .duchi import DuchiMechanism
from .piecewise import PiecewiseMechanism

#: Budget threshold below which the mixture degenerates to pure Duchi.
EPSILON_STAR = 0.61


class HybridMechanism(Mechanism):
    """ε-LDP Hybrid (Piecewise ⊕ Duchi) perturbation for ``[−1, 1]``."""

    name = "hybrid"
    bounded = True

    def __init__(self) -> None:
        self._piecewise = PiecewiseMechanism()
        self._duchi = DuchiMechanism()

    @staticmethod
    def mixing_probability(epsilon: float) -> float:
        """Return ``α``, the probability of using the Piecewise branch."""
        eps = validate_epsilon(epsilon)
        if eps <= EPSILON_STAR:
            return 0.0
        return 1.0 - math.exp(-eps / 2.0)

    def perturb(
        self, values: np.ndarray, epsilon: float, rng: RngLike = None
    ) -> np.ndarray:
        eps = validate_epsilon(epsilon)
        arr = validate_values(values, self.input_domain)
        gen = ensure_rng(rng)
        alpha = self.mixing_probability(eps)
        if alpha == 0.0:
            return self._duchi.perturb(arr, eps, gen)
        use_piecewise = gen.random(arr.shape) < alpha
        piecewise_draw = self._piecewise.perturb(arr, eps, gen)
        duchi_draw = self._duchi.perturb(arr, eps, gen)
        return select(use_piecewise, piecewise_draw, duchi_draw, out=piecewise_draw)

    def conditional_bias(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        return np.zeros(arr.shape)

    def conditional_variance(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        eps = validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        alpha = self.mixing_probability(eps)
        return alpha * self._piecewise.conditional_variance(
            arr, eps
        ) + (1.0 - alpha) * self._duchi.conditional_variance(arr, eps)

    def abs_third_central_moment(
        self,
        values: np.ndarray,
        epsilon: float,
        rng: RngLike = None,
        samples: int = 200_000,
    ) -> np.ndarray:
        """Mixture of the component moments (both centred at ``t``)."""
        eps = validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        alpha = self.mixing_probability(eps)
        duchi_rho = self._duchi.abs_third_central_moment(arr, eps)
        if alpha == 0.0:
            return duchi_rho
        piecewise_rho = self._piecewise.abs_third_central_moment(
            arr, eps, rng=rng, samples=samples
        )
        return alpha * piecewise_rho + (1.0 - alpha) * duchi_rho

    def output_support(self, epsilon: float) -> Tuple[float, float]:
        eps = validate_epsilon(epsilon)
        if self.mixing_probability(eps) == 0.0:
            return self._duchi.output_support(eps)
        low = min(
            self._piecewise.output_support(eps)[0], self._duchi.output_support(eps)[0]
        )
        high = max(
            self._piecewise.output_support(eps)[1], self._duchi.output_support(eps)[1]
        )
        return (low, high)
