"""Piecewise mechanism (Wang et al., ICDE 2019) — bounded, continuous output.

For a value ``t ∈ [−1, 1]`` and per-dimension budget ``ε`` the perturbed
value ``t*`` is drawn from a two-level piecewise-constant density on
``[−Q, Q]`` (paper Eq. 4)::

    Q    = (e^{ε/2} + 1) / (e^{ε/2} − 1)
    l(t) = (Q + 1)/2 · t − (Q − 1)/2
    r(t) = l(t) + Q − 1
    Pr(t*) = (e^ε − e^{ε/2}) / (2 e^{ε/2} + 2)   on [l(t), r(t)]
    Pr(t*) = (1 − e^{−ε/2}) / (2 e^{ε/2} + 2)    elsewhere in [−Q, Q]

The estimator is unbiased with conditional variance (paper Eq. 14, with the
known ``t`` → ``t²`` typo corrected; see DESIGN.md §5)::

    Var[t*|t] = t² / (e^{ε/2} − 1) + (e^{ε/2} + 3) / (3 (e^{ε/2} − 1)²)
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..rng import RngLike, ensure_rng
from .base import Mechanism, select, validate_epsilon, validated_copy


class PiecewiseMechanism(Mechanism):
    """ε-LDP Piecewise perturbation for values in ``[−1, 1]``."""

    name = "piecewise"
    bounded = True

    @staticmethod
    def boundary(epsilon: float) -> float:
        """Return the output boundary ``Q = (e^{ε/2} + 1)/(e^{ε/2} − 1)``.

        Computed as ``1/tanh(ε/4)``, which is algebraically identical and
        stays finite for arbitrarily large budgets (``exp(ε/2)`` would
        overflow past ε ≈ 1418).
        """
        eps = validate_epsilon(epsilon)
        return 1.0 / math.tanh(eps / 4.0)

    @classmethod
    def center_interval(
        cls, values: np.ndarray, epsilon: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(l(t), r(t))``, the high-probability interval per value."""
        big_q = cls.boundary(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        left = (big_q + 1.0) / 2.0 * arr - (big_q - 1.0) / 2.0
        return left, left + big_q - 1.0

    def perturb(
        self, values: np.ndarray, epsilon: float, rng: RngLike = None
    ) -> np.ndarray:
        eps = validate_epsilon(epsilon)
        gen = ensure_rng(rng)
        big_q = self.boundary(eps)
        # Total mass of the centre interval integrates to
        # e^{ε/2}/(e^{ε/2}+1) = 1/(1 + e^{−ε/2}) (overflow-safe form).
        prob_center = 1.0 / (1.0 + math.exp(-eps / 2.0))
        # In place, each expression's operands in the same order as in
        # center_interval and the np.where reference kernel in
        # tests/reference_kernels.py (up to swapping those of a sum or
        # product, and −c + x as x − c), so every entry rounds exactly
        # as there: see DESIGN §1.
        left = validated_copy(values, self.input_domain)
        left *= (big_q + 1.0) / 2.0
        left -= (big_q - 1.0) / 2.0

        draw = gen.random(left.shape)
        in_center = draw < prob_center
        center_draw = gen.random(out=draw)
        center_draw *= big_q - 1.0
        center_draw += left
        # Tail: uniform over [−Q, l) ∪ (r, Q], total length Q + 1.
        tail_position = gen.random(left.shape)
        tail_position *= big_q + 1.0
        left_tail_len = left
        left_tail_len += big_q
        in_left_tail = tail_position < left_tail_len
        # Right tail r + (position − (l + Q)), with r = (l + Q) − 1.
        right_tail = tail_position - left_tail_len
        left_tail_len -= 1.0
        right_tail += left_tail_len
        tail_position -= big_q
        tail_draw = select(in_left_tail, tail_position, right_tail, out=tail_position)
        return select(in_center, center_draw, tail_draw, out=center_draw)

    def conditional_bias(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        return np.zeros(arr.shape)

    def conditional_variance(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        eps = validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        # Overflow-safe evaluation via d = e^{−ε/2}:
        #   t²/(e^{ε/2} − 1)            = t² d / (1 − d)
        #   (e^{ε/2} + 3)/(3(e^{ε/2}−1)²) = d (1 + 3d) / (3 (1 − d)²)
        decay = math.exp(-eps / 2.0)
        one_minus = 1.0 - decay
        return (
            arr**2 * decay / one_minus
            + decay * (1.0 + 3.0 * decay) / (3.0 * one_minus**2)
        )

    def pdf(self, outputs: np.ndarray, values: np.ndarray, epsilon: float) -> np.ndarray:
        """Density ``Pr(t* | t)`` evaluated elementwise (paper Eq. 4)."""
        eps = validate_epsilon(epsilon)
        out = np.asarray(outputs, dtype=np.float64)
        big_q = self.boundary(eps)
        left, right = self.center_interval(values, eps)
        high = (math.exp(eps) - math.exp(eps / 2.0)) / (2.0 * math.exp(eps / 2.0) + 2.0)
        low = (1.0 - math.exp(-eps / 2.0)) / (2.0 * math.exp(eps / 2.0) + 2.0)
        density = select((out >= left) & (out <= right), high, low)
        return select(np.abs(out) <= big_q, density, 0.0, out=density)

    def output_support(self, epsilon: float) -> Tuple[float, float]:
        big_q = self.boundary(epsilon)
        return (-big_q, big_q)
