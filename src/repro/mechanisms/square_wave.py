"""Square-wave mechanism (Li et al., SIGMOD 2020) — bounded, biased.

Natively defined for ``t ∈ [0, 1]``: the perturbed value ``t* ∈ [−b, 1+b]``
is "near" ``t`` with high probability (paper Eq. 5)::

    b = (ε e^ε − e^ε + 1) / (2 e^ε (e^ε − 1 − ε))
    Pr(t*) = e^ε / (2b e^ε + 1)   if |t − t*| < b
    Pr(t*) = 1  / (2b e^ε + 1)    otherwise

Unlike Piecewise, averaging the raw outputs is *biased*; the paper derives
the conditional bias (Eq. 17) and variance (Eq. 18) and keeps the bias in
the deviation model (the −0.049 mean in the IV-C case study). For data in
the library-standard ``[−1, 1]`` wrap this class in
:class:`repro.mechanisms.base.AffineTransformedMechanism` (the registry's
``"square_wave"`` entry does this automatically via ``standardized()``).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..rng import RngLike, ensure_rng
from .base import (
    AffineTransformedMechanism,
    Mechanism,
    STANDARD_DOMAIN,
    select,
    validate_epsilon,
    validated_copy,
)


class SquareWaveMechanism(Mechanism):
    """ε-LDP square-wave perturbation for values in ``[0, 1]``."""

    name = "square_wave_unit"
    bounded = True
    input_domain = (0.0, 1.0)

    @staticmethod
    def _b_exp(epsilon: float) -> float:
        """Return ``b(ε) · e^ε``, computed without overflow.

        Rewriting ``b = (ε e^ε − e^ε + 1) / (2 e^ε (e^ε − 1 − ε))`` as
        ``b e^ε = (ε − 1 + e^{−ε}) / (2 (1 − (1 + ε) e^{−ε}))`` keeps
        every intermediate finite for arbitrarily large ε (the limit is
        ``(ε − 1)/2``), which matters because the paper sweeps Square
        wave budgets up to 5000 and ``exp(ε)`` overflows past ε ≈ 709.
        """
        eps = validate_epsilon(epsilon)
        decay = math.exp(-eps)
        return (eps - 1.0 + decay) / (2.0 * (1.0 - (1.0 + eps) * decay))

    @classmethod
    def half_width(cls, epsilon: float) -> float:
        """Return the near-band half width ``b(ε)`` (→ 1/2 as ε → 0)."""
        eps = validate_epsilon(epsilon)
        # b = (b e^ε) · e^{−ε}; underflows gracefully to 0 for huge ε.
        return cls._b_exp(eps) * math.exp(-eps)

    def perturb(
        self, values: np.ndarray, epsilon: float, rng: RngLike = None
    ) -> np.ndarray:
        eps = validate_epsilon(epsilon)
        arr = validated_copy(values, self.input_domain)
        gen = ensure_rng(rng)
        b = self.half_width(eps)
        b_exp = self._b_exp(eps)
        prob_center = 2.0 * b_exp / (2.0 * b_exp + 1.0)

        # In place, each expression's operands in the same order (up to
        # swapping those of a sum or product, and −c + x as x − c), so
        # every entry rounds exactly as the np.where reference kernel in
        # tests/reference_kernels.py.
        center_draw = gen.random(arr.shape)
        in_center = center_draw < prob_center
        gen.random(out=center_draw)
        # Tail: uniform over [−b, t−b) ∪ (t+b, 1+b], total length exactly 1.
        tail_position = gen.random(arr.shape)
        in_left_tail = tail_position < arr
        # Near band: (t − b) + u · 2 · b.
        center_draw *= 2.0
        center_draw *= b
        arr -= b
        center_draw += arr
        right_tail = np.add(tail_position, b, out=arr)
        tail_position -= b
        tail_draw = select(in_left_tail, tail_position, right_tail, out=tail_position)
        return select(in_center, center_draw, tail_draw, out=center_draw)

    def conditional_bias(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        """Paper Eq. 17: data-dependent bias of the raw output.

        Evaluated via ``b e^ε`` so large budgets don't overflow:
        ``2b(e^ε − 1) = 2(b e^ε − b)``.
        """
        eps = validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        b = self.half_width(eps)
        b_exp = self._b_exp(eps)
        denom = 2.0 * b_exp + 1.0
        return (
            2.0 * (b_exp - b) * arr / denom
            + (1.0 + 2.0 * b) / (2.0 * denom)
            - arr
        )

    def conditional_variance(self, values: np.ndarray, epsilon: float) -> np.ndarray:
        """Paper Eq. 18: conditional variance of the raw output."""
        eps = validate_epsilon(epsilon)
        arr = np.asarray(values, dtype=np.float64)
        b = self.half_width(eps)
        denom = 2.0 * self._b_exp(eps) + 1.0
        delta = self.conditional_bias(arr, eps)
        return (
            b**2 / 3.0
            + (2.0 * b + 1.0) * (b + 1.0 - 3.0 * arr**2) / (3.0 * denom)
            - delta**2
            - 2.0 * delta * arr
        )

    def pdf(self, outputs: np.ndarray, values: np.ndarray, epsilon: float) -> np.ndarray:
        """Density ``Pr(t* | t)`` evaluated elementwise (paper Eq. 5).

        The in-band density ``e^ε / (2b e^ε + 1)`` is computed from
        ``b e^ε``; it overflows only when the density itself is genuinely
        unrepresentable (a near-point-mass at huge ε).
        """
        eps = validate_epsilon(epsilon)
        out = np.asarray(outputs, dtype=np.float64)
        arr = np.asarray(values, dtype=np.float64)
        b = self.half_width(eps)
        b_exp = self._b_exp(eps)
        denom = 2.0 * b_exp + 1.0
        in_band = b_exp / denom / b if b > 0 else math.inf
        density = select(np.abs(out - arr) < b, in_band, 1.0 / denom)
        inside = (out >= -b) & (out <= 1.0 + b)
        return select(inside, density, 0.0, out=density)

    def output_support(self, epsilon: float) -> Tuple[float, float]:
        b = self.half_width(epsilon)
        return (-b, 1.0 + b)


def standardized(domain: Tuple[float, float] = STANDARD_DOMAIN) -> Mechanism:
    """Return a square-wave mechanism accepting values in ``domain``.

    The native unit-interval mechanism is wrapped in an affine change of
    variables so it composes with the rest of the library, which assumes
    the standard ``[−1, 1]`` domain.
    """
    wrapped = AffineTransformedMechanism(SquareWaveMechanism(), domain)
    wrapped.name = "square_wave"
    return wrapped
