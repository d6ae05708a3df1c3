"""Optimized unary encoding (OUE).

The user one-hot-encodes her category and perturbs each bit
independently: the 1-bit survives with ``p = 1/2``, each 0-bit flips to 1
with ``q = 1 / (e^ε + 1)`` — the split Wang et al. show minimizes
estimation variance among unary encodings. The per-category estimator is
``f̂ = (c/n − q) / (p − q)`` with variance
``P(1 − P) / (n (p − q)²)``, ``P = f·p + (1 − f)·q``, which approaches
the well-known ``4 e^ε / (n (e^ε − 1)²)`` at small ``f``.
"""

from __future__ import annotations

import math
from typing import Any, Tuple

import numpy as np

from ..exceptions import DimensionError, DomainError
from ..rng import RngLike
from .base import FrequencyOracle


class OptimizedUnaryEncoding(FrequencyOracle):
    """ε-LDP optimized unary encoding over ``v`` categories."""

    name = "oue"

    #: Survival probability of the true-category bit.
    p_keep = 0.5

    @property
    def p_flip(self) -> float:
        """Probability a zero bit reports as one."""
        return 1.0 / (math.exp(self.epsilon) + 1.0)

    def privatize(self, labels: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Return an ``(n, v)`` 0/1 report matrix."""
        arr = self._check_labels(labels)
        gen = self._rng(rng)
        noise = gen.random((arr.size, self.n_categories))
        reports = (noise < self.p_flip).astype(np.float64)
        rows = np.arange(arr.size)
        reports[rows, arr] = (gen.random(arr.size) < self.p_keep).astype(
            np.float64
        )
        return reports

    @property
    def support_probabilities(self) -> Tuple[float, float]:
        return self.p_keep, self.p_flip

    def check_reports(self, reports: Any, where: str) -> np.ndarray:
        """``reports`` as a float64 ``(n, v)`` matrix whose entries are bits.

        Refuses another shape with ``DimensionError`` and any entry that is
        not exactly 0 or 1 (NaN included) with ``DomainError``; ``where``
        prefixes both messages.
        """
        matrix = np.asarray(reports, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_categories:
            raise DimensionError(
                "%s: expected an (n, %d) bit matrix, got %s"
                % (where, self.n_categories, matrix.shape)
            )
        if matrix.size and not np.all((matrix == 0.0) | (matrix == 1.0)):
            raise DomainError("%s: entries must be 0/1 bits" % where)
        return matrix

    def support_counts(self, canonical: np.ndarray) -> np.ndarray:
        """Column sums of the bit matrix."""
        return np.rint(canonical.sum(axis=0)).astype(np.int64)
