"""Optimized local hashing (OLH).

Each user draws a random hash seed, hashes her category into
``g = ⌈e^ε⌉ + 1`` buckets, and runs GRR over the *buckets* with
``p = e^ε / (e^ε + g − 1)``. The collector counts, for each candidate
category ``j``, how many users' reported bucket equals ``H(seed, j)``;
the unbiased estimator is ``f̂ = (c/n − 1/g) / (p − 1/g)``.

OLH matches OUE's variance ``4 e^ε / (n (e^ε − 1)²)`` while keeping the
report a single integer — the standard choice for very large domains.
Hashing uses a 2-universal multiply-shift family over a Mersenne prime,
vectorized over users × categories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence, Tuple

import numpy as np

from ..exceptions import DimensionError, DomainError
from ..mechanisms.base import select
from ..rng import RngLike
from .base import FrequencyOracle

#: Seed range for the per-user hash keys.
_PRIME = (1 << 61) - 1

_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xBF58476D1CE4E5B9)
_MIX3 = np.uint64(0x94D049BB133111EB)


def _hash_buckets(seeds: np.ndarray, items: np.ndarray, buckets: int) -> np.ndarray:
    """Keyed hash ``H(seed, item) -> [0, buckets)``, vectorized.

    A splitmix64-style finalizer keyed by the per-user ``(a, b)`` seed
    pair. Full avalanche matters here: a plain linear map ``(a·x + b)
    mod g`` degenerates when ``g`` shares factors with the item spacing
    (e.g. ``g`` a power of two collides every even pair with probability
    1/2), which inflates OLH's support counts and biases the estimator —
    the exact failure mode the mixing rounds below prevent.
    """
    a = seeds[..., 0].astype(np.uint64)
    b = seeds[..., 1].astype(np.uint64)
    with np.errstate(over="ignore"):
        z = a * _MIX1 + b + items.astype(np.uint64) * _MIX2
        z ^= z >> np.uint64(30)
        z *= _MIX2
        z ^= z >> np.uint64(27)
        z *= _MIX3
        z ^= z >> np.uint64(31)
    return (z % np.uint64(buckets)).astype(np.int64)


@dataclass(frozen=True)
class OlhReports:
    """Reports of an OLH round: per-user hash seeds and GRR'd buckets."""

    seeds: np.ndarray
    buckets: np.ndarray


class OptimizedLocalHashing(FrequencyOracle):
    """ε-LDP optimized local hashing over ``v`` categories."""

    name = "olh"

    def __init__(self, epsilon: float, n_categories: int) -> None:
        super().__init__(epsilon, n_categories)
        self.n_buckets = int(math.floor(math.exp(self.epsilon))) + 1

    @property
    def p_true(self) -> float:
        """GRR keep-probability over the hash buckets."""
        e_eps = math.exp(self.epsilon)
        return e_eps / (e_eps + self.n_buckets - 1.0)

    def privatize(self, labels: np.ndarray, rng: RngLike = None) -> OlhReports:
        """Return per-user ``(seed, bucket)`` reports."""
        arr = self._check_labels(labels)
        gen = self._rng(rng)
        seeds = np.column_stack(
            [
                gen.integers(1, 1 << 30, size=arr.size),
                gen.integers(0, _PRIME, size=arr.size),
            ]
        )
        true_buckets = _hash_buckets(seeds, arr, self.n_buckets)
        keep = gen.random(arr.size) < self.p_true
        lie = gen.integers(1, self.n_buckets, size=arr.size)
        lie += true_buckets
        lie %= self.n_buckets
        buckets = select(keep, true_buckets, lie, out=true_buckets)
        return OlhReports(seeds=seeds, buckets=buckets)

    def check_reports(self, reports: Any, where: str) -> OlhReports:
        """``reports`` as int64 ``(n, 2)`` seeds and ``(n,)`` buckets.

        Refuses another container, a non-integer dtype and disagreeing
        shapes with ``DimensionError``, and buckets outside ``[0, g)``
        with ``DomainError``.
        """
        if not isinstance(reports, OlhReports):
            raise DimensionError("%s: expected OlhReports" % where)
        seeds = np.asarray(reports.seeds)
        buckets = np.asarray(reports.buckets)
        if seeds.dtype.kind not in "iu" or buckets.dtype.kind not in "iu":
            raise DimensionError(
                "%s: seeds/buckets must be integers, got %s/%s"
                % (where, seeds.dtype, buckets.dtype)
            )
        seeds = seeds.astype(np.int64)
        buckets = buckets.astype(np.int64)
        if (
            seeds.ndim != 2
            or seeds.shape[1] != 2
            or buckets.ndim != 1
            or seeds.shape[0] != buckets.size
        ):
            raise DimensionError(
                "%s: shapes disagree: seeds %s, buckets %s"
                % (where, seeds.shape, buckets.shape)
            )
        if buckets.size and (buckets.min() < 0 or buckets.max() >= self.n_buckets):
            raise DomainError(
                "%s: buckets must lie in [0, %d)" % (where, self.n_buckets)
            )
        return OlhReports(seeds=seeds, buckets=buckets)

    def support_counts(self, canonical: OlhReports, chunk: int = 4096) -> np.ndarray:
        """Per-category support counts ``Σ_i 1[H(seed_i, j) = bucket_i]``.

        The additive aggregation statistic of OLH: exact integers, so
        partial counts from report batches sum to the one-shot counts.
        """
        users = canonical.buckets.size
        supports = np.zeros(self.n_categories, dtype=np.int64)
        categories = np.arange(self.n_categories, dtype=np.int64)
        for start in range(0, users, chunk):
            seeds = canonical.seeds[start : start + chunk]
            observed = canonical.buckets[start : start + chunk, None]
            # Broadcast seeds (k, 1, 2) against categories (1, v): the
            # hash evaluates elementwise over the (k, v) grid with the
            # identical uint64 arithmetic the flat repeat/tile layout
            # used, but without materializing k*v copies of the seed
            # and category vectors first.
            hashed = _hash_buckets(
                seeds[:, None, :], categories[None, :], self.n_buckets
            )
            supports += (hashed == observed).sum(axis=0)
        return supports

    def report_rows(self, canonical: OlhReports) -> int:
        return int(canonical.buckets.size)

    def concat_reports(self, reports: Sequence[OlhReports]) -> OlhReports:
        return OlhReports(
            seeds=np.concatenate([r.seeds for r in reports], axis=0),
            buckets=np.concatenate([r.buckets for r in reports], axis=0),
        )

    @property
    def support_probabilities(self) -> Tuple[float, float]:
        return self.p_true, 1.0 / self.n_buckets
