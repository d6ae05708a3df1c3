"""Frequency-oracle interface (Wang et al., USENIX Security 2017).

The paper's Section V-C reduces frequency estimation to mean estimation
via histogram encoding, citing Wang et al.'s protocol family. This
subpackage implements the three canonical *frequency oracles* from that
family — generalized randomized response (GRR), optimized unary encoding
(OUE) and optimized local hashing (OLH) — so the re-calibration protocol
can be compared against, and composed with, purpose-built categorical
mechanisms rather than only the generic numeric route.

A :class:`FrequencyOracle` exposes:

* :meth:`privatize` — user-side: perturb integer category labels into
  whatever report type the oracle uses;
* :meth:`tally` — collector-side: validate reports and reduce them to the
  oracle's support counts (label counts, bit-column sums or
  hash-support counts) and the number of users;
* :meth:`frequencies` — the unbiased estimator ``f̂ = (c/n − q) / (p − q)``
  every oracle shares, from counts and a user count; :meth:`estimate`
  composes it with :meth:`tally`, and the session's oracle collectors
  call it on their folded counts;
* :meth:`estimation_variance` — the closed-form variance of one
  category's estimate, which is exactly what the paper's framework needs
  to build the Lemma-2-style Gaussian deviation model (the estimators
  are unbiased sums of i.i.d. per-user contributions);
* :meth:`deviation_model` — that Gaussian, ready for HDR4ME.

Each oracle supplies only :meth:`privatize`, :meth:`tally` and its
:attr:`support_probabilities` ``(p, q)``.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from ..exceptions import DimensionError, DomainError
from ..framework.deviation import DeviationModel
from ..framework.multivariate import MultivariateDeviationModel
from ..mechanisms.base import validate_epsilon
from ..rng import RngLike, ensure_rng


def _check_users(users: int) -> None:
    if users < 1:
        raise DimensionError("users must be >= 1, got %d" % users)


class FrequencyOracle(abc.ABC):
    """Abstract ε-LDP frequency oracle over ``v`` categories."""

    #: Registry-style short name ("grr" / "oue" / "olh").
    name: str = "abstract"

    def __init__(self, epsilon: float, n_categories: int) -> None:
        self.epsilon = validate_epsilon(epsilon)
        if n_categories < 2:
            raise DimensionError(
                "need at least two categories, got %d" % n_categories
            )
        self.n_categories = int(n_categories)

    # ------------------------------------------------------------------ API

    @abc.abstractmethod
    def privatize(self, labels: np.ndarray, rng: RngLike = None):
        """Perturb integer labels into the oracle's report representation."""

    @property
    @abc.abstractmethod
    def support_probabilities(self) -> Tuple[float, float]:
        """``(p, q)``: the chance that one user's report supports the user's
        own category (``p``) and one specific other category (``q``)."""

    @abc.abstractmethod
    def tally(self, reports) -> Tuple[np.ndarray, int]:
        """Validate reports; return per-category support counts and users."""

    def estimate(self, reports) -> np.ndarray:
        """Unbiased per-category frequency estimates from reports."""
        return self.frequencies(*self.tally(reports))

    def frequencies(self, counts: np.ndarray, users: int) -> np.ndarray:
        """Unbiased estimates ``f̂ = (c/n − q) / (p − q)`` from support counts.

        Each count is a sum of ``n`` i.i.d. Bernoulli draws whose success
        probability is ``f·p + (1 − f)·q``, so inverting that affine map
        is unbiased.
        """
        _check_users(users)
        p, q = self.support_probabilities
        return (counts / users - q) / (p - q)

    def estimation_variance(self, frequency: float, users: int) -> float:
        """``Var[f̂] = P(1 − P) / (n (p − q)²)``, ``P = f·p + (1 − f)·q``,
        with the plug-in ``f`` clipped to ``[0, 1]``."""
        _check_users(users)
        f = min(max(frequency, 0.0), 1.0)
        p, q = self.support_probabilities
        hit = f * p + (1.0 - f) * q
        return hit * (1.0 - hit) / (users * (p - q) ** 2)

    # ------------------------------------------------------------- framework

    def deviation_model(
        self, users: int, frequencies: Optional[np.ndarray] = None
    ) -> MultivariateDeviationModel:
        """Per-category Gaussian deviation model of the estimator.

        Frequency-oracle estimators are unbiased averages of i.i.d.
        per-user contributions, so the CLT argument of the paper's
        Lemma 2 applies verbatim with ``δ = 0`` and the closed-form
        estimation variance.
        """
        _check_users(users)
        if frequencies is None:
            frequencies = np.full(self.n_categories, 1.0 / self.n_categories)
        freq = np.clip(np.asarray(frequencies, dtype=np.float64), 0.0, 1.0)
        if freq.size != self.n_categories:
            raise DimensionError(
                "frequencies has %d entries for %d categories"
                % (freq.size, self.n_categories)
            )
        models = [
            DeviationModel(
                delta=0.0,
                sigma=float(np.sqrt(self.estimation_variance(f, users))),
                reports=int(users),
                epsilon=self.epsilon,
                mechanism_name=self.name,
            )
            for f in freq
        ]
        return MultivariateDeviationModel(models)

    # --------------------------------------------------------------- helpers

    def _check_labels(self, labels: np.ndarray) -> np.ndarray:
        arr = np.asarray(labels)
        if arr.ndim != 1:
            raise DimensionError("labels must be one-dimensional")
        if arr.size == 0:
            raise DimensionError("labels must be non-empty")
        # Schema-validated label columns are float64: accept integral
        # floats, but refuse fractions and NaN rather than truncate them.
        if arr.dtype.kind not in "biu" and (
            arr.dtype.kind != "f" or np.any(arr != np.trunc(arr))
        ):
            raise DomainError("labels must be finite integers")
        if arr.min() < 0 or arr.max() >= self.n_categories:
            raise DomainError(
                "labels must lie in [0, %d)" % self.n_categories
            )
        return arr.astype(np.int64)

    def _rng(self, rng: RngLike) -> np.random.Generator:
        return ensure_rng(rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(epsilon=%g, v=%d)" % (
            type(self).__name__,
            self.epsilon,
            self.n_categories,
        )
