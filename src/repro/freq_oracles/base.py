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
* :meth:`check_reports` and :meth:`support_counts` — collector-side: the
  oracle is the only owner of its report format, so it both refuses
  malformed reports (with a typed :class:`~repro.exceptions.ReproError`)
  and reduces canonical ones to its integer support counts (label
  counts, bit-column sums or hash-support counts); :meth:`tally`
  composes the two, and the session's one
  :class:`~repro.session.adapters.OracleCollector` calls them on every
  payload;
* :meth:`frequencies` — the unbiased estimator ``f̂ = (c/n − q) / (p − q)``
  every oracle shares, from counts and a user count; :meth:`estimate`
  composes it with :meth:`tally`, and the oracle collector calls it on
  its folded counts;
* :meth:`estimation_variance` — the closed-form variance of one
  category's estimate, which is exactly what the paper's framework needs
  to build the Lemma-2-style Gaussian deviation model (the estimators
  are unbiased sums of i.i.d. per-user contributions);
* :meth:`deviation_model` — that Gaussian, ready for HDR4ME.

Each oracle supplies :meth:`privatize`, :meth:`check_reports`,
:meth:`support_counts` and its :attr:`support_probabilities` ``(p, q)``;
array reports need nothing more, and OLH's seed/bucket pairs also
override :meth:`report_rows` and :meth:`concat_reports`.
"""

from __future__ import annotations

import abc
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DimensionError, DomainError
from ..framework.deviation import DeviationModel
from ..framework.multivariate import MultivariateDeviationModel
from ..mechanisms.base import validate_epsilon
from ..rng import RngLike, ensure_rng


def _check_users(users: int) -> None:
    if users < 1:
        raise DimensionError("users must be >= 1, got %d" % users)


def check_labels(
    labels: Any, n_categories: int, where: str = "labels"
) -> np.ndarray:
    """``labels`` as an int64 copy of category labels in ``[0, n_categories)``.

    Refuses anything but a one-dimensional array with ``DimensionError``.
    Schema-validated label columns are float64, so integral floats pass;
    fractions, NaN and labels out of range raise ``DomainError`` rather
    than being truncated or wrapped. ``where`` names the labels in both
    messages.
    """
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise DimensionError("%s must be one-dimensional" % where)
    if arr.dtype.kind not in "biu" and (
        arr.dtype.kind != "f" or np.any(arr != np.trunc(arr))
    ):
        raise DomainError("%s must be finite integers" % where)
    if arr.size and (arr.min() < 0 or arr.max() >= n_categories):
        raise DomainError("%s must lie in [0, %d)" % (where, n_categories))
    return arr.astype(np.int64)


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
    def check_reports(self, reports: Any, where: str) -> Any:
        """Validate reports; return their canonical form.

        Raises :class:`DimensionError` for a malformed shape or container
        and :class:`DomainError` for entries outside the report alphabet;
        ``where`` prefixes both messages. Empty reports pass.
        """

    @abc.abstractmethod
    def support_counts(self, canonical: Any) -> np.ndarray:
        """Exact int64 per-category support counts of canonical reports."""

    def report_rows(self, canonical: Any) -> int:
        """Number of users canonical reports carry."""
        return int(np.asarray(canonical).shape[0])

    def concat_reports(self, reports: Sequence[Any]) -> Any:
        """Concatenate reports of several batches into one."""
        return np.concatenate([np.asarray(r) for r in reports], axis=0)

    def tally(self, reports: Any) -> Tuple[np.ndarray, int]:
        """Validate reports; return per-category support counts and users."""
        canonical = self.check_reports(reports, "%s reports" % self.name.upper())
        return self.support_counts(canonical), self.report_rows(canonical)

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
        arr = check_labels(labels, self.n_categories)
        if arr.size == 0:
            raise DimensionError("labels must be non-empty")
        return arr

    def _rng(self, rng: RngLike) -> np.random.Generator:
        return ensure_rng(rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(epsilon=%g, v=%d)" % (
            type(self).__name__,
            self.epsilon,
            self.n_categories,
        )
