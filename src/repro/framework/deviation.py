"""Per-dimension Gaussian deviation models (Lemmas 2 and 3).

The heart of the paper's analytical framework: for one dimension with ``r``
reports, the deviation between the aggregated estimate and the true mean is
asymptotically Gaussian,

* ``Bound(M) = 0`` (Lemma 2):  ``θ̂ − θ̄ ~ N(E[N], Var[N] / r)`` — the
  population plays no role because additive noise has value-independent
  moments;
* ``Bound(M) = 1`` (Lemma 3):  ``θ̂ − θ̄ ~ N(E_t[δ(t)], E_t[Var(t*|t)] / r)``
  — the moments are averaged over the population value distribution.

:func:`build_deviation_model` dispatches on the mechanism's ``bounded``
flag and returns a :class:`DeviationModel`, which knows its pdf/cdf, the
probability of staying inside a supremum ``ξ`` (the Table II quantity), and
high-confidence envelopes ``|δ| + z·σ`` used by HDR4ME's λ* selection.

The model needs only the standard normal cdf and its inverse, so it calls
``scipy.special.ndtr``/``ndtri`` — the functions ``scipy.stats.norm``
reduces to, with the same bits — and never loads ``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from ..exceptions import DistributionError, ParameterError
from ..mechanisms.base import Mechanism, validate_epsilon
from .population import ValueDistribution


def envelope_quantile(confidence: float) -> float:
    """Two-sided Gaussian quantile ``z`` with ``P(|Z| ≤ z) = confidence``."""
    if not 0.0 < confidence < 1.0:
        raise ParameterError("confidence must lie in (0, 1), got %g" % confidence)
    return ndtri(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class DeviationModel:
    """Gaussian model ``θ̂_j − θ̄_j ~ N(delta, sigma²)`` for one dimension.

    Attributes
    ----------
    delta:
        Mean of the deviation (the aggregate bias ``E_t[δ(t)]``; zero for
        unbiased mechanisms).
    sigma:
        Standard deviation of the deviation (``√(E_t[Var(t*|t)] / r)``).
    reports:
        Number of reports ``r`` the model was built for.
    epsilon:
        Per-dimension privacy budget used.
    mechanism_name:
        Registry name of the mechanism, for display purposes.
    """

    delta: float
    sigma: float
    reports: int
    epsilon: float
    mechanism_name: str = "unknown"

    def __post_init__(self) -> None:
        if self.sigma <= 0.0 or not math.isfinite(self.sigma):
            raise DistributionError("sigma must be positive, got %g" % self.sigma)
        if not math.isfinite(self.delta):
            raise DistributionError("delta must be finite, got %g" % self.delta)

    # -------------------------------------------------------------- density

    def pdf(self, deviation: np.ndarray) -> np.ndarray:
        """Gaussian density of the deviation (Lemma 2 / Lemma 3 form)."""
        x = np.asarray(deviation, dtype=np.float64)
        z = (x - self.delta) / self.sigma
        return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * self.sigma)

    def cdf(self, deviation: np.ndarray) -> np.ndarray:
        """Gaussian cdf of the deviation."""
        x = np.asarray(deviation, dtype=np.float64)
        return ndtr((x - self.delta) / self.sigma)

    def interval_probability(self, low: float, high: float) -> float:
        """``P(low ≤ θ̂ − θ̄ ≤ high)``."""
        if high < low:
            raise ParameterError("empty interval: [%g, %g]" % (low, high))
        return float(self.cdf(np.float64(high)) - self.cdf(np.float64(low)))

    def supremum_probability(self, xi: float) -> float:
        """``P(|θ̂ − θ̄| ≤ ξ)`` — the per-dimension Table II quantity."""
        if xi < 0:
            raise ParameterError("supremum must be non-negative, got %g" % xi)
        return self.interval_probability(-xi, xi)

    def exceedance_probability(self, threshold: float) -> float:
        """``P(|θ̂ − θ̄| > threshold)`` (Lemma 4/5 threshold events)."""
        return 1.0 - self.supremum_probability(threshold)

    def envelope(self, confidence: float = 0.9973) -> float:
        """High-confidence bound on ``|θ̂ − θ̄|`` used as the "sup".

        Returns ``|δ| + z·σ`` where ``z`` is the two-sided Gaussian
        quantile for ``confidence`` (default ≈ 3σ). This is the practical
        reading of the paper's ``sup|θ̂_j − θ̄_j|``, which is infinite for
        a literal Gaussian.
        """
        return abs(self.delta) + envelope_quantile(confidence) * self.sigma

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw deviations from the Gaussian model (for simulation studies)."""
        return rng.normal(self.delta, self.sigma, size=size)


def build_deviation_model(
    mechanism: Mechanism,
    epsilon: float,
    reports: int,
    population: Optional[ValueDistribution] = None,
) -> DeviationModel:
    """Build the Lemma 2 / Lemma 3 deviation model for one dimension.

    Parameters
    ----------
    mechanism:
        The LDP mechanism in use.
    epsilon:
        *Per-dimension* privacy budget (``ε/m`` in the paper).
    reports:
        Expected number of reports ``r = n·m/d`` in this dimension.
    population:
        Distribution of original values; required when the mechanism is
        bounded (Lemma 3), ignored for unbounded mechanisms (Lemma 2).

    Returns
    -------
    DeviationModel
        The asymptotic Gaussian ``N(E[δ], E[Var]/r)``.
    """
    eps = validate_epsilon(epsilon)
    if reports < 1:
        raise ParameterError("reports must be >= 1, got %d" % reports)

    if mechanism.bounded:
        if population is None:
            raise DistributionError(
                "mechanism %r is bounded: Lemma 3 needs the population value "
                "distribution" % mechanism.name
            )
        delta = population.expect(lambda v: mechanism.conditional_bias(v, eps))
        variance = population.expect(
            lambda v: mechanism.conditional_variance(v, eps)
        )
    else:
        # Lemma 2: moments are value-independent; probe at mid-domain.
        lo, hi = mechanism.input_domain
        probe = np.array([0.5 * (lo + hi)])
        delta = float(mechanism.conditional_bias(probe, eps)[0])
        variance = float(mechanism.conditional_variance(probe, eps)[0])

    return DeviationModel(
        delta=float(delta),
        sigma=math.sqrt(variance / reports),
        reports=int(reports),
        epsilon=eps,
        mechanism_name=mechanism.name,
    )
