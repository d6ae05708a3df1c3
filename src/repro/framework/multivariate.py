"""The multivariate deviation model of Theorem 1.

Because each dimension is perturbed independently, the joint pdf of the
``d``-dimensional deviation ``θ̂ − θ̄`` factorizes into the per-dimension
Gaussians of Lemmas 2/3 (paper Eq. 12). :class:`MultivariateDeviationModel`
wraps a list of :class:`~repro.framework.deviation.DeviationModel` and
exposes the quantities the paper derives from the joint pdf:

* the pdf / log-pdf itself;
* the probability of the deviation staying inside a supremum box ``S``
  (used to benchmark mechanisms, Section IV-B end);
* the probability bounds that parameterize Theorems 3 and 4 (how likely
  every dimension's deviation exceeds the L1/L2 improvement thresholds);
* the high-confidence envelopes HDR4ME reads its λ* from.

Every quantity is evaluated over the cached ``δ``/``σ`` vectors in one
array pass, with the same floating-point operations per dimension as the
scalar :class:`DeviationModel` methods, so results are bit-identical to
the per-dimension formulas at O(d) vector cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from ..exceptions import DimensionError, ParameterError
from ..mechanisms.base import Mechanism
from .deviation import DeviationModel, build_deviation_model, envelope_quantile
from .normal import ndtr
from .population import ValueDistribution

Suprema = Union[float, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class MultivariateDeviationModel:
    """Product-form Gaussian model of the ``d``-dimensional deviation."""

    dimensions: List[DeviationModel]
    _deltas: np.ndarray = field(init=False, repr=False, compare=False)
    _sigmas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dims = list(self.dimensions)
        if not dims:
            raise DimensionError("need at least one dimension")
        deltas = np.array([m.delta for m in dims], dtype=np.float64)
        sigmas = np.array([m.sigma for m in dims], dtype=np.float64)
        deltas.flags.writeable = False
        sigmas.flags.writeable = False
        object.__setattr__(self, "dimensions", dims)
        object.__setattr__(self, "_deltas", deltas)
        object.__setattr__(self, "_sigmas", sigmas)

    # ------------------------------------------------------------ properties

    @property
    def ndim(self) -> int:
        """Number of modelled dimensions ``d``."""
        return len(self.dimensions)

    @property
    def deltas(self) -> np.ndarray:
        """Vector of per-dimension deviation means ``δ_j`` (read-only)."""
        return self._deltas

    @property
    def sigmas(self) -> np.ndarray:
        """Vector of per-dimension deviation standard deviations ``σ_j`` (read-only)."""
        return self._sigmas

    def envelopes(self, confidence: float) -> np.ndarray:
        """Every dimension's :meth:`DeviationModel.envelope`: ``|δ_j| + z·σ_j``."""
        return np.abs(self._deltas) + envelope_quantile(confidence) * self._sigmas

    # --------------------------------------------------------------- density

    def logpdf(self, deviation: np.ndarray) -> float:
        """Log of the Theorem 1 joint pdf at a deviation vector."""
        dev = self._check_vector(deviation)
        z = (dev - self.deltas) / self.sigmas
        return float(
            -0.5 * np.sum(z * z)
            - np.sum(np.log(self.sigmas))
            - 0.5 * self.ndim * math.log(2.0 * math.pi)
        )

    def pdf(self, deviation: np.ndarray) -> float:
        """Theorem 1 joint pdf (Eq. 12) at a deviation vector."""
        return math.exp(self.logpdf(deviation))

    # ---------------------------------------------------------- probabilities

    def box_probability(self, suprema: Suprema) -> float:
        """``P(∀j: |θ̂_j − θ̄_j| ≤ ξ_j)`` — the integral of Eq. 12 over S.

        ``suprema`` may be a scalar (the same ξ in every dimension) or a
        length-``d`` vector. Independence turns the box integral into a
        product of one-dimensional Gaussian probabilities, so the result
        is exact rather than a numeric cubature.
        """
        return _product(self._inside_probabilities(suprema))

    def any_outside_probability(self, suprema: Suprema) -> float:
        """``P(∃j: |θ̂_j − θ̄_j| > ξ_j) = 1 − box_probability``.

        This is the paper's ``1 − ∫_S f`` lower bound that parameterizes
        Theorems 3 and 4.
        """
        return 1.0 - self.box_probability(suprema)

    def all_outside_probability(self, suprema: Suprema) -> float:
        """``P(∀j: |θ̂_j − θ̄_j| > ξ_j)`` under independence.

        The exact probability of *every* dimension exceeding its threshold
        (the event under which Lemmas 4/5 guarantee improvement in every
        dimension simultaneously); tighter than the paper's ``1 − ∫_S f``
        statement, which we also expose as
        :meth:`any_outside_probability`.
        """
        return _product(1.0 - self._inside_probabilities(suprema))

    def expected_squared_l2(self) -> float:
        """``E‖θ̂ − θ̄‖₂² = Σ_j (δ_j² + σ_j²)`` — predicts ``d·MSE``."""
        return float(np.sum(self.deltas**2 + self.sigmas**2))

    def predicted_mse(self) -> float:
        """Framework prediction of the experimental MSE (Eq. 3)."""
        return self.expected_squared_l2() / self.ndim

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` deviation vectors, shape ``(size, d)``."""
        return rng.normal(
            self.deltas[None, :], self.sigmas[None, :], size=(size, self.ndim)
        )

    # -------------------------------------------------------------- helpers

    def _check_vector(self, deviation: np.ndarray) -> np.ndarray:
        dev = np.asarray(deviation, dtype=np.float64).ravel()
        if dev.size != self.ndim:
            raise DimensionError(
                "deviation vector has %d entries, model has %d dimensions"
                % (dev.size, self.ndim)
            )
        return dev

    def _inside_probabilities(self, suprema: Suprema) -> np.ndarray:
        """Every dimension's :meth:`DeviationModel.supremum_probability`."""
        xi = self._broadcast_suprema(suprema)
        return ndtr((xi - self._deltas) / self._sigmas) - ndtr(
            (-xi - self._deltas) / self._sigmas
        )

    def _broadcast_suprema(self, suprema: Suprema) -> np.ndarray:
        xi = np.asarray(suprema, dtype=np.float64).ravel()
        if xi.size == 1:
            xi = np.full(self.ndim, float(xi[0]))
        if xi.size != self.ndim:
            raise DimensionError(
                "suprema vector has %d entries, model has %d dimensions"
                % (xi.size, self.ndim)
            )
        if np.any(np.isnan(xi)):
            raise ParameterError("suprema must not be NaN")
        if np.any(xi < 0):
            raise ParameterError("suprema must be non-negative")
        return xi


def _product(probabilities: np.ndarray) -> float:
    """``∏ p_j`` accumulated in log space, in order; ``0.0`` once any ``p_j ≤ 0``."""
    log_total = 0.0
    for p in probabilities.tolist():
        if p <= 0.0:
            return 0.0
        log_total += math.log(p)
    return math.exp(log_total)


def build_multivariate_model(
    mechanism: Mechanism,
    epsilon_per_dim: float,
    reports: int,
    populations: Union[ValueDistribution, Sequence[ValueDistribution], None],
    ndim: Optional[int] = None,
) -> MultivariateDeviationModel:
    """Assemble the Theorem 1 model from per-dimension ingredients.

    Parameters
    ----------
    mechanism:
        The LDP mechanism under analysis.
    epsilon_per_dim:
        Budget allocated to each reported dimension (``ε/m``).
    reports:
        Expected reports per dimension (``n·m/d``).
    populations:
        One :class:`ValueDistribution` shared by every dimension, a
        sequence with one distribution per dimension, or ``None`` for
        unbounded mechanisms.
    ndim:
        Number of dimensions; required when ``populations`` is shared or
        ``None``, inferred from the sequence length otherwise.
    """
    if isinstance(populations, ValueDistribution) or populations is None:
        if ndim is None:
            raise DimensionError("ndim is required with a shared population")
        if ndim < 1:
            raise DimensionError("need at least one dimension")
        # identical inputs give an identical model: build it once
        shared = build_deviation_model(mechanism, epsilon_per_dim, reports, populations)
        return MultivariateDeviationModel([shared] * int(ndim))
    per_dim = list(populations)
    if ndim is not None and ndim != len(per_dim):
        raise DimensionError(
            "ndim=%d disagrees with %d populations" % (ndim, len(per_dim))
        )
    models = [
        build_deviation_model(mechanism, epsilon_per_dim, reports, pop)
        for pop in per_dim
    ]
    return MultivariateDeviationModel(models)
