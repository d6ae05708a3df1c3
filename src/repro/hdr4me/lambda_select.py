"""Regularization-weight (λ*) selection for HDR4ME (Lemmas 4 and 5).

The paper prescribes

* L1:  ``λ*_j = sup |θ̂_j − θ̄_j|``  (Lemma 4),
* L2:  ``λ*_j = sup (θ̂_j − θ̄_j) / (2 θ̄_j)``  (Lemma 5),

with "``θ̂_j − θ̄_j`` obtained from Lemma 2 or Lemma 3" — i.e. from the
analytical framework, not from the data. A literal supremum of a Gaussian
is infinite, so the practical reading (which the paper's experiments
implicitly use) is a high-confidence envelope of the deviation. This
module turns the framework's :class:`DeviationModel` into concrete λ*
vectors:

* :func:`l1_lambda` returns ``|δ_j| + z·σ_j`` per dimension, where ``z``
  is the two-sided Gaussian quantile of ``confidence`` (default ≈ 3σ).
* :func:`l2_lambda` divides the same envelope by ``2·max(|θ̄_j|, floor)``.
  The true mean ``θ̄_j`` is unknown at the collector, so a reference must
  be supplied: either an explicit prior (``reference_mean``) or the
  domain-clipped estimate itself (the plug-in default). The ``floor``
  prevents division blow-up for near-zero means — exactly the regime where
  the paper observes L2 weights "become so large that each entry of the
  enhanced mean is nearly zero", so large λ there is faithful behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..exceptions import CalibrationError
from ..framework.deviation import DeviationModel
from ..framework.multivariate import MultivariateDeviationModel

ModelLike = Union[MultivariateDeviationModel, Sequence[DeviationModel]]

#: Default two-sided confidence for the "sup" envelope (the 3σ rule).
DEFAULT_CONFIDENCE = 0.9973

#: Default floor on |θ̄_j| in the L2 weight denominator.
DEFAULT_FLOOR = 0.05


def deviation_envelopes(
    model: ModelLike, confidence: float = DEFAULT_CONFIDENCE
) -> np.ndarray:
    """Per-dimension high-confidence envelopes of ``|θ̂_j − θ̄_j|``."""
    if not isinstance(model, MultivariateDeviationModel):
        models = list(model)
        if not models:
            return np.array([])
        model = MultivariateDeviationModel(models)
    return model.envelopes(confidence)


def l1_lambda(
    model: ModelLike, confidence: float = DEFAULT_CONFIDENCE
) -> np.ndarray:
    """Lemma 4 weights: the deviation envelope itself."""
    return deviation_envelopes(model, confidence)


def l2_lambda(
    model: ModelLike,
    theta_hat: Optional[np.ndarray] = None,
    reference_mean: Optional[np.ndarray] = None,
    confidence: float = DEFAULT_CONFIDENCE,
    floor: float = DEFAULT_FLOOR,
    domain: tuple = (-1.0, 1.0),
) -> np.ndarray:
    """Lemma 5 weights: envelope over twice the (proxied) true mean.

    Parameters
    ----------
    model:
        Framework deviation model(s), one per dimension.
    theta_hat:
        The estimated mean; used to build the plug-in reference when no
        explicit ``reference_mean`` is given.
    reference_mean:
        Optional prior for ``θ̄`` (e.g. from a public dataset).
    confidence:
        Envelope confidence (see :func:`deviation_envelopes`).
    floor:
        Lower bound on ``|θ̄_j|`` in the denominator.
    domain:
        Value domain used to clip the plug-in reference.
    """
    if floor <= 0:
        raise CalibrationError("floor must be positive, got %g" % floor)
    envelopes = deviation_envelopes(model, confidence)
    if reference_mean is not None:
        reference = np.abs(np.asarray(reference_mean, dtype=np.float64).ravel())
    elif theta_hat is not None:
        lo, hi = domain
        reference = np.abs(
            np.clip(np.asarray(theta_hat, dtype=np.float64).ravel(), lo, hi)
        )
    else:
        reference = np.zeros_like(envelopes)
    if reference.size != envelopes.size:
        raise CalibrationError(
            "reference has %d entries for %d dimensions"
            % (reference.size, envelopes.size)
        )
    return envelopes / (2.0 * np.maximum(reference, floor))


@dataclass(frozen=True)
class ImprovementGuarantee:
    """Theorem 3 / Theorem 4 probability statement for a model.

    Attributes
    ----------
    norm:
        ``"l1"`` or ``"l2"``.
    threshold:
        The per-dimension deviation magnitude that must be exceeded for the
        Lemma 4/5 improvement argument to apply (1 for L1, 2 for L2).
    paper_bound:
        The paper's ``1 − ∫_S f`` quantity (probability at least one
        dimension exceeds the threshold).
    all_dims_probability:
        Exact probability (under independence) that *every* dimension
        exceeds the threshold — the event in which the per-dimension
        improvement holds simultaneously everywhere.
    """

    norm: str
    threshold: float
    paper_bound: float
    all_dims_probability: float


def improvement_guarantee(
    model: MultivariateDeviationModel, norm: str
) -> ImprovementGuarantee:
    """Evaluate the Theorem 3/4 probability bound for ``model``."""
    key = norm.lower()
    if key == "l1":
        threshold = 1.0
    elif key == "l2":
        threshold = 2.0
    else:
        raise CalibrationError("norm must be 'l1' or 'l2', got %r" % norm)
    return ImprovementGuarantee(
        norm=key,
        threshold=threshold,
        paper_bound=model.any_outside_probability(threshold),
        all_dims_probability=model.all_outside_probability(threshold),
    )
