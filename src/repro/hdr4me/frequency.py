"""High-dimensional re-calibration for frequency estimation (Section V-C).

Any categorical value can be histogram-encoded into a one-hot vector whose
entries live in ``[0, 1]``; the frequency of category ``c`` is then the
mean of the ``c``-th entry over the population. Perturbing each entry with
budget ``ε/2m`` guarantees collective ε-LDP regardless of the mechanism
(changing one's category flips exactly two entries), so a ``d``-dimensional
frequency estimation becomes ``d`` high-dimensional *mean* estimations —
and both the analytical framework and HDR4ME apply unchanged.

This module provides the encoding, the unit-domain adaptation of a
mechanism, and the standard post-processing (clip to ``[0, 1]``,
optionally renormalize the simplex). The estimator itself is the
session's :class:`~repro.session.adapters.HistogramMechanismCollector`:
a schema with a :class:`~repro.session.CategoricalAttribute` served by a
mechanism name runs this route end to end.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import DimensionError
from ..freq_oracles.base import check_labels
from ..mechanisms.base import AffineTransformedMechanism, Mechanism

#: Native domain of histogram-encoded entries.
UNIT_DOMAIN: Tuple[float, float] = (0.0, 1.0)


def one_hot_encode(categories: np.ndarray, n_categories: int) -> np.ndarray:
    """Histogram-encode integer categories into an ``(n, v)`` 0/1 matrix.

    Parameters
    ----------
    categories:
        Integer category labels in ``[0, n_categories)``, checked as the
        oracles check theirs (:func:`repro.freq_oracles.base.check_labels`).
    n_categories:
        Number of categories ``v``.
    """
    if n_categories < 2:
        raise DimensionError("need at least two categories, got %d" % n_categories)
    labels = check_labels(categories, n_categories, "category labels")
    encoded = np.zeros((labels.size, n_categories), dtype=np.float64)
    encoded[np.arange(labels.size), labels] = 1.0
    return encoded


def true_frequencies(categories: np.ndarray, n_categories: int) -> np.ndarray:
    """Exact category frequencies of a label column (for evaluation)."""
    labels = check_labels(categories, n_categories, "category labels")
    counts = np.bincount(labels, minlength=n_categories)
    return counts / max(labels.size, 1)


def adapt_to_unit_domain(mechanism: Mechanism) -> Mechanism:
    """Return ``mechanism`` re-domained to ``[0, 1]`` entries if needed."""
    if tuple(mechanism.input_domain) == UNIT_DOMAIN:
        return mechanism
    return AffineTransformedMechanism(mechanism, UNIT_DOMAIN)


def postprocess_frequencies(
    frequencies: np.ndarray, normalize: bool = True
) -> np.ndarray:
    """Clip estimated frequencies to ``[0, 1]`` and optionally renormalize."""
    freq = np.clip(np.asarray(frequencies, dtype=np.float64), 0.0, 1.0)
    if normalize:
        total = freq.sum()
        if total > 0:
            freq = freq / total
    return freq


def norm_sub_frequencies(frequencies: np.ndarray) -> np.ndarray:
    """Project a noisy frequency vector onto the probability simplex.

    The "Norm-Sub" post-processing of the LDP literature: subtract a
    common offset ``t`` and clip at zero, with ``t`` chosen so the result
    sums to one — the Euclidean projection onto the simplex. Compared to
    clip-and-rescale it removes noise mass *uniformly*, so large
    frequencies are not shrunk multiplicatively.

    Returns the unique vector ``max(f − t, 0)`` with unit sum.
    """
    freq = np.asarray(frequencies, dtype=np.float64).ravel()
    if freq.size == 0:
        raise DimensionError("cannot project an empty frequency vector")
    # Standard simplex-projection: sort descending, find the pivot.
    ordered = np.sort(freq)[::-1]
    cumulative = np.cumsum(ordered) - 1.0
    ranks = np.arange(1, freq.size + 1)
    candidates = ordered - cumulative / ranks
    pivot = int(np.nonzero(candidates > 0)[0][-1])
    offset = cumulative[pivot] / (pivot + 1)
    return np.maximum(freq - offset, 0.0)
