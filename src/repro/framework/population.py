"""Discrete population value distributions used by Lemma 3.

For *bounded* mechanisms the deviation model depends on the distribution of
the original data: Lemma 3 averages the conditional moments over the
distinct original values ``{v_z}`` with probabilities ``{p_z}``. This
module provides :class:`ValueDistribution`, the small immutable container
the framework uses for that purpose, together with constructors for the
common cases (empirical data columns, the paper's case-study grid, point
masses). Continuous data are handled the way the paper prescribes: "as
regards original data following continuous distribution, we discretize
them with sampling" — :meth:`ValueDistribution.from_data` bins a column
into a configurable number of representative values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DistributionError
from ..tolerance import isclose

#: Default number of bins when discretizing a continuous column.
DEFAULT_BINS = 64


@dataclass(frozen=True)
class ValueDistribution:
    """Discrete distribution of original values in one dimension.

    Attributes
    ----------
    values:
        Sorted array of distinct original values ``v_z``.
    probabilities:
        Matching probabilities ``p_z`` summing to one.
    """

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64).ravel()
        probs = np.asarray(self.probabilities, dtype=np.float64).ravel()
        if values.size == 0:
            raise DistributionError("a value distribution needs at least one value")
        if values.shape != probs.shape:
            raise DistributionError(
                "values and probabilities must match: %d vs %d"
                % (values.size, probs.size)
            )
        if np.any(probs < 0.0):
            raise DistributionError("probabilities must be non-negative")
        total = float(probs.sum())
        if not isclose(total, 1.0, atol=1e-8):
            raise DistributionError("probabilities must sum to 1, got %g" % total)
        order = np.argsort(values)
        object.__setattr__(self, "values", values[order])
        object.__setattr__(self, "probabilities", probs[order] / total)

    # ---------------------------------------------------------- constructors

    @classmethod
    def from_data(
        cls, column: Sequence[float], bins: Optional[int] = DEFAULT_BINS
    ) -> "ValueDistribution":
        """Build the empirical distribution of a data column.

        Parameters
        ----------
        column:
            One dimension of the original dataset.
        bins:
            ``None`` keeps every distinct value (suitable for genuinely
            discrete columns); an integer bins the column into that many
            equal-width cells, each represented by its midpoint mass.
        """
        arr = np.asarray(column, dtype=np.float64).ravel()
        if arr.size == 0:
            raise DistributionError("cannot build a distribution from no data")
        if not np.isfinite(arr).all():
            raise DistributionError("data column holds NaN or infinite values")
        if bins is None:
            values, counts = np.unique(arr, return_counts=True)
            return cls(values, counts / arr.size)
        if bins < 1:
            raise DistributionError("bins must be >= 1, got %d" % bins)
        counts, edges = np.histogram(arr, bins=int(bins))
        mids = 0.5 * (edges[:-1] + edges[1:])
        keep = counts > 0
        return cls(mids[keep], counts[keep] / arr.size)

    @classmethod
    def uniform_grid(
        cls, low: float, high: float, count: int
    ) -> "ValueDistribution":
        """Equally likely values on an inclusive grid (paper IV-C style)."""
        if count < 1:
            raise DistributionError("count must be >= 1, got %d" % count)
        values = np.linspace(low, high, count)
        return cls(values, np.full(count, 1.0 / count))

    @classmethod
    def point_mass(cls, value: float) -> "ValueDistribution":
        """Distribution concentrated on one value."""
        return cls(np.array([float(value)]), np.array([1.0]))

    @classmethod
    def case_study(cls) -> "ValueDistribution":
        """The paper's Section IV-C grid: {0.1, …, 1.0}, 10% each."""
        return cls.uniform_grid(0.1, 1.0, 10)

    # -------------------------------------------------------------- queries

    @property
    def support(self) -> Tuple[float, float]:
        """Smallest and largest value with positive probability."""
        return float(self.values[0]), float(self.values[-1])

    def mean(self) -> float:
        """Population mean ``Σ p_z v_z``."""
        return float(np.dot(self.probabilities, self.values))

    def variance(self) -> float:
        """Population variance."""
        mu = self.mean()
        return float(np.dot(self.probabilities, (self.values - mu) ** 2))

    def expect(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Return ``E[fn(V)] = Σ p_z fn(v_z)`` for a vectorized ``fn``."""
        return float(np.dot(self.probabilities, fn(self.values)))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. values from the distribution."""
        return rng.choice(self.values, size=size, p=self.probabilities)

    def rescale(self, slope: float, offset: float) -> "ValueDistribution":
        """Return the distribution of ``slope · V + offset``."""
        if slope == 0:
            raise DistributionError("slope must be non-zero")
        return ValueDistribution(slope * self.values + offset, self.probabilities)

    def __len__(self) -> int:
        return int(self.values.size)
