"""Empirical-density diagnostics for validating the CLT framework.

Figures 2 and 3 of the paper overlay the framework's Gaussian pdf on an
empirical pdf estimated from repeated experiments. This module provides
the histogram density estimator, a Gaussian-fit summary, and a
Kolmogorov–Smirnov comparison of an empirical sample against a
:class:`~repro.framework.deviation.DeviationModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import DimensionError
from ..framework.deviation import DeviationModel


@dataclass(frozen=True)
class EmpiricalDensity:
    """Histogram-based pdf estimate of a sample.

    Attributes
    ----------
    centers:
        Bin midpoints.
    density:
        Estimated pdf value per bin (integrates to 1).
    """

    centers: np.ndarray
    density: np.ndarray

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Piecewise-constant pdf lookup (0 outside the histogram range)."""
        pts = np.asarray(points, dtype=np.float64)
        return np.interp(pts, self.centers, self.density, left=0.0, right=0.0)


def empirical_pdf(sample: np.ndarray, bins: int = 40) -> EmpiricalDensity:
    """Estimate the pdf of a one-dimensional sample via histogram."""
    arr = np.asarray(sample, dtype=np.float64).ravel()
    if arr.size < 2:
        raise DimensionError("need at least two observations, got %d" % arr.size)
    density, edges = np.histogram(arr, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return EmpiricalDensity(centers=centers, density=density)


@dataclass(frozen=True)
class GaussianFit:
    """Comparison of an empirical sample against a framework Gaussian.

    Attributes
    ----------
    sample_mean / sample_std:
        Moments of the empirical deviations.
    model_mean / model_std:
        The framework's ``δ`` and ``σ``.
    ks_statistic / ks_pvalue:
        One-sample Kolmogorov–Smirnov test of the sample against the
        model's Gaussian.
    """

    sample_mean: float
    sample_std: float
    model_mean: float
    model_std: float
    ks_statistic: float
    ks_pvalue: float

    @property
    def mean_error(self) -> float:
        """|sample mean − model mean|."""
        return abs(self.sample_mean - self.model_mean)

    @property
    def std_ratio(self) -> float:
        """sample std / model std (≈ 1 when the framework is accurate)."""
        return self.sample_std / self.model_std


def gaussian_fit(sample: np.ndarray, model: DeviationModel) -> GaussianFit:
    """Score how well ``model`` describes an empirical deviation sample."""
    arr = np.asarray(sample, dtype=np.float64).ravel()
    if arr.size < 2:
        raise DimensionError("need at least two observations, got %d" % arr.size)
    # A diagnostic: load scipy.stats here, off the collection runtime path.
    from scipy import stats

    statistic, pvalue = stats.kstest(
        arr, "norm", args=(model.delta, model.sigma)
    )
    return GaussianFit(
        sample_mean=float(arr.mean()),
        sample_std=float(arr.std(ddof=1)),
        model_mean=model.delta,
        model_std=model.sigma,
        ks_statistic=float(statistic),
        ks_pvalue=float(pvalue),
    )


def pdf_overlay(
    sample: np.ndarray, model: DeviationModel, bins: int = 40
) -> Tuple[EmpiricalDensity, np.ndarray]:
    """Return the Fig. 2/3 overlay data: empirical pdf and model pdf.

    The second element is the model pdf evaluated at the histogram bin
    centers, ready to be printed or plotted side by side with the
    empirical density.
    """
    density = empirical_pdf(sample, bins=bins)
    return density, model.pdf(density.centers)
