"""Shared plumbing for the per-figure experiment drivers.

Every driver in this package regenerates one table or figure of the
paper's Section VI. They all follow the same pattern: run at explicitly
configurable scale (paper-scale by default, scaled-down in the benchmark
harness), return a small result dataclass, and know how to format
themselves as the rows/series the paper reports. This module holds the
pieces they share: the fast single-dimension simulator used by the CLT
validations, the Fig. 4/5 repeat loop, and row-formatting helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

from ..analysis.metrics import mse
from ..exceptions import DimensionError
from ..hdr4me.recalibrator import Recalibrator
from ..mechanisms.base import Mechanism
from ..rng import RngLike, ensure_rng, spawn_children

#: The series of Fig. 4 and Fig. 5: the baseline aggregation against
#: HDR4ME with L1 and with L2.
SERIES_LABELS = ("baseline", "l1", "l2")


def simulate_dimension_deviations(
    mechanism: Mechanism,
    column: np.ndarray,
    epsilon_per_dim: float,
    report_probability: float,
    repeats: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Repeatedly simulate one dimension's aggregation deviation.

    This is the engine behind the Fig. 2 / Fig. 3 validation: instead of
    simulating all ``d`` dimensions (the paper's d = 5,000), it exploits
    the protocol's per-dimension independence and simulates only the
    dimension whose deviation is being histogrammed. Each repeat draws the
    subset of users reporting the dimension (each w.p. ``m/d``), perturbs
    their values with ``ε/m``, aggregates, and records
    ``θ̂_j − θ̄_j`` (with deterministic bias calibrated away exactly as
    the collector would).

    Parameters
    ----------
    mechanism:
        Mechanism under test.
    column:
        Original values of the dimension for all ``n`` users.
    epsilon_per_dim:
        The ``ε/m`` budget.
    report_probability:
        The ``m/d`` probability a given user reports this dimension
        (``1.0`` means everyone reports it).
    repeats:
        Number of independent collection rounds.
    rng:
        Seed or generator.

    Returns
    -------
    numpy.ndarray
        ``repeats`` deviations of the estimated mean from the true mean.
    """
    if not 0.0 < report_probability <= 1.0:
        raise DimensionError(
            "report_probability must lie in (0, 1], got %g" % report_probability
        )
    if repeats < 1:
        raise DimensionError("repeats must be >= 1, got %d" % repeats)
    gen = ensure_rng(rng)
    values = np.asarray(column, dtype=np.float64).ravel()
    if values.size == 0:
        raise DimensionError("column must be non-empty")
    truth = float(values.mean())
    bias = mechanism.deterministic_bias(epsilon_per_dim) or 0.0

    deviations = np.empty(repeats)
    for k in range(repeats):
        if report_probability < 1.0:
            reporting = values[gen.random(values.size) < report_probability]
            if reporting.size == 0:
                reporting = values[
                    gen.integers(0, values.size, size=1)
                ]  # pathological tiny-probability fallback
        else:
            reporting = values
        perturbed = mechanism.perturb(reporting, epsilon_per_dim, gen)
        deviations[k] = perturbed.mean() - bias - truth
    return deviations


def repeated_mse_values(
    pipeline: Any,
    data: np.ndarray,
    truth: np.ndarray,
    populations: Optional[Sequence[Any]],
    rng: np.random.Generator,
    repeats: int,
) -> dict:
    """Mean MSE of each :data:`SERIES_LABELS` series over ``repeats`` rounds.

    The repeat loop of Fig. 4 and Fig. 5: each round runs ``pipeline``
    (a :class:`~repro.protocol.MeanEstimationPipeline`) on ``data`` with
    its own child generator of ``rng``, builds the Theorem 1 model for
    the users it saw (over ``populations`` when the mechanism is
    bounded), and scores the raw estimate and both recalibrations of it
    against ``truth``.
    """
    recalibrators = {
        "l1": Recalibrator(norm="l1"),
        "l2": Recalibrator(norm="l2"),
    }
    sums = {label: 0.0 for label in SERIES_LABELS}
    for child in spawn_children(rng, repeats):
        result = pipeline.run(data, child)
        model = pipeline.deviation_model(
            users=result.users, populations=populations
        )
        sums["baseline"] += mse(result.theta_hat, truth)
        for label, recal in recalibrators.items():
            enhanced = recal.recalibrate(result.theta_hat, model)
            sums[label] += mse(enhanced.theta_star, truth)
    return {label: sums[label] / repeats for label in SERIES_LABELS}


@dataclass(frozen=True)
class SeriesRow:
    """One x-position of a paper figure: a parameter and labelled values."""

    x: float
    values: dict

    def formatted(self, labels: Sequence[str], fmt: str = "%.4g") -> str:
        cells = [fmt % self.x] + [fmt % self.values[label] for label in labels]
        return "\t".join(cells)


def format_series(
    title: str,
    x_label: str,
    labels: Sequence[str],
    rows: Iterable[SeriesRow],
    fmt: str = "%.4g",
) -> str:
    """Render rows as the tab-separated series a paper figure plots."""
    lines: List[str] = ["# %s" % title, "\t".join([x_label] + list(labels))]
    lines.extend(row.formatted(labels, fmt) for row in rows)
    return "\n".join(lines)
