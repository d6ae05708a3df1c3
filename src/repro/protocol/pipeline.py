"""End-to-end mean-estimation simulation (users → reports → collector → mean).

:class:`MeanEstimationPipeline` is a thin facade over the canonical
session API (:mod:`repro.session`): it builds a typed
:class:`~repro.session.Schema`, drives an :class:`~repro.session.LDPClient`
in chunks and streams the resulting report batches into an
:class:`~repro.session.LDPServer`. New code should use the session API
directly — it handles mixed numeric+categorical schemas, incremental
ingestion and composable re-calibration; the facade remains for the
established experiment drivers and scripts.

:class:`MeanEstimationPipeline` reproduces the paper's collection protocol
at dataset scale: every user samples ``m`` of ``d`` dimensions, perturbs
them with ``ε/m``, and the collector aggregates into ``θ̂``. The chunking
keeps the memory footprint bounded (``chunk_size × d`` floats) so
paper-scale runs (n = 200,000, d = 5,000) fit on a laptop.

The pipeline also exposes the bridge to Section IV: given the population
value distributions of the data (or the data itself, which it discretizes),
:meth:`MeanEstimationPipeline.deviation_model` returns the Theorem 1 model
for exactly this configuration — which is what HDR4ME's λ* selection
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import DimensionError, DistributionError
from ..framework.multivariate import (
    MultivariateDeviationModel,
    build_multivariate_model,
)
from ..framework.population import DEFAULT_BINS, ValueDistribution
from ..mechanisms.base import BLOCK_ENTRIES, Mechanism
from ..rng import RngLike, ensure_rng
from .budget import BudgetPlan

#: Users processed per vectorized chunk.
DEFAULT_CHUNK_SIZE = 8192


@dataclass(frozen=True)
class AggregationResult:
    """The collector's output for one collection round.

    Attributes
    ----------
    theta_hat:
        Estimated mean per dimension (calibrated where possible).
    report_counts:
        Number of reports received per dimension (``r_j``).
    epsilon_per_dimension:
        Budget each report spent per dimension.
    """

    theta_hat: np.ndarray
    report_counts: np.ndarray
    epsilon_per_dimension: float

    @property
    def dimensions(self) -> int:
        """Number of aggregated dimensions ``d``."""
        return int(self.theta_hat.size)

    @property
    def min_reports(self) -> int:
        """Smallest per-dimension report count (framework ``r``)."""
        return int(self.report_counts.min())


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one simulated collection round.

    Attributes
    ----------
    aggregation:
        The collector's :class:`AggregationResult` (``θ̂``, counts).
    plan:
        The budget plan used.
    users:
        Number of users simulated.
    """

    aggregation: AggregationResult
    plan: BudgetPlan
    users: int

    @property
    def theta_hat(self) -> np.ndarray:
        """The estimated mean ``θ̂``."""
        return self.aggregation.theta_hat


def build_populations(
    data: np.ndarray, bins: Optional[int] = DEFAULT_BINS
) -> List[ValueDistribution]:
    """Discretize each column of ``data`` into a :class:`ValueDistribution`.

    This is the paper's "we discretize them with sampling" step that makes
    Lemma 3 applicable to continuous data. Every column is binned in one
    pass over the matrix, equal bit for bit to
    :meth:`ValueDistribution.from_data` on each column: the same edges
    (``np.linspace`` between the column's extremes, a constant column
    widened by ±0.5) and ``np.histogram``'s index-and-edge correction.
    Non-finite values anywhere in ``data`` are refused before any column
    is binned. Inputs that ``from_data`` rejects or treats specially
    (``bins=None``, ``bins < 1``, no rows, ranges too narrow for the bins)
    go column by column through ``from_data`` itself.
    """
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise DimensionError("data must be an (n, d) matrix")
    histogram = None
    if matrix.size:
        low, high = matrix.min(axis=0), matrix.max(axis=0)
        # A NaN propagates into both extremes and an infinity is one, so
        # this refuses non-finite values anywhere in the matrix.
        if not (np.isfinite(low).all() and np.isfinite(high).all()):
            raise DistributionError("data column holds NaN or infinite values")
        if bins is not None and bins >= 1:
            histogram = _histograms(matrix, int(bins), low, high)
    if histogram is None:
        return [
            ValueDistribution.from_data(matrix[:, j], bins)
            for j in range(matrix.shape[1])
        ]
    counts, edges = histogram
    mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
    users = matrix.shape[0]
    populations = []
    for column_counts, column_mids in zip(counts, mids):
        keep = column_counts > 0
        populations.append(
            ValueDistribution(column_mids[keep], column_counts[keep] / users)
        )
    return populations


def _histograms(
    matrix: np.ndarray, bins: int, low: np.ndarray, high: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Per-column ``np.histogram(column, bins)`` of a finite matrix, at once.

    ``low`` and ``high`` are the per-column minima and maxima. Returns ``(counts, edges)`` of shapes ``(d, bins)`` and
    ``(d, bins + 1)``, or ``None`` when some column's range overflows or
    is too narrow for ``bins`` finite-width bins (the cases
    ``np.histogram`` handles on its own paths).
    """
    users, dimensions = matrix.shape
    constant = low == high
    low = np.where(constant, low - 0.5, low)
    high = np.where(constant, high + 0.5, high)
    width = high - low
    if not np.isfinite(width).all() or np.any(width / bins == 0.0):
        return None  # an overflowing range, or linspace's denormal-step path
    edges = np.linspace(low, high, bins + 1, axis=1)
    if np.any(edges[:, :-1] >= edges[:, 1:]):
        return None
    # Work on flat indices into the (d, bins + 1) edges: a value of
    # column j in bin i sits at j * (bins + 1) + i. ``upper[k]`` is the
    # right edge of the bin at k, except that the last bin of a column
    # gets +inf: it keeps its right edge.
    lower = edges.ravel()
    upper = np.append(lower[1:], np.inf)
    upper[bins - 1 :: bins + 1] = np.inf
    offsets = np.arange(dimensions, dtype=np.intp) * (bins + 1)
    counts = np.zeros(dimensions * (bins + 1), dtype=np.intp)
    step = max(1, BLOCK_ENTRIES // dimensions)
    for start in range(0, users, step):
        block = matrix[start : start + step]
        index = ((block - low) / width * bins).astype(np.intp)
        np.minimum(index, bins - 1, out=index)
        index += offsets
        # The same ±1 corrections np.histogram applies within an ulp of
        # an edge.
        index -= block < lower[index]
        index += block >= upper[index]
        counts += np.bincount(index.ravel(), minlength=counts.size)
    counts = counts.reshape(dimensions, bins + 1)[:, :bins]
    return counts, edges


class MeanEstimationPipeline:
    """Simulate the full LDP mean-estimation protocol for a dataset.

    Parameters
    ----------
    mechanism:
        Any :class:`Mechanism` whose input domain matches the data.
    epsilon:
        Collective privacy budget per user.
    dimensions:
        Number of dimensions ``d`` of the data.
    sampled_dimensions:
        The ``m`` of the protocol; defaults to ``d`` (every user reports
        everything, the paper's "test the limit" configuration in the
        Fig. 4 experiments).
    chunk_size:
        Users per vectorized batch.
    """

    def __init__(
        self,
        mechanism: Mechanism,
        epsilon: float,
        dimensions: int,
        sampled_dimensions: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size < 1:
            raise DimensionError("chunk_size must be >= 1, got %d" % chunk_size)
        m = dimensions if sampled_dimensions is None else sampled_dimensions
        self.mechanism = mechanism
        self.plan = BudgetPlan(
            epsilon=epsilon, dimensions=dimensions, sampled_dimensions=m
        )
        self.chunk_size = int(chunk_size)

    # -------------------------------------------------------------- session

    def _schema(self):
        """The all-numeric session schema equivalent to this pipeline."""
        from ..session.schema import NumericAttribute, Schema

        return Schema(
            [
                NumericAttribute("x%d" % j, domain=self.mechanism.input_domain)
                for j in range(self.plan.dimensions)
            ]
        )

    def _session(self):
        """Fresh (client, server) pair for one collection round."""
        from ..session.adapters import MechanismProtocol
        from ..session.client import LDPClient
        from ..session.server import LDPServer

        protocol = MechanismProtocol(self.mechanism)
        schema = self._schema()
        client = LDPClient(
            schema,
            self.plan.epsilon,
            sampled_attributes=self.plan.sampled_dimensions,
            protocols=protocol,
        )
        server = LDPServer(
            schema,
            self.plan.epsilon,
            sampled_attributes=self.plan.sampled_dimensions,
            protocols=protocol,
        )
        return client, server

    # ------------------------------------------------------------------ run

    def run(self, data: np.ndarray, rng: RngLike = None) -> PipelineResult:
        """Perturb, collect and aggregate the whole dataset once.

        Parameters
        ----------
        data:
            ``(n, d)`` matrix of original tuples in the mechanism's domain.
        rng:
            Seed or generator for sampling and perturbation.
        """
        gen = ensure_rng(rng)
        # Domain and finiteness are checked chunk by chunk, once, by the
        # client's ``Schema.validate_matrix``.
        matrix = np.asarray(data, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.plan.dimensions:
            raise DimensionError(
                "expected (n, %d) data, got %s"
                % (self.plan.dimensions, np.shape(data))
            )
        users = matrix.shape[0]
        client, server = self._session()
        for start in range(0, users, self.chunk_size):
            chunk = matrix[start : start + self.chunk_size]
            server.ingest(client.report_batch(chunk, gen))
        estimate = server.estimate()
        aggregation = AggregationResult(
            theta_hat=np.array([a.raw[0] for a in estimate.attributes]),
            report_counts=np.array(
                [a.reports for a in estimate.attributes], dtype=np.int64
            ),
            epsilon_per_dimension=self.plan.epsilon_per_dimension,
        )
        return PipelineResult(aggregation=aggregation, plan=self.plan, users=users)

    # ------------------------------------------------------------ framework

    def deviation_model(
        self,
        users: int,
        populations: Union[
            ValueDistribution, Sequence[ValueDistribution], None
        ] = None,
        data: Optional[np.ndarray] = None,
        bins: Optional[int] = DEFAULT_BINS,
    ) -> MultivariateDeviationModel:
        """Theorem 1 model for this pipeline configuration.

        Either pass explicit ``populations`` (one shared or one per
        dimension) or raw ``data`` to be discretized; unbounded mechanisms
        need neither.
        """
        if populations is None and data is not None:
            populations = build_populations(data, bins)
        return build_multivariate_model(
            self.mechanism,
            self.plan.epsilon_per_dimension,
            self.plan.expected_reports(users),
            populations,
            ndim=self.plan.dimensions,
        )
