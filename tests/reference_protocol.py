"""Frozen per-user float protocol: the oracle for the session pipeline.

This is the reference implementation of the paper's collection protocol
(Section III-B) that the library shipped before every workload moved onto
:class:`~repro.session.LDPClient` and :class:`~repro.session.LDPServer`:
a :class:`Client` that samples ``m`` of ``d`` dimensions and perturbs each
at ``ε/m`` for one user at a time, and an :class:`Aggregator` that sums the
reports per dimension in plain float64, subtracts any deterministic
mechanism bias and averages into ``θ̂``. The vectorized, exactly summed
session path must agree with it in distribution
(``tests/test_protocol_pipeline.py``). Do not edit these classes to follow
a change of the session layer: the point is that they do not move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import AggregationError, DimensionError
from repro.mechanisms.base import Mechanism, validate_values
from repro.protocol import AggregationResult, BudgetPlan
from repro.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class Report:
    """One user's perturbed submission.

    Attributes
    ----------
    dimensions:
        Indices of the ``m`` sampled dimensions.
    values:
        The perturbed values, aligned with ``dimensions``.
    """

    dimensions: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        dims = np.asarray(self.dimensions, dtype=np.int64).ravel()
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if dims.shape != vals.shape:
            raise DimensionError(
                "report dimensions and values disagree: %d vs %d"
                % (dims.size, vals.size)
            )
        object.__setattr__(self, "dimensions", dims)
        object.__setattr__(self, "values", vals)


class Client:
    """Local perturbation agent for one user.

    Parameters
    ----------
    mechanism:
        The LDP mechanism to perturb with.
    plan:
        The budget plan (``ε``, ``d``, ``m``) shared with the collector.
    """

    def __init__(self, mechanism: Mechanism, plan: BudgetPlan) -> None:
        self.mechanism = mechanism
        self.plan = plan

    def report(self, tuple_values: np.ndarray, rng: RngLike = None) -> Report:
        """Sample, perturb and package one user's tuple."""
        gen = ensure_rng(rng)
        values = validate_values(tuple_values, self.mechanism.input_domain)
        if values.ndim != 1 or values.size != self.plan.dimensions:
            raise DimensionError(
                "tuple must have %d dimensions, got shape %s"
                % (self.plan.dimensions, np.shape(tuple_values))
            )
        chosen = gen.choice(
            self.plan.dimensions, size=self.plan.sampled_dimensions, replace=False
        )
        chosen.sort()
        perturbed = self.mechanism.perturb(
            values[chosen], self.plan.epsilon_per_dimension, gen
        )
        return Report(dimensions=chosen, values=perturbed)


class Aggregator:
    """Streaming per-dimension float aggregation with deterministic calibration.

    Parameters
    ----------
    mechanism:
        The mechanism the reports were perturbed with (needed only for its
        deterministic bias; the raw values are never re-perturbed).
    plan:
        The shared budget plan.
    """

    def __init__(self, mechanism: Mechanism, plan: BudgetPlan) -> None:
        self.mechanism = mechanism
        self.plan = plan
        self._sums = np.zeros(plan.dimensions, dtype=np.float64)
        self._counts = np.zeros(plan.dimensions, dtype=np.int64)

    def add_report(self, report: Report) -> None:
        """Ingest a single user's :class:`Report`."""
        dims = report.dimensions
        if dims.size and (dims.min() < 0 or dims.max() >= self.plan.dimensions):
            raise DimensionError(
                "report touches dimension outside [0, %d)" % self.plan.dimensions
            )
        np.add.at(self._sums, dims, report.values)
        np.add.at(self._counts, dims, 1)

    def add_matrix(
        self, perturbed: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> None:
        """Ingest a dense ``(batch, d)`` matrix of perturbed tuples.

        ``mask`` marks the entries actually reported (``m < d``); ``None``
        means every entry was reported.
        """
        block = np.asarray(perturbed, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self.plan.dimensions:
            raise DimensionError(
                "expected (batch, %d) matrix, got %s"
                % (self.plan.dimensions, block.shape)
            )
        if mask is None:
            self._sums += block.sum(axis=0)
            self._counts += block.shape[0]
            return
        mask_arr = np.asarray(mask, dtype=bool)
        if mask_arr.shape != block.shape:
            raise DimensionError("mask shape %s != data shape %s"
                                 % (mask_arr.shape, block.shape))
        self._sums += np.where(mask_arr, block, 0.0).sum(axis=0)
        self._counts += mask_arr.sum(axis=0)

    @property
    def report_counts(self) -> np.ndarray:
        """Copy of the per-dimension report counts so far."""
        return self._counts.copy()

    def aggregate(self) -> AggregationResult:
        """Average (and calibrate) the accumulated reports into ``θ̂``.

        Raises :class:`AggregationError` if any dimension received no
        reports at all.
        """
        if np.any(self._counts == 0):
            missing = int(np.sum(self._counts == 0))
            raise AggregationError(
                "%d dimension(s) received no reports; increase n or m" % missing
            )
        theta_hat = self._sums / self._counts
        eps = self.plan.epsilon_per_dimension
        bias = self.mechanism.deterministic_bias(eps)
        if bias:
            theta_hat = theta_hat - bias
        return AggregationResult(
            theta_hat=theta_hat,
            report_counts=self._counts.copy(),
            epsilon_per_dimension=eps,
        )

    def reset(self) -> None:
        """Discard all accumulated reports (start a new round)."""
        self._sums.fill(0.0)
        self._counts.fill(0)
