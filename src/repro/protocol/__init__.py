"""The LDP collection protocol substrate (Section III-B).

Public surface:

* :class:`BudgetPlan` — ``ε/m`` and ``ε/2m`` budget arithmetic;
* :class:`MeanEstimationPipeline` — vectorized end-to-end simulation
  returning an :class:`AggregationResult`, plus the bridge to the
  Theorem 1 deviation model and HDR4ME;
* :class:`PaddingAndSampling` — set-valued frequency estimation over a
  frequency oracle.
"""

from .budget import BudgetPlan
from .pipeline import (
    DEFAULT_CHUNK_SIZE,
    AggregationResult,
    MeanEstimationPipeline,
    PipelineResult,
    build_populations,
)
from .setvalued import PaddingAndSampling, SetValuedEstimate, item_frequencies

__all__ = [
    "AggregationResult",
    "BudgetPlan",
    "DEFAULT_CHUNK_SIZE",
    "MeanEstimationPipeline",
    "PaddingAndSampling",
    "PipelineResult",
    "SetValuedEstimate",
    "build_populations",
    "item_frequencies",
]
