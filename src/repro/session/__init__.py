"""The unified client/server collection API (the canonical entry surface).

The paper frames LDP collection as one protocol — users perturb locally,
a collector aggregates, HDR4ME re-calibrates — and this subpackage
exposes it as one API regardless of whether attributes are numeric or
categorical and which perturbation backend serves them:

* :class:`Schema` with typed :class:`NumericAttribute` /
  :class:`CategoricalAttribute` entries describes one user's record;
* :class:`LDPClient` perturbs whole records, sampling exactly ``m`` of
  the ``d`` attributes under a shared :class:`~repro.protocol.BudgetPlan`;
* :class:`LDPServer` ingests :class:`ReportBatch` streams incrementally
  and estimates on demand, with re-calibration as a composable
  ``estimate(postprocess=Recalibrator(...))`` step;
* the unified registry (:func:`repro.mechanisms.registry.get_protocol`)
  resolves numeric mechanisms *and* the GRR/OUE/OLH frequency oracles
  into interchangeable :class:`~repro.session.adapters.CollectionProtocol`
  backends;
* the wire layer (:mod:`repro.wire`) carries a round across processes:
  contract-fingerprinted binary frames (:meth:`LDPClient.report_encoded`
  → :meth:`LDPServer.ingest_encoded`), exact :meth:`LDPServer.merge`,
  JSON checkpoints (:meth:`LDPServer.save_state` /
  :meth:`LDPServer.load_state`), and :class:`ShardedServer`, which fans
  a batch stream over ``N`` workers with bit-identical merged estimates.

Quickstart::

    import numpy as np
    from repro import (
        CategoricalAttribute, LDPClient, LDPServer, NumericAttribute,
        Recalibrator, Schema,
    )

    schema = Schema([
        NumericAttribute("screen_time"),
        CategoricalAttribute("top_app", n_categories=16),
    ])
    client = LDPClient(schema, epsilon=1.0, protocols="piecewise")
    server = LDPServer(schema, epsilon=1.0, protocols="piecewise")
    rng = np.random.default_rng(0)                 # one stream for all batches
    for batch in np.array_split(records, 10):      # streaming ingestion
        server.ingest(client.report_batch(batch, rng))
    estimate = server.estimate(postprocess=Recalibrator(norm="l1"))
    print(estimate["screen_time"].scalar, estimate.frequencies("top_app"))
"""

from .adapters import (
    AttributeCollector,
    CollectionProtocol,
    MechanismProtocol,
    OracleProtocol,
)
from .client import (
    DEFAULT_PROTOCOL,
    LDPClient,
    ReportBatch,
    resolve_collectors,
    sample_attribute_mask,
)
from .schema import Attribute, CategoricalAttribute, NumericAttribute, Schema
from .server import AttributeEstimate, LDPServer, SessionEstimate
from .sharded import ShardedServer
from .state import SessionState
from .streaming import StreamingSum

__all__ = [
    "Attribute",
    "AttributeCollector",
    "AttributeEstimate",
    "CategoricalAttribute",
    "CollectionProtocol",
    "DEFAULT_PROTOCOL",
    "LDPClient",
    "LDPServer",
    "MechanismProtocol",
    "NumericAttribute",
    "OracleProtocol",
    "ReportBatch",
    "Schema",
    "SessionEstimate",
    "SessionState",
    "ShardedServer",
    "StreamingSum",
    "resolve_collectors",
    "sample_attribute_mask",
]
