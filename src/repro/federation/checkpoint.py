"""Federation checkpoint documents: the root's per-edge epoch table.

What a :class:`~repro.federation.RootAggregator` persists between
pushes: for every edge id, the newest epoch it folded and that epoch's
full state snapshot (plus the edge's reported counters, observability
only). Because edge snapshots are cumulative and the root keeps exactly
one per edge, this document *is* the root's entire aggregation state —
a restarted root recovers it, answers each reconnecting edge with its
epoch watermark, and the round continues with estimates bit-identical
to one that never crashed.

Structural damage raises
:class:`~repro.exceptions.CheckpointCorruptError`; a checkpoint written
under a different collection contract raises
:class:`~repro.exceptions.ContractMismatchError` naming both
fingerprints — the same strictness every other durable artefact gets.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from ..exceptions import CheckpointCorruptError
from ..storage.checkpoint import parse_watermark_ledger
from ..wire.contract import CollectionContract

FEDERATION_FORMAT = "repro-federation-round"
FEDERATION_VERSION = 1

#: One edge's record at the root: ``(epoch, state, counters)``.
EdgeRecord = Tuple[int, Dict[str, Any], Dict[str, Any]]


def federation_checkpoint_document(
    contract: CollectionContract,
    edges: Mapping[bytes, EdgeRecord],
) -> Dict[str, Any]:
    """Build the checkpoint document for one in-flight federated round."""
    return {
        "format": FEDERATION_FORMAT,
        "federation_version": FEDERATION_VERSION,
        "fingerprint": contract.fingerprint,
        "edges": {
            edge_id.hex(): {
                "epoch": int(epoch),
                "state": dict(state),
                "counters": dict(counters),
            }
            for edge_id, (epoch, state, counters) in edges.items()
        },
    }


def parse_federation_checkpoint(
    document: Mapping[str, Any],
    contract: CollectionContract,
) -> Dict[bytes, EdgeRecord]:
    """Validate a federation checkpoint and unpack its edge table.

    Returns the per-edge records keyed by raw edge-id bytes again.
    """
    raw_edges = parse_watermark_ledger(
        document, contract, "federation", FEDERATION_FORMAT, FEDERATION_VERSION,
        "edges", "edge",
    )
    edges: Dict[bytes, EdgeRecord] = {}
    for edge_id, record in raw_edges.items():
        key = edge_id.hex()
        if not isinstance(record, Mapping):
            raise CheckpointCorruptError(
                "malformed edge record %r for edge %s" % (record, key)
            )
        epoch = record.get("epoch")
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 1:
            raise CheckpointCorruptError(
                "malformed epoch %r for edge %s" % (epoch, key)
            )
        state = record.get("state")
        if not isinstance(state, Mapping):
            raise CheckpointCorruptError(
                "edge %s carries no state snapshot in federation "
                "checkpoint" % key
            )
        counters = record.get("counters")
        if not isinstance(counters, Mapping):
            raise CheckpointCorruptError(
                "edge %s carries malformed counters in federation "
                "checkpoint" % key
            )
        edges[edge_id] = (epoch, dict(state), dict(counters))
    return edges
