"""Hierarchical multi-gateway federation: edges shipping state upstream.

One collection gateway scales to the capacity of one event loop; a
planet-scale round does not fit in it. This package adds the missing
tier: *edge aggregators* (:class:`EdgeAggregator`) each run a full local
:class:`~repro.transport.CollectionGateway` — clients connect to the
nearest edge exactly as they would to a standalone gateway — fold
accepted frames into their own shards, and periodically push merged
:meth:`~repro.session.LDPServer.state_dict` state upstream to a single
:class:`RootAggregator` over the existing framed socket protocol (a
``STATE`` hello instead of a report hello, one CRC-sealed push per
epoch), each push the edge's full cumulative snapshot. The root keeps
each edge's newest snapshot and merges across edges with the
big-integer accumulation, so the federated estimate is **bit-identical** to one-shot ingestion of every
client's reports — for any edge count, any client-to-edge assignment,
any push cadence, and across edge or root crash-restarts (both tiers
resume from :mod:`repro.storage` checkpoints; the root acks a push only
after folding it durably when a store is configured).

Both hops take an optional :class:`ssl.SSLContext`, so the client→edge
and edge→root links can be TLS independently. Everything instruments
against :mod:`repro.telemetry`: push/fold/dedup/rejection counters,
per-edge epoch gauges, and a root ``STATS`` snapshot that aggregates the
gateway counters of the whole topology.

Typical round::

    root = await serve_root(schema, epsilon, store=open_store(uri))
    edge = await EdgeAggregator(schema, epsilon, push_every_frames=32)\\
        .start("127.0.0.1", root.port)
    # ... clients replay_frames(...) against edge.port ...
    await edge.stop()          # final cumulative push, always
    await root.wait_for_users(n)
    estimate = root.estimate() # == one-shot, bit for bit
    await root.stop()
"""

from .checkpoint import (
    FEDERATION_FORMAT,
    FEDERATION_VERSION,
    EdgeRecord,
    federation_checkpoint_document,
    parse_federation_checkpoint,
)
from .edge import EdgeAggregator
from .pusher import EDGE_ID_SIZE, StatePusher
from .root import RootAggregator, serve_root
from .state_push import (
    PUSH_FORMAT,
    PUSH_KIND_SNAPSHOT,
    PUSH_VERSION,
    SUPPORTED_PUSH_VERSIONS,
    StatePush,
    decode_state_push,
    encode_state_push,
)

__all__ = [
    "EDGE_ID_SIZE",
    "FEDERATION_FORMAT",
    "FEDERATION_VERSION",
    "PUSH_FORMAT",
    "PUSH_KIND_SNAPSHOT",
    "PUSH_VERSION",
    "SUPPORTED_PUSH_VERSIONS",
    "EdgeAggregator",
    "EdgeRecord",
    "RootAggregator",
    "StatePush",
    "StatePusher",
    "decode_state_push",
    "encode_state_push",
    "federation_checkpoint_document",
    "parse_federation_checkpoint",
    "serve_root",
]
