"""Socket transport of the distributed collection API.

The wire layer (:mod:`repro.wire`) makes a report batch a byte string;
this subpackage moves those bytes between real processes over TCP, with
the same strictness guarantees:

* :func:`serve_collection` / :class:`CollectionGateway` — an asyncio
  ingestion front: contract handshake on connect (fingerprints compared
  *before* any payload bytes flow), each accepted frame validated and
  folded into a :class:`~repro.session.ShardedServer` shard before its
  ack (so the ack wait is the backpressure), graceful shutdown — and,
  with a
  :class:`~repro.storage.CheckpointStore`, periodic round checkpoints
  carrying per-sender acknowledgement watermarks, so a SIGKILLed gateway
  restarts from durable state and resumes the round exactly;
* :class:`AsyncReportSender` / :func:`replay_frames` — the user side:
  handshake, per-frame acknowledged sequenced sends (the ack wait *is*
  the backpressure), zero-user heartbeat frames for idle connections,
  and crash-safe round replay that skips frames the gateway already
  holds durably;
* :mod:`repro.transport.stream` — the one stream server/client core
  the gateway, the sender and the federation tier build on, plus
  :func:`request_stats` (live ``STATS`` of a gateway or root);
* :mod:`repro.transport.framing` — the shared message definitions
  (handshake structs, sequenced length-prefixed frames, typed status
  codes).

Because aggregation is exact (:mod:`repro.session.streaming`), a socket
round's estimate is bit-identical to one-shot in-process ingestion of
the same report multiset — concurrency, routing, backpressure stalls,
and even a mid-round crash-and-resume cannot move it by one ulp.
"""

from .framing import (
    DEFAULT_MAX_FRAME_BYTES,
    SENDER_ID_SIZE,
    STATE_MAGIC,
    STATS_MAGIC,
    STATUS_CONTRACT_MISMATCH,
    STATUS_OK,
    STATUS_TRANSPORT_ERROR,
    STATUS_WIRE_ERROR,
    TRANSPORT_MAGIC,
    TRANSPORT_VERSION,
)
from .gateway import CollectionGateway, serve_collection
from .sender import AsyncReportSender, replay_frames
from .stream import request_stats

__all__ = [
    "AsyncReportSender",
    "CollectionGateway",
    "DEFAULT_MAX_FRAME_BYTES",
    "SENDER_ID_SIZE",
    "STATE_MAGIC",
    "STATS_MAGIC",
    "STATUS_CONTRACT_MISMATCH",
    "STATUS_OK",
    "STATUS_TRANSPORT_ERROR",
    "STATUS_WIRE_ERROR",
    "TRANSPORT_MAGIC",
    "TRANSPORT_VERSION",
    "replay_frames",
    "request_stats",
    "serve_collection",
]
