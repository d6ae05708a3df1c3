"""The upstream end of the federation tier: fold edge pushes, serve one estimate.

:class:`RootAggregator` is a TCP server speaking the ``STATE`` push side
of the framed socket protocol (:mod:`repro.transport.framing`). Edge
aggregators connect with a hello opened by ``STATE_MAGIC`` carrying
their edge id, and then push epoch-numbered, CRC-sealed, contract-
fingerprint-checked :meth:`~repro.session.LDPServer.state_dict`
payloads — full cumulative snapshots, or *deltas* over the edge's last
acknowledged epoch, which the root adds to its stored record through
the exact big-integer merge before installing the sum as the new
cumulative state. Either way the root keeps exactly one record per
edge — the newest epoch and its cumulative
:class:`~repro.session.SessionState` — and merges across edges at read
time with the exact big-integer accumulation, so the federated
estimate is a pure function of the report multiset: bit-identical to
one-shot ingestion regardless of edge count, push ordering, duplicate
pushes, push kinds, or mid-round edge restarts.

Idempotency is the load-bearing property. The handshake reply's resume
watermark is the highest epoch the root folded for that edge; a push at
or below it is acknowledged without folding (``pushes_deduped``), so
retries and reconnects are always safe. With a checkpoint store
configured, every fold is persisted *before* its ack goes out — an edge
that heard OK knows its snapshot survives a root SIGKILL, and a
restarted root recovers the edge table and resumes the round exactly.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, Mapping, Optional, Tuple

from ..exceptions import (
    CheckpointCorruptError,
    ContractMismatchError,
    TransportError,
    WireFormatError,
)
from ..session.client import ProtocolSpec
from ..session.schema import Schema
from ..session.server import LDPServer, Postprocessor, SessionEstimate
from ..session.state import SessionState
from ..storage import CheckpointStore
from ..telemetry import MetricsRegistry, counted, emit
from ..transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    STATUS_CONTRACT_MISMATCH,
    STATUS_TRANSPORT_ERROR,
    STATUS_WIRE_ERROR,
)
from ..transport.stream import STATE_STREAM, Refusal, StreamServer
from ..wire.contract import CollectionContract
from .checkpoint import federation_checkpoint_document, parse_federation_checkpoint
from .state_push import PUSH_KIND_DELTA, decode_state_push

#: One edge's record at the root: ``(epoch, state, counters)``.
_Record = Tuple[int, SessionState, Dict[str, Any]]


class RootAggregator(StreamServer):
    """Terminal aggregator of a multi-gateway federated round.

    Parameters
    ----------
    schema, epsilon, sampled_attributes, protocols:
        The collection contract, exactly as for
        :class:`~repro.session.LDPServer` — every edge (and every client
        behind every edge) must operate under the same one.
    max_frame_bytes:
        Reject pushes longer than this before allocating them.
    store:
        Optional :class:`~repro.storage.CheckpointStore`. With it every
        folded push is durable *before* its ack (an acknowledged epoch
        survives SIGKILL), and :meth:`start` recovers the newest intact
        edge table. The caller owns the store's lifetime.
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry` (one is
        created when omitted, so :meth:`stats_snapshot` and the
        ``STATS`` socket request always work).
    """

    KIND = STATE_STREAM

    def __init__(
        self,
        schema: Schema,
        epsilon: float,
        sampled_attributes: Optional[int] = None,
        protocols: ProtocolSpec = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        store: Optional[CheckpointStore] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(max_frame_bytes, store, metrics)
        # The root's read view: merged() installs the merge of every
        # edge's state into it. Its collectors and contract are the ones
        # every edge state is validated against.
        self._view = LDPServer(schema, epsilon, sampled_attributes, protocols)
        self._edges: Dict[bytes, _Record] = {}
        # Counts live in the registry only: a push is "accepted" once
        # validated, folded into the edge table and (with a store)
        # persisted durably.
        registry = self.telemetry
        self._m_pushes_accepted = registry.counter(
            "root_pushes_accepted_total",
            "Edge state pushes validated, folded and acknowledged",
        )
        self._m_deltas_applied = registry.counter(
            "root_deltas_applied_total",
            "Accepted pushes that arrived as deltas over a stored base",
        )
        self._m_bytes_received = registry.counter(
            "root_push_bytes_received_total",
            "Payload bytes of accepted state pushes",
        )
        self._m_fold_seconds = registry.histogram(
            "root_fold_seconds",
            "Decode + validate + fold (+ durable checkpoint) per push",
        )
        self._m_edge_epoch = registry.gauge(
            "root_edge_epoch",
            "Newest epoch folded per edge",
            labels=("edge",),
        )
        self._m_edge_users = registry.gauge(
            "root_edge_users",
            "Users covered by the newest folded snapshot, per edge",
            labels=("edge",),
        )

    # ------------------------------------------------------------ lifecycle

    @property
    def contract(self) -> CollectionContract:
        """The collection contract every edge push must match."""
        return self._view.contract

    async def start(
        self, host: str = "127.0.0.1", port: int = 0, ssl=None
    ) -> "RootAggregator":
        """Bind the listening socket (recovering the edge table first).

        With a checkpoint store configured, the newest intact federation
        checkpoint is recovered before the socket opens: the edge table
        (epochs and snapshots) resumes, every reconnecting edge hears
        its true watermark, and the round continues as if the root had
        never died. ``ssl`` is an optional server-side
        :class:`ssl.SSLContext` — with it the root only speaks TLS.
        """
        if self._tcp is not None:
            raise TransportError("root aggregator is already serving")
        if self.store is not None:
            document = self.store.recover()
            if document is not None:
                edges = parse_federation_checkpoint(document, self.contract)
                # Every recovered state is validated before the socket
                # opens; a foreign one keeps its ContractMismatchError.
                recovered: Dict[bytes, _Record] = {}
                for edge_id, (epoch, state, counters) in edges.items():
                    try:
                        recovered[edge_id] = (epoch, self._value(state), counters)
                    except WireFormatError as exc:
                        raise CheckpointCorruptError(
                            "edge %s carries a damaged state in the "
                            "federation checkpoint: %s" % (edge_id.hex(), exc)
                        ) from None
                self._edges = recovered
                for edge_id, (epoch, state, _) in recovered.items():
                    self._observe_edge(edge_id, epoch, state)
                emit(
                    self._log,
                    "recovery_replayed",
                    edges=len(self._edges),
                    users=self.users,
                )
        await self._listen(host, port, ssl)
        return self

    async def stop(self, grace: Optional[float] = None) -> None:
        """Stop accepting and settle the open push connections.

        Folded pushes are already durable (when a store is configured)
        and already in the edge table, so there is nothing to drain —
        settling just lets an in-flight push finish its ack. ``grace``
        bounds the wait; after it (or immediately when ``None``)
        remaining connections are closed.
        """
        await self._settle(grace is None, grace)

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # --------------------------------------------------------------- waiting

    @property
    def users(self) -> int:
        """Users covered by the newest folded snapshot of every edge.

        Each user reports through exactly one edge and edge snapshots
        are cumulative, so the sum across edges counts every user once.
        """
        return sum(state.users for _, state, _ in self._edges.values())

    @property
    def edges(self) -> int:
        """Edges that have pushed (or been recovered) so far."""
        return len(self._edges)

    #: Pushes validated, folded and acknowledged.
    pushes_accepted = counted("_m_pushes_accepted")
    #: Accepted pushes that arrived as deltas over a stored base.
    deltas_applied = counted("_m_deltas_applied")
    #: Payload bytes of accepted pushes.
    bytes_received = counted("_m_bytes_received")
    #: Pushes refused after the handshake.
    pushes_rejected = counted("_m_rejected")
    #: Replayed epochs acknowledged without folding.
    pushes_deduped = counted("_m_deduped")

    def _users_covered(self) -> int:
        return self.users

    # -------------------------------------------------------------- results

    def merged(self) -> LDPServer:
        """The root's server, holding the merge of every edge's newest state.

        The merge is re-installed on every call, so the returned server
        always reflects the edge table; ingest into a server of your own.
        """
        self._check_folds()
        empty = SessionState(self._view.collectors, self.contract)
        states = [self._edges[edge_id][1] for edge_id in sorted(self._edges)]
        self._view._install(empty.merged(*states))
        return self._view

    def estimate(
        self, postprocess: Optional[Postprocessor] = None
    ) -> SessionEstimate:
        """Federated estimates over every edge's newest snapshot.

        Deterministic merge order (edge ids sorted) — not that it could
        matter: aggregation is exactly additive, so any order yields the
        same bits.
        """
        return self.merged().estimate(postprocess=postprocess)

    # ------------------------------------------------------------- telemetry

    def stats_snapshot(self) -> Dict[str, Any]:
        """Root counters, per-edge records and the aggregated edge view.

        ``counters`` are integer reads of the root's registry; ``edges``
        maps edge id (hex) to its newest epoch, covered users and
        self-reported gateway counters; ``edge_totals`` sums those
        reported counters across edges — one snapshot describes the
        whole topology.
        """
        edge_totals: Dict[str, int] = {}
        edges: Dict[str, Any] = {}
        for edge_id, (epoch, state, counters) in sorted(self._edges.items()):
            edges[edge_id.hex()] = {
                "epoch": epoch,
                "users": state.users,
                "counters": dict(counters),
            }
            for name, value in counters.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    edge_totals[name] = edge_totals.get(name, 0) + value
        counters = {
            "pushes_accepted": self.pushes_accepted,
            "pushes_deduped": self.pushes_deduped,
            "deltas_applied": self.deltas_applied,
            "pushes_rejected": self.pushes_rejected,
            "handshakes_rejected": self.handshakes_rejected,
            "rejections_total": self.pushes_rejected + self.handshakes_rejected,
            "bytes_received": self.bytes_received,
            "checkpoints_written": self.checkpoints_written,
            "edges": len(self._edges),
            "users": self.users,
        }
        return {
            "counters": counters,
            "edges": edges,
            "edge_totals": edge_totals,
            "metrics": self.telemetry.snapshot(),
        }

    def _observe_edge(
        self, edge_id: bytes, epoch: int, state: SessionState
    ) -> None:
        label = edge_id.hex()[:8]
        self._m_edge_epoch.labels(edge=label).set(epoch)
        self._m_edge_users.labels(edge=label).set(state.users)

    def _value(self, document: Mapping[str, Any]) -> SessionState:
        return SessionState.from_document(
            document, self._view.collectors, self.contract
        )

    # ---------------------------------------------------------------- pushes

    def _watermark(self, edge_id: bytes) -> int:
        return self._edges[edge_id][0] if edge_id in self._edges else 0

    async def _accept(
        self, edge_id: bytes, epoch: int, payload: bytes
    ) -> Optional[Refusal]:
        """Install one push above the watermark, durably before its ack.

        Snapshot epochs replace the edge's record, and delta epochs —
        accepted only when their ``base_epoch`` names exactly the record
        the root holds — are added to it through the exact merge, so the
        installed state equals the snapshot the edge would have shipped,
        bit for bit. Unlike report streams, epochs may skip ahead — the
        installed state is always cumulative, so epoch ``n`` covers
        everything any skipped epoch would have.
        """
        started = self._clock()
        previous = self._edges.get(edge_id)
        try:
            push = decode_state_push(payload, self.contract)
            delta = push.kind == PUSH_KIND_DELTA
            if delta and previous is None:
                raise WireFormatError(
                    "delta push over base epoch %d from edge %s, but this "
                    "root holds no state for it — a delta needs the "
                    "snapshot it builds on" % (push.base_epoch, edge_id.hex())
                )
            if delta and push.base_epoch != previous[0]:
                raise WireFormatError(
                    "delta push builds on epoch %d but this root holds "
                    "epoch %d for edge %s — the edge must re-ship a full "
                    "snapshot" % (push.base_epoch, previous[0], edge_id.hex())
                )
            # Validated before it is installed: a malformed state must
            # not replace a good one (merged() would fail after the ack).
            state = self._value(push.state)
        except ContractMismatchError as exc:
            return Refusal("contract_mismatch", STATUS_CONTRACT_MISMATCH, exc)
        except WireFormatError as exc:
            return Refusal("invalid", STATUS_WIRE_ERROR, exc)
        if delta:
            # Exact merge onto the stored base: the installed state
            # equals the full state the edge holds, bit for bit.
            state = previous[1].merged(state)
        self._edges[edge_id] = (epoch, state, push.counters)
        if self.store is not None:
            # Durable BEFORE the ack: once the edge hears OK, its
            # snapshot survives a root SIGKILL.
            try:
                document = federation_checkpoint_document(
                    self.contract,
                    {
                        key: (at, value.to_document(), reported)
                        for key, (at, value, reported) in self._edges.items()
                    },
                )
                self._count_checkpoint(self.store.save(document))
            # repro: allow[broad-except] -- poison rationale: any
            # checkpoint failure (typed or not) must roll the fold back
            # and poison the round before the ack, or un-durable state
            # would satisfy wait_for_users and leak into merged() despite
            # having no checkpoint behind it.
            except Exception as exc:
                if previous is None:
                    del self._edges[edge_id]
                else:
                    self._edges[edge_id] = previous
                emit(
                    self._log,
                    "checkpoint_failed",
                    level=logging.ERROR,
                    edge_id=edge_id.hex(),
                    error=str(exc),
                )
                self._poison(exc)
                return Refusal(
                    "checkpoint_failed",
                    STATUS_TRANSPORT_ERROR,
                    exc,
                    "root checkpoint failed: %s" % exc,
                )
        self._m_pushes_accepted.inc()
        self._m_bytes_received.inc(len(payload))
        if delta:
            self._m_deltas_applied.inc()
        self._m_fold_seconds.observe(self._clock() - started)
        self._observe_edge(edge_id, epoch, state)
        emit(
            self._log,
            "push_folded",
            level=logging.DEBUG,
            edge_id=edge_id.hex(),
            epoch=epoch,
            kind=push.kind,
            users=state.users,
            bytes=len(payload),
        )
        return None


async def serve_root(
    schema: Schema,
    epsilon: float,
    sampled_attributes: Optional[int] = None,
    protocols: ProtocolSpec = None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    store: Optional[CheckpointStore] = None,
    metrics: Optional[MetricsRegistry] = None,
    ssl=None,
) -> RootAggregator:
    """Start a :class:`RootAggregator` on ``host:port`` and return it.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`RootAggregator.port`). The caller owns the round's lifecycle:
    typically ``await root.wait_for_users(n)``, then ``await
    root.stop()`` and read :meth:`~RootAggregator.estimate`.
    """
    root = RootAggregator(
        schema,
        epsilon,
        sampled_attributes,
        protocols,
        max_frame_bytes=max_frame_bytes,
        store=store,
        metrics=metrics,
    )
    return await root.start(host, port, ssl=ssl)
