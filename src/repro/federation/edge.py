"""Edge aggregators: a local collection tier that ships state upstream.

:class:`EdgeAggregator` is the middle of the federation hierarchy. It
runs a full :class:`~repro.transport.CollectionGateway` locally —
clients connect to it exactly as they would to a standalone gateway,
same handshake, same resume semantics, same optional checkpoint store —
and folds accepted frames into its own
:class:`~repro.session.ShardedServer`. Periodically (every ``N``
accepted frames, every ``T`` seconds, or both) it cuts a cumulative
:meth:`~repro.session.LDPServer.state_dict` snapshot and pushes it
upstream to a :class:`~repro.federation.RootAggregator` through a
:class:`~repro.federation.StatePusher` — as the accumulator *delta*
since the last acknowledged push whenever the root provably holds that
base (same connection, matching watermark), and as the full snapshot
otherwise (first push, reconnects, restarts, refused deltas).

Nothing is ever lost between the tiers. Locally the gateway's own
durable checkpoints cover acknowledged frames; upstream every push —
snapshot or delta applied to the root's stored state — leaves the root
holding the edge's full cumulative state, so a push that never arrived
is subsumed by the next one, and an edge that crashed resumes from its
checkpoint and re-ships everything it durably held under the same edge
id. The root's epoch watermark dedups whatever overlaps. The federated
estimate therefore stays bit-identical to one-shot ingestion of every
client's reports — the property the whole tier is built around.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Dict, Optional, Tuple

from ..exceptions import (
    StateDeltaError,
    TransportError,
    WireFormatError,
    positive_count,
    positive_seconds,
)
from ..session.client import ProtocolSpec
from ..session.schema import Schema
from ..session.server import Postprocessor, SessionEstimate
from ..session.sharded import ShardedServer
from ..session.state import SessionState
from ..storage import CheckpointStore
from ..telemetry import MetricsRegistry, counted, emit, event_logger
from ..transport.framing import DEFAULT_MAX_FRAME_BYTES
from ..transport.gateway import CollectionGateway
from ..transport.stream import RETRYABLE, _as_sender_id, retry_connect
from ..wire.contract import CollectionContract
from .pusher import StatePusher


class EdgeAggregator:
    """One edge of a federated round: local gateway, upstream pusher.

    Parameters
    ----------
    schema, epsilon, sampled_attributes, protocols:
        The collection contract — necessarily the same one the root and
        every client operate under.
    shards, max_frame_bytes:
        Local ingestion shape, as for
        :class:`~repro.transport.CollectionGateway`.
    store, checkpoint_every_frames, checkpoint_every_seconds:
        Optional local durability, passed to the gateway verbatim. With
        a store the edge survives SIGKILL: it recovers its aggregation
        state on :meth:`start` and its next push re-ships everything it
        durably held.
    edge_id:
        16 raw bytes naming this edge's push stream at the root (random
        unless given). Pass a stable id so restarts resume the same
        stream instead of registering a ghost edge.
    push_every_frames, push_every_seconds:
        Upstream push triggers; either, both, or neither (``None`` means
        pushes happen only at :meth:`stop`, which always pushes).
    push_attempts, push_retry_delay:
        Transport-failure retry policy per push: at most
        ``push_attempts`` connections, ``push_retry_delay`` seconds
        apart (finite and ``>= 0``). Each reconnect re-learns the root's
        epoch watermark, so retries are always safe.
    metrics:
        Optional shared :class:`~repro.telemetry.MetricsRegistry`; one
        is created when omitted. The gateway, the local shards, the
        store and the pusher all instrument against it.
    """

    def __init__(
        self,
        schema: Schema,
        epsilon: float,
        sampled_attributes: Optional[int] = None,
        protocols: ProtocolSpec = None,
        shards: int = 2,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        store: Optional[CheckpointStore] = None,
        checkpoint_every_frames: Optional[int] = None,
        checkpoint_every_seconds: Optional[float] = None,
        edge_id: Optional[bytes] = None,
        push_every_frames: Optional[int] = None,
        push_every_seconds: Optional[float] = None,
        push_attempts: int = 5,
        push_retry_delay: float = 0.5,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if push_every_frames is not None:
            push_every_frames = positive_count(
                "push_every_frames", push_every_frames, TransportError
            )
        if push_every_seconds is not None:
            push_every_seconds = positive_seconds(
                "push_every_seconds", push_every_seconds, TransportError
            )
        push_attempts = positive_count(
            "push_attempts", push_attempts, TransportError
        )
        push_retry_delay = positive_seconds(
            "push_retry_delay", push_retry_delay, TransportError, zero=True
        )
        self.telemetry = metrics if metrics is not None else MetricsRegistry()
        self.server = ShardedServer(
            schema, epsilon, sampled_attributes, protocols, shards=shards
        )
        self.gateway = CollectionGateway(
            self.server,
            max_frame_bytes=max_frame_bytes,
            store=store,
            checkpoint_every_frames=checkpoint_every_frames,
            checkpoint_every_seconds=checkpoint_every_seconds,
            metrics=self.telemetry,
        )
        self.edge_id = _as_sender_id(edge_id)
        self.push_every_frames = push_every_frames
        self.push_every_seconds = push_every_seconds
        self.push_attempts = push_attempts
        self.push_retry_delay = push_retry_delay
        self._upstream: Optional[Tuple[str, int]] = None
        self._upstream_ssl = None
        self._pusher: Optional[StatePusher] = None
        self._push_lock = asyncio.Lock()
        self._wake: Optional[asyncio.Event] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._stopping = False
        self._frames_since_push = 0
        #: State and epoch of the last push the root acknowledged — the
        #: base the next delta push builds on. ``None`` forces a full
        #: snapshot (first push, failed delta, edge restart).
        self._base_state: Optional[SessionState] = None
        self._base_epoch = 0
        self.last_epoch = 0
        self.last_push_error: Optional[Exception] = None
        self._log = event_logger("edge")
        registry = self.telemetry
        self._m_pushes = registry.counter(
            "edge_pushes_completed_total",
            "Upstream state pushes acknowledged by the root",
        )
        self._m_push_retries = registry.counter(
            "edge_push_retries_total",
            "Push attempts that failed with a transport error",
        )
        self._m_delta_pushes = registry.counter(
            "edge_delta_pushes_total",
            "Acknowledged pushes shipped as deltas instead of snapshots",
        )
        self._m_last_epoch = registry.gauge(
            "edge_last_epoch",
            "Epoch of the newest acknowledged upstream push",
        )
        self._m_unpushed = registry.gauge(
            "edge_unpushed_frames",
            "Accepted frames not yet covered by an acknowledged push",
        )
        self.gateway.add_frame_listener(self._on_frame)

    # ------------------------------------------------------------ lifecycle

    @property
    def contract(self) -> CollectionContract:
        """The collection contract clients and the root must match."""
        return self.server.contract

    @property
    def port(self) -> int:
        """The local gateway's bound TCP port."""
        return self.gateway.port

    @property
    def users(self) -> int:
        """Users folded into the local shards so far."""
        return self.server.users

    #: Upstream pushes acknowledged by the root.
    pushes_completed = counted("_m_pushes")
    #: Acknowledged pushes shipped as deltas instead of snapshots.
    delta_pushes = counted("_m_delta_pushes")
    #: Push attempts that failed with a transport error.
    push_retries = counted("_m_push_retries")

    async def start(
        self,
        upstream_host: str,
        upstream_port: int,
        host: str = "127.0.0.1",
        port: int = 0,
        ssl=None,
        upstream_ssl=None,
    ) -> "EdgeAggregator":
        """Start the local gateway and the upstream push loop.

        ``ssl`` (server-side context) makes the *local* client hop TLS;
        ``upstream_ssl`` (client-side context) makes the push hop TLS —
        the two hops are independent, so a deployment can encrypt either,
        both, or neither. The upstream connection itself is opened
        lazily at the first push, so the edge comes up even while the
        root is still starting.
        """
        if self._loop_task is not None:
            raise TransportError("edge aggregator is already serving")
        self._upstream = (upstream_host, int(upstream_port))
        self._upstream_ssl = upstream_ssl
        self._stopping = False
        self.last_push_error = None
        await self.gateway.start(host, port, ssl=ssl)
        self._wake = asyncio.Event()
        self._loop_task = asyncio.ensure_future(self._push_loop())
        emit(
            self._log,
            "edge_started",
            edge_id=self.edge_id.hex(),
            port=self.port,
            upstream="%s:%d" % self._upstream,
        )
        return self

    async def stop(
        self, abort_connections: bool = False, grace: Optional[float] = None
    ) -> None:
        """Stop the local round, push the final state, close upstream.

        The gateway stops first (connections settled, final local
        checkpoint when a store is configured), so the closing push
        covers *every* acknowledged frame. The final push always
        happens — even when no frame arrived since the last one — so the
        root provably holds this edge's complete round; a push failure
        here propagates after cleanup, because an edge that could not
        deliver its final state has not finished the round.
        """
        self._stopping = True
        if self._wake is not None:
            self._wake.set()
        task, self._loop_task = self._loop_task, None
        if task is not None:
            await task
        await self.gateway.stop(
            abort_connections=abort_connections, grace=grace
        )
        push_error: Optional[Exception] = None
        try:
            await self.push_now()
        # repro: allow[broad-except] -- capture-and-reraise: the final push
        # failure (whatever its type) must wait for pusher cleanup and the
        # stop event, then propagate below; nothing is swallowed.
        except Exception as exc:
            push_error = exc
        await self._close_pusher()
        emit(
            self._log,
            "edge_stopped",
            edge_id=self.edge_id.hex(),
            pushes=self.pushes_completed,
            last_epoch=self.last_epoch,
            users=self.users,
        )
        if push_error is not None:
            raise push_error

    async def wait_for_users(self, count: int) -> None:
        """Wait until the local gateway has accepted ``count`` users."""
        await self.gateway.wait_for_users(count)

    async def __aenter__(self) -> "EdgeAggregator":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -------------------------------------------------------------- pushing

    def _on_frame(self) -> None:
        # Runs synchronously after a frame's fold, before its ack: cheap
        # bookkeeping only.
        self._frames_since_push += 1
        self._m_unpushed.set(self._frames_since_push)
        if (
            self.push_every_frames is not None
            and self._frames_since_push >= self.push_every_frames
            and self._wake is not None
        ):
            self._wake.set()

    async def _push_loop(self) -> None:
        while not self._stopping:
            if self._wake is None:
                raise TransportError(
                    "push loop is running without its wake event; "
                    "start() was never awaited"
                )
            if self.push_every_seconds is not None:
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), self.push_every_seconds
                    )
                except asyncio.TimeoutError:
                    pass  # timer push
            else:
                await self._wake.wait()
            if self._stopping:
                return
            self._wake.clear()
            if self._frames_since_push == 0:
                continue  # idle timer tick: nothing new to ship
            try:
                await self.push_now()
            # repro: allow[broad-except] -- retry rationale: the push loop
            # must survive any upstream failure; the error is recorded and
            # the next trigger (and the final push at stop) retries with
            # the full cumulative state, so a flapping root costs latency,
            # never data.
            except Exception as exc:
                self.last_push_error = exc
                emit(
                    self._log,
                    "push_failed",
                    level=logging.ERROR,
                    edge_id=self.edge_id.hex(),
                    error=str(exc),
                )

    async def push_now(self) -> int:
        """Cut a cumulative snapshot and deliver it upstream; its epoch.

        Serialised: concurrent callers queue on a lock, so snapshots go
        out in epoch order. The gateway folds every frame before its
        ack, so the snapshot covers every frame acknowledged before the
        call.

        Whenever the connection's acknowledged epoch matches this edge's
        recorded base — i.e. the root provably holds the exact state the
        last ack covered — only the accumulator *delta* since that base
        goes on the wire; otherwise (first push, reconnect onto a
        different watermark, restart) the full snapshot ships. Either
        way the root ends up holding the same cumulative state, so the
        choice is invisible to correctness.

        Transport failures are retried up to ``push_attempts`` times
        with a fresh connection (and a re-learned epoch watermark) each
        time; a refused *delta* costs one retry and falls back to a full
        snapshot; other typed rejections — contract mismatch, malformed
        push — propagate immediately, because the root will refuse them
        again. A gateway whose fold failed raises its
        :class:`~repro.exceptions.TransportError` before any state is cut.
        """
        async with self._push_lock:
            # A poisoned gateway's shard may hold a half-done fold;
            # pushing it would let the root serve a partial aggregate.
            self.gateway._check_folds()
            frames = self.gateway.frames_accepted
            state = self.server.state
            counters = {
                "frames_accepted": self.gateway.frames_accepted,
                "frames_rejected": self.gateway.frames_rejected,
                "frames_deduped": self.gateway.frames_deduped,
                "handshakes_rejected": self.gateway.handshakes_rejected,
                "bytes_received": self.gateway.bytes_received,
                "users_accepted": self.gateway.users_accepted,
            }
            as_delta = False

            async def attempt_push() -> int:
                nonlocal as_delta
                as_delta = False
                pusher = await self._ensure_pusher()
                if (
                    self._base_state is not None
                    and pusher.acked_epoch == self._base_epoch
                ):
                    try:
                        delta = state.delta(self._base_state)
                    except StateDeltaError:
                        # Not a prefix pair (e.g. the local server was
                        # reset mid-round): ship it all.
                        self._base_state = None
                    else:
                        as_delta = True
                        return await pusher.push(
                            delta.to_document(),
                            counters,
                            kind="delta",
                            base_epoch=self._base_epoch,
                        )
                return await pusher.push(state.to_document(), counters)

            async def failed(attempt: int, exc: BaseException) -> None:
                refused = isinstance(exc, WireFormatError)
                if refused:
                    if not as_delta:
                        raise exc
                    # The root refused the delta (base mismatch after an
                    # ack raced a crash, say). Forget the base so the
                    # next attempt ships the authoritative full snapshot.
                    self._base_state = None
                    self._base_epoch = 0
                self._m_push_retries.inc()
                extra = {} if refused else {"attempts": self.push_attempts}
                emit(
                    self._log,
                    "delta_refused" if refused else "push_retry",
                    level=logging.WARNING,
                    edge_id=self.edge_id.hex(),
                    attempt=attempt,
                    **extra,
                    error=str(exc),
                )
                await self._close_pusher()

            epoch = await retry_connect(
                attempt_push,
                self.push_attempts,
                self.push_retry_delay,
                "state not pushed",
                failed,
                (*RETRYABLE, WireFormatError),
            )
            if as_delta:
                self._m_delta_pushes.inc()
            self._base_state = state
            self._base_epoch = epoch
            self.last_epoch = epoch
            self.last_push_error = None
            self._frames_since_push = max(
                0, self.gateway.frames_accepted - frames
            )
            self._m_pushes.inc()
            self._m_last_epoch.set(epoch)
            self._m_unpushed.set(self._frames_since_push)
            return epoch

    async def _ensure_pusher(self) -> StatePusher:
        if self._upstream is None:
            raise TransportError("edge aggregator is not serving")
        if self._pusher is None:
            host, port = self._upstream
            self._pusher = await StatePusher.connect(
                host,
                port,
                self.contract,
                self.edge_id,
                metrics=self.telemetry,
                ssl=self._upstream_ssl,
            )
        return self._pusher

    async def _close_pusher(self) -> None:
        pusher, self._pusher = self._pusher, None
        if pusher is not None:
            await pusher.close()

    # ------------------------------------------------------------- estimate

    def estimate(
        self, postprocess: Optional[Postprocessor] = None
    ) -> SessionEstimate:
        """This edge's *local* estimates (the root holds the global view)."""
        return self.server.estimate(postprocess=postprocess)

    def stats_snapshot(self) -> Dict[str, Any]:
        """The gateway snapshot extended with this edge's push counters."""
        snapshot = self.gateway.stats_snapshot()
        snapshot["federation"] = {
            "edge_id": self.edge_id.hex(),
            "pushes_completed": self.pushes_completed,
            "delta_pushes": self.delta_pushes,
            "push_retries": self.push_retries,
            "last_epoch": self.last_epoch,
            "unpushed_frames": self._frames_since_push,
        }
        return snapshot
