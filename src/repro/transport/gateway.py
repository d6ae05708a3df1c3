"""Asyncio TCP collection gateway: sockets in, sharded aggregation out.

:class:`CollectionGateway` is the ingestion front of a collection round.
It listens on a TCP port, handshakes every connection against its
:class:`~repro.wire.CollectionContract` (fingerprint compared before any
payload bytes flow), and folds each accepted frame into one shard of a
:class:`~repro.session.ShardedServer`, round-robin, before acking it —
the shape of :class:`~repro.federation.RootAggregator`'s push intake.

Backpressure is the fold itself: a connection coroutine reads its next
frame only after the current one is validated, folded and acknowledged,
so a slow fold stops its socket from being read, the kernel's TCP window
closes, and the *sender's* ack wait blocks. Nothing is dropped, and at
most one validated batch per connection is held in memory.

Durability is opt-in: hand the gateway a
:class:`~repro.storage.CheckpointStore` and it periodically persists a
*round checkpoint* — the exact aggregation snapshot plus, per sender id,
the highest contiguously acknowledged frame sequence number. A restarted
gateway recovers the newest intact checkpoint, tells each reconnecting
sender its watermark (so the sender skips durable frames), and
acknowledges-without-folding any duplicate that arrives anyway. Because
aggregation is exact, a round interrupted by SIGKILL and resumed from
checkpoint finishes with estimates bit-identical to one that never
crashed — zero double-counted frames. Frame-count triggers are honoured
*before* the triggering frame's ack goes out, so a sender that saw all
its acks knows its whole stream is durable.

Shutdown settles and checkpoints: :meth:`CollectionGateway.stop` stops
accepting, lets in-flight connections finish and writes a final
checkpoint when a store is configured. There is nothing to drain, since
every acknowledged frame is already folded. Because aggregation is exact
(:mod:`repro.session.streaming`), the estimate is bit-identical to
one-shot in-process ingestion of the same report multiset — the
acceptance invariant of the socket path.

Frames are validated and folded *before* they are acknowledged: decode
(CRC, structure), contract fingerprint, full server-side payload
validation and the fold all happen on the connection coroutine, so an
ack means "this batch is in the estimate". A frame that fails validation
is answered with a typed error status and the connection is closed; the
aggregation state is never touched by a bad frame. A fold that raises
poisons the gateway and refuses its frame.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Dict, List, Optional

from ..session.sharded import ShardedServer
from ..session.server import LDPServer, Postprocessor, SessionEstimate
from ..exceptions import (
    ContractMismatchError,
    DimensionError,
    DomainError,
    StorageError,
    TransportError,
    WireFormatError,
    positive_count,
    positive_seconds,
)
from ..storage import (
    CheckpointStore,
    parse_round_checkpoint,
    round_checkpoint_document,
)
from ..telemetry import MetricsRegistry, counted, emit
from ..wire.codec import iter_attribute_blocks
from ..wire.contract import CollectionContract
from .framing import (
    DEFAULT_MAX_FRAME_BYTES,
    STATUS_CONTRACT_MISMATCH,
    STATUS_WIRE_ERROR,
)
from .stream import REPORT_STREAM, Refusal, StreamServer


class CollectionGateway(StreamServer):
    """Socket ingestion front over a :class:`~repro.session.ShardedServer`.

    Parameters
    ----------
    server:
        The sharded collector the gateway feeds, one frame per shard in
        turn. Folds run on the event loop's one thread, so they need no
        locks.
    max_frame_bytes:
        Reject frames longer than this before allocating them.
    store:
        Optional :class:`~repro.storage.CheckpointStore` for round
        checkpoints. :meth:`start` recovers the newest intact checkpoint
        from it (state, watermarks and counters resume), :meth:`stop`
        writes a final one, and the ``checkpoint_every_*`` triggers
        write periodic ones in between. The caller owns the store's
        lifetime (the gateway never closes it).
    checkpoint_every_frames:
        Checkpoint after this many accepted frames — *before* the
        triggering frame's ack is sent, so an acknowledged frame on a
        frame-triggered gateway is a durable frame.
    checkpoint_every_seconds:
        Checkpoint at least this often (in gateway-loop time) while
        frames are arriving.
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry` to instrument
        against (one is created when omitted). The gateway's counts are
        read from it, and it is attached to the checkpoint store and the
        session shards, so one snapshot covers the whole ingest path.
    """

    KIND = REPORT_STREAM

    def __init__(
        self,
        server: ShardedServer,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        store: Optional[CheckpointStore] = None,
        checkpoint_every_frames: Optional[int] = None,
        checkpoint_every_seconds: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if store is None and (
            checkpoint_every_frames is not None
            or checkpoint_every_seconds is not None
        ):
            raise StorageError(
                "checkpoint triggers need a checkpoint store"
            )
        if checkpoint_every_frames is not None:
            checkpoint_every_frames = positive_count(
                "checkpoint_every_frames", checkpoint_every_frames, StorageError
            )
        if checkpoint_every_seconds is not None:
            checkpoint_every_seconds = positive_seconds(
                "checkpoint_every_seconds", checkpoint_every_seconds, StorageError
            )
        super().__init__(max_frame_bytes, store, metrics)
        self.server = server
        self.checkpoint_every_frames = checkpoint_every_frames
        self.checkpoint_every_seconds = checkpoint_every_seconds
        self._frame_listeners: List[Any] = []
        self._cursor = 0
        # Resume bookkeeping: highest contiguously acknowledged frame
        # sequence number per sender id.
        self._acked: Dict[bytes, int] = {}
        self._timer: Optional[asyncio.Task] = None
        self._frames_since_checkpoint = 0
        # Counts live in the registry only: "accepted" means validated,
        # folded and acked.
        registry = self.telemetry
        self._m_frames_accepted = registry.counter(
            "gateway_frames_accepted_total",
            "Frames validated, folded and acknowledged",
        )
        self._m_users_accepted = registry.counter(
            "gateway_users_accepted_total",
            "Users carried by accepted frames",
        )
        self._m_bytes_received = registry.counter(
            "gateway_bytes_received_total",
            "Payload bytes of accepted frames",
        )
        self._m_heartbeats = registry.counter(
            "gateway_heartbeats_total",
            "Zero-user liveness frames accepted",
        )
        self._m_ack_latency = registry.histogram(
            "gateway_ack_latency_seconds",
            "Frame read to OK ack (validation, fold and any triggered "
            "checkpoint)",
        )
        self._m_fold_seconds = registry.histogram(
            "gateway_fold_seconds",
            "Time folding one validated batch into its shard",
        )
        self._m_checkpoint_seconds = registry.histogram(
            "gateway_checkpoint_seconds",
            "Snapshot + store.save per round checkpoint",
        )
        server.attach_telemetry(registry)

    # ------------------------------------------------------------ lifecycle

    @property
    def contract(self) -> CollectionContract:
        """The collection contract every connection must match."""
        return self.server.contract

    def add_frame_listener(self, listener) -> None:
        """Register a zero-argument callable invoked per accepted frame.

        Called synchronously right after a frame's fold (counters
        updated, watermark advanced) and before its ack, so a listener
        that counts frames sees exactly the accepted sequence and the
        server already holds every frame it counted. Listeners must be
        cheap and must not raise; the federation edge uses one to wake
        its push loop.
        """
        self._frame_listeners.append(listener)

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ssl=None,
    ) -> "CollectionGateway":
        """Bind the listening socket (and start any checkpoint timer).

        With a checkpoint store configured, the newest intact round
        checkpoint is recovered *first*: the aggregation state, the
        per-sender watermarks and the frame counters all resume, and the
        restored round continues as if the process had never died. A
        checkpoint written under a different contract raises
        :class:`~repro.exceptions.ContractMismatchError` naming both
        fingerprints; a damaged store raises
        :class:`~repro.exceptions.CheckpointCorruptError`.

        ``ssl`` is an optional server-side :class:`ssl.SSLContext`; with
        it the gateway only speaks TLS (a plaintext client cannot
        handshake) — the framing above the encrypted stream is
        unchanged.
        """
        if self._tcp is not None:
            raise TransportError("gateway is already serving")
        if self.store is not None:
            document = self.store.recover()
            if document is not None:
                state, progress, frames = parse_round_checkpoint(
                    document, self.contract
                )
                self.server.load_state_dict(state)
                self._acked = dict(progress)
                self._frames_since_checkpoint = 0
                self._m_frames_accepted.inc(frames)
                self._m_users_accepted.inc(self.server.users)
                emit(
                    self._log,
                    "recovery_replayed",
                    frames=frames,
                    users=self.server.users,
                    senders=len(self._acked),
                )
        # Bind before starting the timer: a failed bind (port in use)
        # must not leave a timer task behind.
        await self._listen(host, port, ssl)
        if self.checkpoint_every_seconds is not None:
            self._timer = asyncio.ensure_future(self._checkpoint_timer())
        return self

    async def stop(
        self,
        abort_connections: bool = False,
        grace: Optional[float] = None,
    ) -> None:
        """Graceful shutdown.

        Stops accepting, waits for in-flight connections to finish and
        writes a final checkpoint when a store is configured (and
        something changed since the last one). ``abort_connections``
        closes connections immediately instead of waiting; ``grace``
        waits up to that many seconds and then closes whatever is still
        open — so one silent peer cannot hang the shutdown forever.
        Every acknowledged frame was folded before its ack. A frame in
        flight when its connection was aborted may be folded *without*
        its ack reaching the sender — harmless under resume: the
        gateway's watermark covers it, so a retry is deduplicated
        instead of double-counted.
        """
        if self._timer is not None:
            self._timer.cancel()
            await asyncio.gather(self._timer, return_exceptions=True)
            self._timer = None
        await self._settle(abort_connections, grace)
        if (
            self.store is not None
            and self._fold_error is None
            and (self._frames_since_checkpoint or not self.checkpoints_written)
        ):
            await self.checkpoint()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop(abort_connections=True)

    def _users_covered(self) -> int:
        return self.users_accepted

    # ----------------------------------------------------------- checkpoints

    async def checkpoint(self) -> None:
        """Persist a round checkpoint now (state + sender watermarks).

        Every acknowledged frame is already folded, and nothing here
        awaits, so no frame can land between the snapshot and the save:
        the saved state covers *exactly* the acknowledged frames — every
        watermark in the checkpoint is a frame folded into the saved
        state, nothing more, nothing less.
        """
        if self.store is None:
            raise StorageError("this gateway has no checkpoint store")
        started = self._clock()
        frames = self._frames_since_checkpoint
        self._check_folds()
        document = round_checkpoint_document(
            self.server.state_dict(), self._acked, self.frames_accepted
        )
        nbytes = self.store.save(document)
        self._frames_since_checkpoint = 0
        seconds = self._clock() - started
        self._count_checkpoint(nbytes)
        self._m_checkpoint_seconds.observe(seconds)
        emit(
            self._log,
            "checkpoint_cut",
            frames=frames,
            users=self.server.users,
            bytes=nbytes,
            seconds=round(seconds, 6),
        )

    async def _checkpoint_timer(self) -> None:
        """Time-triggered checkpoints (only when frames arrived since)."""
        period = self.checkpoint_every_seconds
        while True:
            await asyncio.sleep(period)
            if not self._frames_since_checkpoint:
                continue
            try:
                await self.checkpoint()
            # repro: allow[broad-except] -- poison rationale: a timer
            # checkpoint failure of any type must stop acks (durability
            # can no longer be promised), so the gateway is poisoned.
            except Exception as exc:
                self._fail("checkpoint", exc, trigger="timer")
                return

    # ---------------------------------------------------------------- frames

    def _watermark(self, sender_id: bytes) -> int:
        return self._acked.get(sender_id, 0)

    async def _accept(
        self, sender_id: bytes, seq: int, frame: bytes
    ) -> Optional[Refusal]:
        """Validate, fold and (maybe) checkpoint one frame before its ack.

        A gap above the watermark is a protocol violation: report
        streams are contiguous, so the gateway cannot know what it
        missed.
        """
        received_at = self._clock()
        watermark = self._watermark(sender_id)
        if seq != watermark + 1:
            return Refusal(
                "sequence_gap",
                STATUS_WIRE_ERROR,
                WireFormatError(
                    "frame %d skips ahead of watermark %d for sender %s: "
                    "sequence numbers must be contiguous"
                    % (seq, watermark, sender_id.hex())
                ),
            )
        try:
            # Streaming decode: each attribute block is parsed and
            # validated as it comes off the frame (payloads stay
            # read-only zero-copy views into it) — no intermediate
            # ReportBatch. Validation is contract-level and identical
            # across shards; the fold does not re-validate, and nothing
            # folds until every block of the frame has passed.
            users, blocks = iter_attribute_blocks(frame, contract=self.contract)
            canonical = self.server.shards[0]._validate_blocks(users, blocks)
            users = int(users)
        except ContractMismatchError as exc:
            return Refusal("contract_mismatch", STATUS_CONTRACT_MISMATCH, exc)
        except (WireFormatError, DimensionError, DomainError) as exc:
            return Refusal("invalid", STATUS_WIRE_ERROR, exc)
        shard_index = self._cursor % self.server.n_shards
        self._cursor += 1
        started = self._clock()
        try:
            self.server.shards[shard_index]._fold_validated(users, canonical)
        # repro: allow[broad-except] -- poison rationale: a fold that
        # raises anything leaves the shard partially updated; the frame is
        # refused and the whole gateway poisoned, so no sender hears OK
        # for it and estimate()/merged() re-raise instead of serving a
        # silently partial aggregate.
        except Exception as exc:
            return self._fail("fold", exc, shard=shard_index)
        fold_seconds = self._clock() - started
        self._m_fold_seconds.observe(fold_seconds)
        self._acked[sender_id] = seq
        self._frames_since_checkpoint += 1
        self._m_frames_accepted.inc()
        self._m_users_accepted.inc(users)
        self._m_bytes_received.inc(len(frame))
        if users == 0:
            self._m_heartbeats.inc()
        for listener in self._frame_listeners:
            listener()
        emit(
            self._log,
            "frame_accepted",
            level=logging.DEBUG,
            sender_id=sender_id.hex(),
            seq=seq,
            users=users,
            shard=shard_index,
            fold_seconds=round(fold_seconds, 6),
        )
        every = self.checkpoint_every_frames
        if every is not None and self._frames_since_checkpoint >= every:
            # Durable BEFORE the ack: once the sender hears OK, the
            # frames that triggered this checkpoint survive SIGKILL.
            try:
                await self.checkpoint()
            # repro: allow[broad-except] -- poison rationale: the
            # frame-triggered checkpoint is durable-BEFORE-ack; any
            # failure must refuse the frame and poison the gateway so no
            # sender hears OK for un-durable frames.
            except Exception as exc:
                return self._fail("checkpoint", exc, trigger="frames")
        self._m_ack_latency.observe(self._clock() - received_at)
        return None

    # ------------------------------------------------------------- telemetry

    def stats_snapshot(self) -> Dict[str, Any]:
        """The gateway's counters and full metric registry as a plain dict.

        This is exactly what the ``STATS`` socket request serves (see
        :func:`~repro.transport.request_stats`) and what the CLI's
        ``--metrics PATH`` writes on exit. ``counters`` are integer
        reads of the registry's counts; ``metrics`` is the registry
        snapshot (histograms, gauges, labelled families)
        and ``rejections_total`` sums frame and handshake rejections so
        a clean round is a single zero check.
        """
        counters = {
            "frames_accepted": self.frames_accepted,
            "frames_rejected": self.frames_rejected,
            "frames_deduped": self.frames_deduped,
            "handshakes_rejected": self.handshakes_rejected,
            "rejections_total": self.frames_rejected + self.handshakes_rejected,
            "users_accepted": self.users_accepted,
            "users_folded": self.server.users,
            "bytes_received": self.bytes_received,
            "heartbeats": self.heartbeats,
            "checkpoints_written": self.checkpoints_written,
        }
        return {
            "counters": counters,
            "metrics": self.telemetry.snapshot(),
        }

    # -------------------------------------------------------------- results

    @property
    def users(self) -> int:
        """Users folded into the shards so far (every acknowledged frame)."""
        return self.server.users

    #: Frames validated, folded and acknowledged (recovered ones included).
    frames_accepted = counted("_m_frames_accepted")
    #: Users carried by accepted frames.
    users_accepted = counted("_m_users_accepted")
    #: Payload bytes of accepted frames.
    bytes_received = counted("_m_bytes_received")
    #: Zero-user liveness frames accepted.
    heartbeats = counted("_m_heartbeats")
    #: Frames refused after the handshake.
    frames_rejected = counted("_m_rejected")
    #: Replayed frames acknowledged without folding.
    frames_deduped = counted("_m_deduped")

    def merged(self) -> LDPServer:
        """Fold all shard states into one fresh server."""
        self._check_folds()
        return self.server.merged()

    def estimate(
        self, postprocess: Optional[Postprocessor] = None
    ) -> SessionEstimate:
        """Merged estimates over everything folded so far.

        Every acknowledged frame is covered, mid-round as after
        :meth:`stop`. Raises :class:`TransportError` if a fold failed
        mid-round — a partial aggregate is never served.
        """
        self._check_folds()
        return self.server.estimate(postprocess=postprocess)


async def serve_collection(
    server: ShardedServer,
    host: str = "127.0.0.1",
    port: int = 0,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    store: Optional[CheckpointStore] = None,
    checkpoint_every_frames: Optional[int] = None,
    checkpoint_every_seconds: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
    ssl=None,
) -> CollectionGateway:
    """Start a :class:`CollectionGateway` over ``server`` on ``host:port``.

    Returns the serving gateway; ``port=0`` binds an ephemeral port
    (read it back from :attr:`CollectionGateway.port`). With ``store``
    the gateway resumes the newest intact round checkpoint before
    binding and checkpoints per the ``checkpoint_every_*`` triggers. The
    caller owns the round's lifecycle: typically
    ``await gateway.wait_for_users(n)`` (or any other completion
    signal), then ``await gateway.stop()`` and read
    :meth:`~CollectionGateway.estimate`.
    """
    gateway = CollectionGateway(
        server,
        max_frame_bytes=max_frame_bytes,
        store=store,
        checkpoint_every_frames=checkpoint_every_frames,
        checkpoint_every_seconds=checkpoint_every_seconds,
        metrics=metrics,
    )
    return await gateway.start(host, port, ssl=ssl)
