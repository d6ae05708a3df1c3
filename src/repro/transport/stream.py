"""The stream core every socket server and client of the transport shares.

Two kinds of stream ride the framed protocol of
:mod:`repro.transport.framing`: *report* streams (senders to a
:class:`~repro.transport.CollectionGateway`) and federation *state*
streams (edge pushers to a :class:`~repro.federation.RootAggregator`).
Both open with the same hello, answer it with the same resume
watermark, ack every sequenced frame with the same status message, and
refuse, poison and shut down the same way. This module holds that
common part once:

* :class:`StreamServer` — listening, connection tracking, the hello
  check (magic, version, contract digest, duplicate stream refusal,
  resume watermark, ``STATS``), the head of the per-connection frame
  loop (wire errors, EOF, poisoned refusal, ack-without-fold at or
  below the watermark), poisoning, ``wait_for_users`` and the
  connection-settling half of shutdown. A subclass supplies its
  :class:`StreamKind` and a handful of hooks: ``_watermark``,
  ``_accept`` (what happens to one new frame), ``_users_covered`` and
  ``stats_snapshot``.
* :class:`StreamClient` — the hello and reply verification, one
  ``_exchange`` per sequenced frame, and the EOF close. Subclasses add
  their own sequence numbering and counters.

Shared code never asks which subclass it serves: every difference is
either :class:`StreamKind` data or one of the hooks.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
from typing import (
    Any, Awaitable, Callable, Dict, List, NamedTuple, Optional, Sequence, Set,
    Tuple, Union,
)

from ..exceptions import (
    ContractMismatchError,
    DimensionError,
    TransportError,
    WireFormatError,
    positive_count,
)
from ..storage import CheckpointStore
from ..telemetry import MetricsRegistry, counted, emit, event_logger
from ..wire.contract import DIGEST_SIZE, CollectionContract
from .framing import (
    HELLO,
    HELLO_REPLY,
    SENDER_ID_SIZE,
    STATE_MAGIC,
    STATS_MAGIC,
    STATUS_CONTRACT_MISMATCH,
    STATUS_OK,
    STATUS_TRANSPORT_ERROR,
    STATUS_WIRE_ERROR,
    TRANSPORT_MAGIC,
    TRANSPORT_VERSION,
    pack_status,
    raise_for_status,
    read_frame,
    read_status,
    write_frame,
)

#: ``connect`` accepts a bare contract or anything carrying one (an
#: :class:`~repro.session.LDPClient`, an :class:`~repro.session.LDPServer`).
ContractLike = Union[CollectionContract, object]


class StreamKind(NamedTuple):
    """The vocabulary of one stream kind, shared by its server and client."""

    #: Hello magic opening the stream.
    magic: bytes
    #: What the serving end is called in messages.
    server: str
    #: Metric prefix and event-logger name of the serving end.
    prefix: str
    #: Metric prefix and event-logger name of the connecting end.
    client: str
    #: What owns a stream id (``<peer>_id`` in events, ``duplicate_<peer>``).
    peer: str
    #: One data-phase message, singular and plural (event, metric names).
    unit: str
    units: str
    #: Name of the data-phase sequence number in events.
    seq: str


REPORT_STREAM = StreamKind(
    magic=TRANSPORT_MAGIC,
    server="gateway",
    prefix="gateway",
    client="sender",
    peer="sender",
    unit="frame",
    units="frames",
    seq="seq",
)

STATE_STREAM = StreamKind(
    magic=STATE_MAGIC,
    server="root aggregator",
    prefix="root",
    client="pusher",
    peer="edge",
    unit="push",
    units="pushes",
    seq="epoch",
)

_CARRIES = {
    TRANSPORT_MAGIC: "report frames",
    STATE_MAGIC: "state pushes",
}


class Refusal(NamedTuple):
    """Why a frame was turned away: reason label, status, cause.

    ``message`` replaces ``str(error)`` on the wire when set.
    """

    reason: str
    status: int
    error: Exception
    message: str = ""


def retry_summary(failures: Sequence[Tuple[int, BaseException]]) -> str:
    """Each distinct error with the attempts that hit it, first seen first.

    ``[(1, X), (2, X), (3, Y)]`` reads ``attempts 1,2: X; attempt 3: Y``,
    so intermediate failures are never swallowed by the final one.
    """
    distinct: Dict[str, List[int]] = {}
    for attempt, exc in failures:
        distinct.setdefault(str(exc), []).append(attempt)
    return "; ".join(
        "attempt%s %s: %s"
        % (
            "s" if len(numbers) > 1 else "",
            ",".join(str(n) for n in numbers),
            message,
        )
        for message, numbers in distinct.items()
    )


#: Failures a fresh connection may cure: a peer that refused, dropped or
#: restarted the connection.
RETRYABLE = (TransportError, ConnectionError, OSError)


async def retry_connect(
    attempt_once: Callable[[], Awaitable[Any]],
    attempts: int,
    retry_delay: float,
    what: str,
    failed: Callable[[int, BaseException], Awaitable[None]],
    retry_on: Tuple[type, ...] = RETRYABLE,
) -> Any:
    """Await ``attempt_once()`` until it returns, at most ``attempts`` times.

    Each ``retry_on`` failure goes to ``failed(attempt, exc)``, which
    counts and logs it (or re-raises it to stop); the next attempt
    starts ``retry_delay`` seconds later. Other failures propagate. When
    every attempt fails, raises :class:`TransportError` with
    :func:`retry_summary`, chained to the last failure.
    """
    failures: List[Tuple[int, BaseException]] = []
    for attempt in range(1, attempts + 1):
        if attempt > 1:
            await asyncio.sleep(retry_delay)
        try:
            return await attempt_once()
        except retry_on as exc:
            failures.append((attempt, exc))
            await failed(attempt, exc)
    raise TransportError(
        "%s after %d attempt(s): %s" % (what, attempts, retry_summary(failures))
    ) from failures[-1][1]


def _as_contract(contract: ContractLike) -> CollectionContract:
    if isinstance(contract, CollectionContract):
        return contract
    carried = getattr(contract, "contract", None)
    if isinstance(carried, CollectionContract):
        return carried
    raise TransportError(
        "connect needs a CollectionContract (or an object carrying one "
        "as .contract), got %s" % type(contract).__name__
    )


def _as_sender_id(sender_id: Optional[bytes]) -> bytes:
    if sender_id is None:
        return os.urandom(SENDER_ID_SIZE)
    if not isinstance(sender_id, (bytes, bytearray)) or len(
        sender_id
    ) != SENDER_ID_SIZE:
        raise TransportError(
            "a sender id is %d raw bytes, got %r" % (SENDER_ID_SIZE, sender_id)
        )
    return bytes(sender_id)


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


class StreamServer:
    """Listening socket and per-connection protocol of a stream server.

    Subclasses set :attr:`KIND` and implement :meth:`_watermark`,
    :meth:`_accept`, :meth:`_users_covered` and :meth:`stats_snapshot`;
    their ``start`` recovers state and then calls :meth:`_listen`, their
    ``stop`` calls :meth:`_settle`.
    """

    KIND: StreamKind

    def __init__(
        self,
        max_frame_bytes: int,
        store: Optional[CheckpointStore],
        metrics: Optional[MetricsRegistry],
    ) -> None:
        kind = self.KIND
        self.max_frame_bytes = positive_count(
            "max_frame_bytes", max_frame_bytes, DimensionError
        )
        self.store = store
        self._connections: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        # A stream id names ONE stream: concurrent connections under the
        # same id would make its watermark meaningless.
        self._active: Set[bytes] = set()
        self._tcp: Optional[asyncio.AbstractServer] = None
        self._progress: Optional[asyncio.Event] = None
        self._stopping = False
        self._fold_error: Optional[Exception] = None
        self.telemetry = metrics if metrics is not None else MetricsRegistry()
        self._clock = self.telemetry.clock
        self._log = event_logger(kind.prefix)
        registry = self.telemetry
        self._m_deduped = registry.counter(
            "%s_%s_deduped_total" % (kind.prefix, kind.units),
            "Replayed %s acknowledged without folding (resume dedup)"
            % kind.units,
        )
        self._m_rejected = registry.counter(
            "%s_%s_rejected_total" % (kind.prefix, kind.units),
            "%s refused after the handshake, by reason" % kind.units.title(),
            labels=("reason",),
        )
        self._m_handshakes_rejected = registry.counter(
            "%s_handshakes_rejected_total" % kind.prefix,
            "Connections refused during the handshake, by reason",
            labels=("reason",),
        )
        self._m_stats_requests = registry.counter(
            "%s_stats_requests_total" % kind.prefix,
            "STATS control requests served",
        )
        self._m_checkpoints = registry.counter(
            "%s_checkpoints_written_total" % kind.prefix,
            "Checkpoints persisted",
        )
        self._m_checkpoint_bytes = registry.counter(
            "%s_checkpoint_bytes_total" % kind.prefix,
            "Encoded bytes of persisted checkpoints",
        )
        if store is not None:
            store.attach_telemetry(registry)

    #: Connections refused during the handshake.
    handshakes_rejected = counted("_m_handshakes_rejected")
    #: Checkpoints persisted.
    checkpoints_written = counted("_m_checkpoints")

    # ------------------------------------------------------------------ hooks

    @property
    def contract(self) -> CollectionContract:
        raise NotImplementedError

    def _watermark(self, stream_id: bytes) -> int:
        """Highest sequence number already folded for ``stream_id``."""
        raise NotImplementedError

    async def _accept(
        self, stream_id: bytes, seq: int, payload: bytes
    ) -> Optional[Refusal]:
        """Fold one frame above the watermark; a :class:`Refusal` refuses it."""
        raise NotImplementedError

    def _users_covered(self) -> int:
        """Users the served state covers, for :meth:`wait_for_users`."""
        raise NotImplementedError

    def stats_snapshot(self) -> Dict[str, Any]:
        """What a ``STATS`` request is answered with."""
        raise NotImplementedError

    # -------------------------------------------------------------- lifecycle

    async def _listen(self, host: str, port: int, ssl) -> None:
        self._stopping = False
        self._progress = asyncio.Event()
        self._tcp = await asyncio.start_server(
            self._handle, host, port, ssl=ssl
        )

    @property
    def port(self) -> int:
        """The bound TCP port (useful after binding port 0)."""
        if self._tcp is None or not self._tcp.sockets:
            raise TransportError("%s is not serving" % self.KIND.server)
        ports = {sock.getsockname()[1] for sock in self._tcp.sockets}
        if len(ports) > 1:
            # port=0 on a multi-address hostname (e.g. dual-stack
            # "localhost") gives each address family its own ephemeral
            # port; advertising just one would misdirect half the
            # clients.
            raise TransportError(
                "%s is bound to multiple ports %s: binding port 0 on a "
                "multi-address host gives each address family its own "
                "ephemeral port — bind one explicit address (e.g. "
                "127.0.0.1) instead" % (self.KIND.server, sorted(ports))
            )
        return ports.pop()

    async def _settle(self, abort: bool, grace: Optional[float]) -> None:
        """Stop accepting and settle the open connections.

        ``abort`` closes every connection at once; otherwise ``grace``
        bounds the wait (``None`` waits for them all) before the rest
        are closed. Connections are settled BEFORE awaiting
        ``wait_closed()``: on Python >= 3.12 ``Server.wait_closed()``
        waits for every connection handler (gh-79033), so awaiting it
        while a handler still reads an idle peer would deadlock.
        """
        self._stopping = True
        tcp, self._tcp = self._tcp, None
        if tcp is not None:
            tcp.close()  # stop accepting; existing connections live on
        pending = list(self._connections)
        if abort:
            for writer in list(self._writers):
                writer.close()
        if pending:
            if abort or grace is None:
                await asyncio.gather(*pending, return_exceptions=True)
            else:
                _, overdue = await asyncio.wait(pending, timeout=grace)
                if overdue:
                    for writer in list(self._writers):
                        writer.close()
                    await asyncio.gather(*overdue, return_exceptions=True)
        if tcp is not None:
            await tcp.wait_closed()

    async def __aenter__(self):
        return self

    # ---------------------------------------------------------------- waiting

    async def wait_for_users(self, count: int) -> None:
        """Block until the served state covers at least ``count`` users.

        Raises :class:`TransportError` if the server is poisoned while
        waiting: a poisoned server refuses every further frame, so the
        count can never be reached. :meth:`_poison` sets the progress
        event precisely so this waiter wakes up to notice.
        """
        if self._progress is None:
            raise TransportError("%s is not serving" % self.KIND.server)
        while self._users_covered() < int(count):
            self._check_folds()
            self._progress.clear()
            if self._users_covered() >= int(count):
                break
            await self._progress.wait()

    def _poison(self, exc: Exception) -> None:
        """Record a fatal aggregation error and wake anyone waiting.

        First error wins (later failures are usually its consequences).
        """
        if self._fold_error is None:
            self._fold_error = exc
        if self._progress is not None:
            self._progress.set()

    def _fail(self, what: str, exc: Exception, **fields: Any) -> Refusal:
        """Poison the server over a failed ``what`` and refuse its frame.

        A fold or a checkpoint that raised leaves nothing this server
        may ack: the ``<what>_failed`` event is logged at ERROR, the
        server is poisoned, and the returned refusal answers the frame
        with ``STATUS_TRANSPORT_ERROR``, so no peer hears OK for it.
        """
        reason = "%s_failed" % what
        emit(self._log, reason, level=logging.ERROR, **fields, error=str(exc))
        self._poison(exc)
        return Refusal(
            reason,
            STATUS_TRANSPORT_ERROR,
            exc,
            "%s %s failed: %s" % (self.KIND.prefix, what, exc),
        )

    def _count_checkpoint(self, nbytes: int) -> None:
        """Count one saved checkpoint of ``nbytes`` encoded bytes."""
        self._m_checkpoints.inc()
        self._m_checkpoint_bytes.inc(nbytes)

    def _check_folds(self) -> None:
        if self._fold_error is not None:
            raise TransportError(
                "the %s failed mid-round; its aggregate is incomplete and "
                "cannot be served: %s" % (self.KIND.server, self._fold_error)
            ) from self._fold_error

    # ------------------------------------------------------------ connections

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopping:
            # Accepted in the same tick stop() began: this handler is in
            # neither _connections nor _writers, so the shutdown's
            # settle pass cannot reach it. Refusing here (before any
            # handshake or ack) keeps the invariant that every ack is
            # folded, and lets Server.wait_closed() return promptly.
            await _close_writer(writer)
            return
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self._writers.add(writer)
        stream_id: Optional[bytes] = None
        try:
            stream_id = await self._handshake(reader, writer)
            if stream_id is not None:
                await self._pump(reader, writer, stream_id)
        except (ConnectionError, TransportError):
            pass  # peer vanished: accepted frames stay accepted
        finally:
            if stream_id is not None:
                self._active.discard(stream_id)
            self._writers.discard(writer)
            await _close_writer(writer)
            if task is not None:
                self._connections.discard(task)

    async def _reply(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        message: str = "",
        hello: bool = False,
        resume: int = 0,
    ) -> None:
        if hello:
            writer.write(
                HELLO_REPLY.pack(
                    TRANSPORT_MAGIC,
                    TRANSPORT_VERSION,
                    self.contract.digest,
                    resume,
                )
            )
        writer.write(pack_status(status, message))
        await writer.drain()

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        """Verify the contract fingerprint before any payload bytes flow.

        Returns the connection's stream id (registered as active) on
        success, ``None`` on a refused handshake or a ``STATS`` request.
        The success reply carries the stream's resume watermark, so a
        reconnecting client knows exactly which frames are already
        durable.
        """
        kind = self.KIND
        try:
            magic, version, digest, stream_id = HELLO.unpack(
                await reader.readexactly(HELLO.size)
            )
        except asyncio.IncompleteReadError:
            return None  # probe/scan connection: nothing to answer
        if magic == STATS_MAGIC:
            # Live introspection: a hello-sized control message asking
            # for the telemetry snapshot instead of a stream. Served
            # before any contract check so an admin client needs no
            # contract; not counted as a handshake rejection.
            payload = json.dumps(self.stats_snapshot(), sort_keys=True)
            self._m_stats_requests.inc()
            emit(self._log, "stats_served", bytes=len(payload))
            await self._reply(writer, STATUS_OK, payload, hello=True)
            return None
        refusal: Optional[Tuple[str, int, str]] = None
        if magic != kind.magic:
            refusal = (
                "bad_magic",
                STATUS_TRANSPORT_ERROR,
                "bad magic %r: a %s accepts %s from %ss, not %s (expected %r)"
                % (
                    magic,
                    kind.server,
                    _CARRIES[kind.magic],
                    kind.peer,
                    _CARRIES.get(magic, "unknown hellos"),
                    kind.magic,
                ),
            )
        elif version != TRANSPORT_VERSION:
            refusal = (
                "version",
                STATUS_TRANSPORT_ERROR,
                "unsupported transport version %d (this %s speaks %d)"
                % (version, kind.server, TRANSPORT_VERSION),
            )
        elif digest != self.contract.digest:
            refusal = (
                "contract_mismatch",
                STATUS_CONTRACT_MISMATCH,
                "%s operates under contract %s but this %s collects under "
                "%s (schema, budget, and per-attribute protocols must agree)"
                % (
                    kind.peer,
                    bytes(digest).hex(),
                    kind.server,
                    self.contract.fingerprint,
                ),
            )
        elif stream_id in self._active:
            refusal = (
                "duplicate_%s" % kind.peer,
                STATUS_TRANSPORT_ERROR,
                "%s id %s is already connected: an id names one resumable "
                "stream, so concurrent connections under it would corrupt "
                "its watermark" % (kind.peer, stream_id.hex()),
            )
        if refusal is not None:
            await self._reject_handshake(writer, *refusal)
            return None
        self._active.add(stream_id)
        resume = self._watermark(stream_id)
        emit(
            self._log,
            "handshake_accepted",
            **{
                "%s_id" % kind.peer: stream_id.hex(),
                "resume_%s" % kind.seq: resume,
            },
        )
        await self._reply(writer, STATUS_OK, hello=True, resume=resume)
        return stream_id

    async def _reject_handshake(
        self, writer: asyncio.StreamWriter, reason: str, status: int, message: str
    ) -> None:
        self._m_handshakes_rejected.labels(reason=reason).inc()
        emit(
            self._log,
            "handshake_rejected",
            level=logging.WARNING,
            reason=reason,
        )
        await self._reply(writer, status, message, hello=True)

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        stream_id: bytes,
    ) -> None:
        """Ack frames until EOF or the first refused one.

        Frames at or below the stream's watermark (a client replaying
        past a crash or a lost ack) are acknowledged without folding;
        everything newer goes to :meth:`_accept`, and only an accepted
        frame is acknowledged.
        """
        kind = self.KIND
        while True:
            try:
                framed = await read_frame(reader, self.max_frame_bytes)
            except WireFormatError as exc:
                await self._refuse(
                    writer, stream_id, Refusal("wire", STATUS_WIRE_ERROR, exc)
                )
                return
            if framed is None:
                return  # clean end of stream
            seq, payload = framed
            if self._fold_error is not None:
                # A poisoned server must not keep collecting acks it
                # cannot honour.
                await self._refuse(
                    writer,
                    stream_id,
                    Refusal(
                        "poisoned",
                        STATUS_TRANSPORT_ERROR,
                        self._fold_error,
                        "aggregation failed at this %s: %s"
                        % (kind.server, self._fold_error),
                    ),
                )
                return
            if seq <= self._watermark(stream_id):
                self._m_deduped.inc()
                emit(
                    self._log,
                    "%s_deduped" % kind.unit,
                    level=logging.DEBUG,
                    **{"%s_id" % kind.peer: stream_id.hex(), kind.seq: seq},
                )
                await self._reply(writer, STATUS_OK)
                continue
            refusal = await self._accept(stream_id, seq, payload)
            if refusal is not None:
                await self._refuse(writer, stream_id, refusal)
                return
            if self._progress is not None:
                self._progress.set()
            await self._reply(writer, STATUS_OK)

    async def _refuse(
        self, writer: asyncio.StreamWriter, stream_id: bytes, refusal: Refusal
    ) -> None:
        kind = self.KIND
        self._m_rejected.labels(reason=refusal.reason).inc()
        emit(
            self._log,
            "%s_rejected" % kind.unit,
            level=logging.WARNING,
            reason=refusal.reason,
            **{"%s_id" % kind.peer: stream_id.hex()},
            detail=str(refusal.error),
        )
        await self._reply(
            writer, refusal.status, refusal.message or str(refusal.error)
        )


class StreamClient:
    """One open, handshaken connection to a :class:`StreamServer`.

    Subclasses set :attr:`KIND` and are constructed by :meth:`connect`
    as ``cls(contract, reader, writer, stream_id, resume, metrics)``;
    use them as async context managers so half-open connections cannot
    leak.
    """

    KIND: StreamKind

    def __init__(
        self,
        contract: CollectionContract,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        kind = self.KIND
        self.contract = contract
        self._reader = reader
        self._writer = writer
        self._closed = False
        # Per-connection counts stay plain ints: the registry may be
        # shared with earlier connections (retries, reconnects) and sums
        # them all.
        self._sent = 0
        self.bytes_sent = 0
        self.telemetry = metrics if metrics is not None else MetricsRegistry()
        self._m_sent = self.telemetry.counter(
            "%s_%s_sent_total" % (kind.client, kind.units),
            "%s acknowledged by the %s" % (kind.units.title(), kind.server),
        )
        self._m_bytes_sent = self.telemetry.counter(
            "%s_bytes_sent_total" % kind.client,
            "Payload bytes of acknowledged %s" % kind.units,
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        contract: ContractLike,
        sender_id: Optional[bytes] = None,
        metrics: Optional[MetricsRegistry] = None,
        ssl=None,
    ):
        """Open a connection and perform the contract handshake.

        ``sender_id`` (16 raw bytes, random unless given) names the
        resumable stream — pass the same id across reconnects. Raises
        :class:`~repro.exceptions.ContractMismatchError` when the server
        runs under a different contract — before any payload bytes flow
        — and :class:`~repro.exceptions.TransportError` when the peer is
        not this kind of server at all. ``ssl`` is an optional
        client-side :class:`ssl.SSLContext` for a TLS-serving peer; the
        framing above the encrypted stream is unchanged.
        """
        kind = cls.KIND
        agreed = _as_contract(contract)
        stream_id = _as_sender_id(sender_id)
        reader, writer, resume, _ = await _hello(
            host, port, ssl, kind.magic, stream_id, kind.server, agreed, kind.client
        )
        client = cls(agreed, reader, writer, stream_id, resume, metrics)
        client.telemetry.counter(
            "%s_connects_total" % kind.client,
            "Successful handshaken connections to a %s" % kind.server,
        ).inc()
        emit(
            event_logger(kind.client),
            "%s_connected" % kind.client,
            **{"%s_id" % kind.peer: stream_id.hex()},
            host=host,
            port=port,
            **{"resume_%s" % kind.seq: resume},
        )
        return client

    def _require_open(self) -> None:
        if self._closed:
            raise TransportError("%s is closed" % self.KIND.client)

    async def _exchange(self, seq: int, payload: bytes) -> None:
        """Ship one sequenced frame and wait for its OK status.

        An acknowledged frame is counted as sent. An error status raises
        its typed exception after this end is closed too — the server
        closes the stream after reporting one.
        """
        write_frame(self._writer, seq, payload)
        try:
            await self._writer.drain()
        except ConnectionError as exc:
            raise TransportError(
                "connection lost mid-stream: %s" % exc
            ) from None
        status, message = await read_status(self._reader)
        try:
            raise_for_status(status, message)
        # repro: allow[broad-except] -- cleanup-and-reraise: the server
        # closes the stream after an error status, so this side must tear
        # down too (even on CancelledError) before the error propagates.
        except BaseException:
            await self.close()
            raise
        self._sent += 1
        self.bytes_sent += len(payload)
        self._m_sent.inc()
        self._m_bytes_sent.inc(len(payload))

    async def close(self) -> None:
        """End the stream (EOF) and release the connection."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._writer.can_write_eof():
                self._writer.write_eof()
        except (ConnectionError, OSError, RuntimeError):
            pass
        await _close_writer(self._writer)

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


async def _hello(
    host: str,
    port: int,
    ssl,
    magic: bytes,
    stream_id: bytes,
    server: str,
    contract: Optional[CollectionContract] = None,
    client: str = "",
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, int, str]:
    """Connect and exchange hellos: ``(reader, writer, resume, message)``.

    ``server`` and ``client`` name the two ends in error messages. With
    a ``contract`` the hello carries its digest and the reply must
    present the same digest and transport version; without one (a
    ``STATS`` request) the digest is zeroed and only the status counts.
    The socket is closed on every failure path.
    """
    reader, writer = await asyncio.open_connection(host, port, ssl=ssl)
    digest = bytes(DIGEST_SIZE) if contract is None else contract.digest
    try:
        writer.write(HELLO.pack(magic, TRANSPORT_VERSION, digest, stream_id))
        await writer.drain()
        try:
            reply_magic, version, presented, resume = HELLO_REPLY.unpack(
                await reader.readexactly(HELLO_REPLY.size)
            )
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise TransportError(
                "%s closed the connection during the handshake: %s"
                % (server, exc)
            ) from None
        if reply_magic != TRANSPORT_MAGIC:
            raise TransportError(
                "peer is not a %s: bad hello magic %r" % (server, reply_magic)
            )
        status, message = await read_status(reader)
        raise_for_status(status, message)
        if contract is not None and version != TRANSPORT_VERSION:
            raise TransportError(
                "%s speaks transport version %d, this %s %d"
                % (server, version, client, TRANSPORT_VERSION)
            )
        if contract is not None and presented != contract.digest:
            # The server accepted us but presents a different
            # fingerprint: refuse symmetrically.
            raise ContractMismatchError(
                "%s presents contract %s but this %s operates under %s"
                % (
                    server,
                    bytes(presented).hex(),
                    client,
                    contract.fingerprint,
                )
            )
    # repro: allow[broad-except] -- cleanup-and-reraise: the failed
    # handshake's socket must close on every path (including
    # CancelledError) before the original error propagates.
    except BaseException:
        writer.close()
        raise
    return reader, writer, resume, message


async def request_stats(
    host: str,
    port: int,
    timeout: Optional[float] = 10.0,
    ssl=None,
) -> Dict[str, Any]:
    """Fetch a gateway's or root's live telemetry snapshot over its socket.

    Sends a ``STATS`` control request — a hello-sized message opened by
    :data:`~repro.transport.framing.STATS_MAGIC` with the digest and
    sender-id fields zeroed — and returns the decoded snapshot dict
    (the peer's ``stats_snapshot()``: ``counters`` + ``metrics``). Needs
    no contract, so any admin client can poll a round mid-flight.

    ``timeout`` bounds the whole exchange (connect through reply) in
    seconds; a peer that accepts the connection but never answers —
    hung event loop, half-dead process — raises
    :class:`~repro.exceptions.TransportError` after ``timeout`` seconds
    instead of blocking the admin client forever. Pass ``None`` to wait
    without bound.
    """
    try:
        _, writer, _, message = await asyncio.wait_for(
            _hello(host, port, ssl, STATS_MAGIC, bytes(SENDER_ID_SIZE), "peer"),
            timeout,
        )
    except asyncio.TimeoutError:
        raise TransportError(
            "peer at %s:%d did not answer the stats request within "
            "%.1f seconds" % (host, port, timeout)
        ) from None
    await _close_writer(writer)
    try:
        snapshot = json.loads(message)
    except ValueError as exc:
        raise TransportError(
            "stats reply is not valid JSON: %s" % exc
        ) from None
    if not isinstance(snapshot, dict):
        raise TransportError(
            "stats reply is %s, expected an object" % type(snapshot).__name__
        )
    return snapshot
