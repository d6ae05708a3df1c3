"""Asyncio TCP report sender: the user-side end of the socket transport.

:class:`AsyncReportSender` opens a connection to a collection gateway,
performs the contract handshake (both sides compare fingerprints before
any payload bytes flow), and then ships wire frames produced by
:func:`~repro.wire.encode_batch` — one sequenced, length-prefixed frame
per report batch, each acknowledged by the gateway after it has been
decoded, validated and folded into a shard.

The per-frame acknowledgement is the client half of the backpressure
loop: a gateway acks a frame only once it is folded, so
:meth:`AsyncReportSender.send` naturally slows a producer down to the
aggregation tier's pace. Error statuses come back as the library's own
exception types — :class:`~repro.exceptions.ContractMismatchError`,
:class:`~repro.exceptions.WireFormatError`, or
:class:`~repro.exceptions.TransportError` for transport-level failures.

Resume: every sender carries a 16-byte *sender id* naming its logical
report stream, and numbers its frames 1, 2, 3, … During the handshake a
checkpointing gateway answers with the stream's *resume watermark* — the
highest sequence number it already folded durably. Frames at or below
the watermark are skipped locally (counted in
:attr:`AsyncReportSender.frames_skipped`) instead of re-sent, so a
sender that replays its whole round after a crash — its own or the
gateway's — contributes every report exactly once.
:func:`replay_frames` wraps the loop: connect, skip, send, and retry on
transport failures until the round is through.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Optional, Sequence

from ..exceptions import TransportError, positive_count, positive_seconds
from ..session.client import ReportBatch
from ..telemetry import MetricsRegistry, emit, event_logger
from ..wire.codec import encode_batch
from ..wire.contract import CollectionContract
from .stream import REPORT_STREAM, ContractLike, StreamClient, retry_connect

_LOG = event_logger("sender")


class AsyncReportSender(StreamClient):
    """One open, handshaken connection to a collection gateway.

    Construct through :meth:`connect`; use as an async context manager
    so half-open connections cannot leak::

        async with await AsyncReportSender.connect(host, port, client) as s:
            await s.send(batch)

    A fresh random sender id is drawn per :meth:`connect` unless one is
    given — pass the same id across reconnects to make the gateway
    treat them as one resumable stream.
    """

    KIND = REPORT_STREAM

    def __init__(
        self,
        contract: CollectionContract,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        sender_id: bytes,
        resume_seq: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(contract, reader, writer, metrics)
        self.sender_id = sender_id
        #: Highest sequence number the gateway already holds durably for
        #: this stream; sends at or below it are skipped, not shipped.
        self.resume_seq = resume_seq
        self._next_seq = 1
        self.frames_skipped = 0
        self._m_frames_skipped = self.telemetry.counter(
            "sender_frames_skipped_total",
            "Frames skipped locally because the gateway already "
            "holds them durably (resume watermark)",
        )

    @property
    def frames_sent(self) -> int:
        """Frames shipped and acknowledged on this connection."""
        return self._sent

    # --------------------------------------------------------------- sending

    async def send_encoded(self, frame: bytes) -> None:
        """Ship one pre-encoded wire frame and wait for its ack.

        The frame takes the stream's next sequence number. If that
        number is at or below the gateway's resume watermark the frame
        is already durable server-side — it is skipped locally (counted
        in :attr:`frames_skipped`) and no bytes go out. Otherwise the
        ack only arrives once the gateway has validated and folded the
        frame — this await *is* the backpressure.
        """
        self._require_open()
        seq = self._next_seq
        self._next_seq += 1
        if seq <= self.resume_seq:
            self.frames_skipped += 1
            self._m_frames_skipped.inc()
            return
        await self._exchange(seq, frame)

    async def send(self, batch: ReportBatch) -> None:
        """Encode one batch under this sender's contract and ship it."""
        await self.send_encoded(encode_batch(batch, self.contract))

    async def heartbeat(self) -> None:
        """Ship a zero-user frame: a liveness no-op for idle gateways.

        An empty :class:`~repro.session.ReportBatch` is a first-class
        frame — it round-trips the full validate/fold/ack path, changes
        no aggregation state, and proves the connection (and the
        gateway) are still moving.
        """
        await self.send(
            ReportBatch(users=0, payloads={}, counts={}, protocols={})
        )


async def replay_frames(
    host: str,
    port: int,
    contract: ContractLike,
    frames: Sequence[bytes],
    sender_id: bytes,
    attempts: int = 1,
    retry_delay: float = 0.5,
    metrics: Optional[MetricsRegistry] = None,
    ssl=None,
) -> "AsyncReportSender":
    """Deliver a whole round of encoded frames exactly once, with retries.

    Connects under ``sender_id``, skips every frame the gateway already
    holds durably (its resume watermark), ships the rest, and half-closes.
    On a *transport* failure — connection refused or dropped, gateway
    restarting — it waits ``retry_delay`` seconds (finite and ``>= 0``)
    and reconnects, up to ``attempts`` total; each reconnect re-learns the watermark, so no
    frame is ever contributed twice. Typed rejections
    (:class:`~repro.exceptions.ContractMismatchError`,
    :class:`~repro.exceptions.WireFormatError`) are never retried — a
    frame the gateway refused once will be refused again.

    Returns the final (closed) sender, whose counters describe the last
    successful pass; its ``telemetry`` is the registry every attempt
    counted into (``metrics``, or a fresh one). When every attempt
    fails, the raised
    :class:`~repro.exceptions.TransportError` enumerates each attempt
    number with its error — all *distinct* failures across the round,
    not just the last — so a round that bounced off two different
    problems (say, connection refused, then a restart mid-stream) shows
    both. Each failed attempt also emits a ``sender_retry`` event and
    counts into ``sender_retries_total``.
    """
    total = positive_count("attempts", attempts, TransportError)
    delay = positive_seconds("retry_delay", retry_delay, TransportError, zero=True)
    frames = list(frames)
    metrics = metrics if metrics is not None else MetricsRegistry()
    retries = metrics.counter(
        "sender_retries_total",
        "Delivery attempts that failed with a transport error",
    )

    async def deliver() -> AsyncReportSender:
        sender = await AsyncReportSender.connect(
            host, port, contract, sender_id=sender_id, metrics=metrics, ssl=ssl
        )
        async with sender:
            for frame in frames:
                await sender.send_encoded(frame)
        return sender

    async def failed(attempt: int, exc: BaseException) -> None:
        retries.inc()
        emit(
            _LOG,
            "sender_retry",
            level=logging.WARNING,
            attempt=attempt,
            attempts=total,
            error=str(exc),
        )

    return await retry_connect(
        deliver, total, delay, "round not delivered", failed
    )


__all__ = ["AsyncReportSender", "replay_frames"]
