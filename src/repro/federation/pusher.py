"""Asyncio TCP state pusher: the edge-side end of the federation hop.

:class:`StatePusher` is the :class:`~repro.transport.stream.StreamClient`
of the federation ``STATE`` stream: it opens a connection to a
:class:`~repro.federation.RootAggregator`, performs the contract
handshake (hello opened by :data:`~repro.transport.framing.STATE_MAGIC`,
fingerprints compared before any payload flows), and then ships
epoch-numbered, CRC-sealed state snapshots — one framed push per epoch,
each acknowledged only once the root has validated and folded it (and,
with a root-side checkpoint store, persisted it durably).

Resume: the hello reply carries the *epoch watermark* — the highest
epoch the root already folded for this edge id — and
:meth:`StatePusher.push` numbers pushes ``watermark + 1, watermark + 2,
…``. Because snapshots are cumulative, a reconnecting
edge does not need to replay anything: its next push covers everything
the lost ones would have.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping, Optional

from ..telemetry import MetricsRegistry, emit, event_logger
from ..wire.contract import CollectionContract
from ..transport.framing import SENDER_ID_SIZE
from ..transport.stream import STATE_STREAM, StreamClient
from .state_push import encode_state_push

_LOG = event_logger("pusher")


class StatePusher(StreamClient):
    """One open, handshaken push connection to a root aggregator.

    Construct through :meth:`connect`; use as an async context manager
    so half-open connections cannot leak::

        async with await StatePusher.connect(host, port, server, edge_id) as p:
            await p.push(server.state_dict())

    The edge id (16 raw bytes, random unless given) names the edge's
    resumable push stream — pass the same id across reconnects and
    restarts so the root keeps one record for this edge. A root that
    aggregates under a different contract raises
    :class:`~repro.exceptions.ContractMismatchError` at connect; a peer
    that is not a root aggregator (a collection gateway, say, which
    refuses the ``STATE`` magic symmetrically) raises
    :class:`~repro.exceptions.TransportError`.
    """

    KIND = STATE_STREAM

    def __init__(
        self,
        contract: CollectionContract,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        edge_id: bytes,
        resume_epoch: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(contract, reader, writer, metrics)
        self.edge_id = edge_id
        #: Highest epoch the root already folded for this edge when the
        #: connection opened; pushes continue at ``resume_epoch + 1``.
        self.resume_epoch = resume_epoch
        self._next_epoch = resume_epoch + 1
        self._m_push_seconds = self.telemetry.histogram(
            "pusher_push_seconds",
            "Encode + ship + root-ack round trip per push",
        )

    # --------------------------------------------------------------- pushing

    async def push(
        self,
        state: Mapping[str, Any],
        counters: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Ship one cumulative state snapshot; returns its epoch number.

        The ack only arrives once the root has validated the push,
        folded it into its edge table and — when it checkpoints —
        persisted it durably, so a
        returned epoch is a *safe* epoch: the reports it covers survive
        anything short of losing the root's storage.
        """
        self._require_open()
        started = self.telemetry.clock()
        payload = encode_state_push(state, counters)
        epoch = self._next_epoch
        self._next_epoch += 1
        await self._exchange(epoch, payload)
        self._m_push_seconds.observe(self.telemetry.clock() - started)
        emit(
            _LOG,
            "state_pushed",
            edge_id=self.edge_id.hex(),
            epoch=epoch,
            bytes=len(payload),
        )
        return epoch


#: Edge ids share the sender-id width: 16 raw bytes.
EDGE_ID_SIZE = SENDER_ID_SIZE

__all__ = ["StatePusher", "EDGE_ID_SIZE"]
