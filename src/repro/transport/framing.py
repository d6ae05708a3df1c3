"""Stream framing and handshake messages of the socket transport.

Everything that travels over a collection socket is defined here, so the
gateway and the sender agree byte for byte.

Handshake (before any payload bytes flow)::

    client hello   magic b"LDPT" | u16 transport version
                   | 16B contract digest | 16B sender id
    gateway reply  magic b"LDPT" | u16 transport version
                   | 16B contract digest | u64 resume watermark
                   | status message

The gateway compares the client's digest with its own contract *first*
and answers ``STATUS_CONTRACT_MISMATCH`` (then closes) on disagreement —
a misconfigured sender is turned away before it ships a single report.
The sender symmetrically refuses a gateway whose digest differs.

The *sender id* names the logical report stream (stable across
reconnects of the same sender); the gateway's *resume watermark* is the
highest frame sequence number it has durably folded for that sender —
``0`` for a stream it has never seen. A reconnecting sender skips every
frame at or below the watermark instead of re-sending it, and the
gateway acknowledges-without-folding any duplicate that arrives anyway,
so a retried round can never double-count a report.

Data phase (client → gateway)::

    u64 sequence number | u32 length | length bytes of one encode_batch frame

Sequence numbers start at 1 and increase by exactly 1 per frame of a
sender's stream — a gap is a protocol violation (the gateway cannot know
what it missed), answered with ``STATUS_WIRE_ERROR``. Each frame is
answered by a status message (gateway → client)::

    u8 status | u32 message length | utf-8 message

``STATUS_OK`` acknowledges that the frame was decoded, validated against
the contract, and folded into a shard — and, on a checkpointing
gateway, that every checkpoint the frame triggered is durable. Error
statuses carry the server-side diagnostic and map back onto the
library's typed exceptions via :func:`raise_for_status`; after reporting
one the gateway closes the connection (a stream that produced malformed
bytes cannot be trusted to stay in frame). A client ends its stream by
half-closing the connection (EOF instead of a frame header).

Federation ``STATE`` pushes (:mod:`repro.federation`) reuse the same
framing with the roles renamed: the hello opens with ``STATE_MAGIC`` and
carries the *edge id* in the sender-id field, the reply's watermark is
the highest *epoch* the root has folded durably, and each data-phase
frame is ``u64 epoch | u32 length | one encoded state-push payload`` —
acknowledged by the same status messages.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Optional, Tuple

from ..exceptions import ContractMismatchError, TransportError, WireFormatError
from ..wire.contract import DIGEST_SIZE

#: Magic opening both handshake messages (distinct from the wire codec's
#: ``LDPW`` so a frame accidentally sent first is caught immediately).
TRANSPORT_MAGIC = b"LDPT"

#: Magic opening a ``STATS`` control request: a hello-sized message with
#: this magic (digest and sender-id fields zeroed) asks the gateway for
#: its live telemetry snapshot instead of opening a report stream. The
#: gateway answers with a normal hello reply whose status message is the
#: JSON snapshot, then closes.
STATS_MAGIC = b"LDPS"

#: Magic opening a federation ``STATE`` push stream: a hello-sized
#: message whose sender-id field carries the *edge id* announces an edge
#: aggregator shipping merged ``state_dict`` snapshots upstream instead
#: of individual report frames. The root answers with a normal hello
#: reply whose resume watermark is the highest *epoch* it has durably
#: folded for that edge — the same dedup contract report streams get,
#: lifted one tier up (see :mod:`repro.federation`).
STATE_MAGIC = b"LDPU"

#: Version of the socket transport (handshake + framing), independent of
#: the wire codec version embedded in every payload frame. Version 2
#: added sender ids, frame sequence numbers and the resume watermark;
#: version 3 added the federation ``STATE`` push stream (edge
#: aggregators shipping epoch-numbered merged snapshots upstream).
TRANSPORT_VERSION = 3

#: Bytes naming one logical report stream across reconnects.
SENDER_ID_SIZE = 16

#: Frames longer than this are rejected before allocation — a corrupted
#: or hostile length prefix must not balloon gateway memory.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Status messages longer than this are a protocol violation — a broken
#: peer's length field must not balloon sender memory either.
MAX_STATUS_BYTES = 1024 * 1024

STATUS_OK = 0
STATUS_WIRE_ERROR = 1
STATUS_CONTRACT_MISMATCH = 2
STATUS_TRANSPORT_ERROR = 3

HELLO = struct.Struct("<4sH%ds%ds" % (DIGEST_SIZE, SENDER_ID_SIZE))
HELLO_REPLY = struct.Struct("<4sH%dsQ" % DIGEST_SIZE)
_FRAME_HEAD = struct.Struct("<QI")
_STATUS_HEAD = struct.Struct("<BI")


def pack_status(status: int, message: str = "") -> bytes:
    """Serialize one status message (ack or typed rejection)."""
    body = message.encode("utf-8")
    return _STATUS_HEAD.pack(status, len(body)) + body


async def read_status(reader: asyncio.StreamReader) -> Tuple[int, str]:
    """Read one status message; :class:`TransportError` on a dropped peer."""
    try:
        status, length = _STATUS_HEAD.unpack(
            await reader.readexactly(_STATUS_HEAD.size)
        )
        if length > MAX_STATUS_BYTES:
            raise TransportError(
                "peer announced a %d-byte status message (limit %d): not "
                "speaking this protocol" % (length, MAX_STATUS_BYTES)
            )
        body = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise TransportError(
            "connection closed while waiting for a gateway response: %s" % exc
        ) from None
    return status, body.decode("utf-8", errors="replace")


def raise_for_status(status: int, message: str) -> None:
    """Map a non-OK status back onto the library's typed exceptions."""
    if status == STATUS_OK:
        return
    if status == STATUS_WIRE_ERROR:
        raise WireFormatError(message)
    if status == STATUS_CONTRACT_MISMATCH:
        raise ContractMismatchError(message)
    raise TransportError(
        message or "gateway reported transport failure (status %d)" % status
    )


def write_frame(writer: asyncio.StreamWriter, seq: int, payload: bytes) -> None:
    """Queue one sequenced frame on the stream (await ``drain()``)."""
    writer.write(_FRAME_HEAD.pack(seq, len(payload)))
    writer.write(payload)


async def read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int
) -> Optional[Tuple[int, bytes]]:
    """Read one sequenced frame as ``(seq, payload)``.

    Returns ``None`` on a clean end of stream (EOF instead of a frame
    header — how senders finish a round). Raises
    :class:`WireFormatError` for an over-limit length prefix or a zero
    sequence number, and :class:`TransportError` for a connection
    dropped mid-frame.
    """
    try:
        head = await reader.readexactly(_FRAME_HEAD.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TransportError(
            "connection closed mid-header (%d of %d bytes)"
            % (len(exc.partial), _FRAME_HEAD.size)
        ) from None
    except ConnectionError as exc:
        raise TransportError("connection lost: %s" % exc) from None
    seq, length = _FRAME_HEAD.unpack(head)
    if seq == 0:
        raise WireFormatError(
            "frame sequence numbers start at 1; 0 is reserved for "
            "a stream with nothing acknowledged"
        )
    if length > max_frame_bytes:
        raise WireFormatError(
            "frame of %d bytes exceeds the transport limit of %d"
            % (length, max_frame_bytes)
        )
    try:
        return seq, await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise TransportError(
            "connection closed mid-frame: %s" % exc
        ) from None
