"""The ``STATE`` push payload: one edge snapshot — or delta — on the wire.

A federation push carries an edge aggregator's
:meth:`~repro.session.LDPServer.state_dict` in one of two kinds:

``snapshot``
    The full, cumulative state. The root replaces its record for the
    edge. Snapshots are what make the tier idempotent under every
    failure mode: a re-pushed epoch is a byte-identical no-op, a
    skipped epoch is covered by the next one, and an edge that crashed
    and resumed from its checkpoint re-ships everything it durably held.
``delta``
    Only the accumulator growth since ``base_epoch`` — the last epoch
    the root acknowledged to this edge: the document of
    :meth:`~repro.session.SessionState.delta`. Every accumulator is
    exactly additive (big-integer sums, int64 counts), so the root
    merges it into its stored state value and
    ``base.merged(current.delta(base)) == current`` holds bit for bit.
    Deltas exist purely to cut upstream bytes: an edge falls back to a
    full snapshot on its first push, after any reconnect whose
    re-learned watermark disagrees with its base, and whenever a delta
    cannot be formed or is refused.

Payload layout (inside one transport frame, ``u64 epoch`` in the frame
header)::

    u32 CRC-32 | canonical-JSON push document          (version 1)
    u32 CRC-32 | zlib(canonical-JSON push document)    (version 2)

Version-2 documents also tokenize the exact accumulator big-integers as
``[-]<hex significand>p<shift>`` before serializing: a column sum is a
handful of significant bits followed by the ~1100 zero bits of the
fixed-point scale, so the token is ~20 characters where the decimal
digits were ~340 — the dominant share of a push's bytes. Both
transforms are lossless (the decoded state is the exact dict the edge
encoded) and both are distinguishable on sight: a raw version-1 JSON
document starts with ``{``, a zlib stream never does.

The document embeds the contract fingerprint (lifted out of the state
snapshot) so the root refuses a foreign-contract push before touching
its aggregation state, plus the edge's plain gateway counters — the root
aggregates those across edges in its own ``STATS`` snapshot, so one
admin request covers the whole topology. Counters are always cumulative
(the root replaces them even under a delta push). Damage (CRC failure,
malformed JSON, missing fields, an impossible kind/base_epoch pair)
raises :class:`~repro.exceptions.WireFormatError`; a foreign contract
raises :class:`~repro.exceptions.ContractMismatchError` naming both
fingerprints. Version-1 documents (no ``kind``/``base_epoch`` fields)
still decode — they are full snapshots by definition.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, Mapping, NamedTuple, Optional

from ..exceptions import WireFormatError
from ..wire.constants import CRC32
from ..wire.contract import CollectionContract

#: Format tag and version of the push document.
PUSH_FORMAT = "repro-federation-state-push"
PUSH_VERSION = 2

#: Push document versions this build decodes.
SUPPORTED_PUSH_VERSIONS = (1, 2)

#: The two push kinds a version-2 document may carry.
PUSH_KIND_SNAPSHOT = "snapshot"
PUSH_KIND_DELTA = "delta"

_CRC_HEAD = CRC32

#: Decompression bound for version-2 documents (bomb guard).
MAX_PUSH_DOCUMENT_BYTES = 1 << 28

#: Minimum trailing zero bits before an accumulator integer is worth
#: tokenizing as ``<hex significand>p<shift>``.
_MIN_TOKEN_SHIFT = 16


def _hexp_token(value: Any) -> Any:
    """Tokenize one exact column sum for the wire (lossless).

    ``sig * 2**shift`` with the significand in hex: the fixed-point
    accumulators carry ~1100 trailing zero bits of scale, so the token
    is ~20 characters where the decimal digits were ~340. Values that
    are not large even integers pass through unchanged.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value == 0:
        return value
    magnitude = -value if value < 0 else value
    shift = (magnitude & -magnitude).bit_length() - 1
    if shift < _MIN_TOKEN_SHIFT:
        return value
    return "%s%xp%d" % ("-" if value < 0 else "", magnitude >> shift, shift)


def _hexp_value(entry: Any) -> Any:
    """Invert :func:`_hexp_token`; non-string entries pass through."""
    if not isinstance(entry, str):
        return entry
    body = entry[1:] if entry.startswith("-") else entry
    significand, sep, shift = body.partition("p")
    try:
        value = int(significand, 16) << int(shift)
    except (TypeError, ValueError):
        raise WireFormatError(
            "malformed accumulator token %r" % (entry,)
        ) from None
    if not sep or int(shift) < 0:
        raise WireFormatError("malformed accumulator token %r" % (entry,))
    return -value if entry.startswith("-") else value


def _transform_sums(state: Any, transform: Any) -> Any:
    """Rewrite every exact-sum column list of a state document.

    Structure-preserving and forgiving: anything not shaped like a
    state document passes through untouched (downstream validation owns
    rejecting it), so the codec never masks a malformed push behind a
    transform error.
    """
    if not isinstance(state, dict) or not isinstance(
        state.get("attributes"), dict
    ):
        return state
    attributes = {}
    for name, snapshot in state["attributes"].items():
        if (
            isinstance(snapshot, dict)
            and isinstance(snapshot.get("sums"), dict)
            and isinstance(snapshot["sums"].get("sums"), list)
        ):
            sums = dict(snapshot["sums"])
            sums["sums"] = [transform(value) for value in sums["sums"]]
            snapshot = dict(snapshot)
            snapshot["sums"] = sums
        attributes[name] = snapshot
    packed = dict(state)
    packed["attributes"] = attributes
    return packed


class StatePush(NamedTuple):
    """One decoded push: its state payload and how to fold it.

    ``state`` is a full cumulative snapshot when ``kind`` is
    ``"snapshot"`` and an additive difference over the edge's state at
    ``base_epoch`` when ``kind`` is ``"delta"``. ``counters`` are always
    the edge's cumulative gateway counters.
    """

    state: Dict[str, Any]
    counters: Dict[str, Any]
    kind: str
    base_epoch: int


def encode_state_push(
    state: Mapping[str, Any],
    counters: Optional[Mapping[str, Any]] = None,
    kind: str = PUSH_KIND_SNAPSHOT,
    base_epoch: int = 0,
) -> bytes:
    """Serialize one state push (CRC-sealed canonical JSON).

    ``state`` is a :meth:`~repro.session.SessionState.to_document`
    document — the full state, or for ``kind="delta"`` the document of
    a :meth:`~repro.session.SessionState.delta`, with ``base_epoch``
    naming the acknowledged epoch the delta builds on. ``counters`` are
    the edge's plain gateway counters (JSON scalars), carried for
    root-side aggregation only — they never touch the estimate.
    """
    fingerprint = state.get("fingerprint") if isinstance(state, Mapping) else None
    if not isinstance(fingerprint, str):
        raise WireFormatError(
            "a state push needs a state_dict snapshot (with its embedded "
            "fingerprint), got %r" % (state,)
        )
    if kind not in (PUSH_KIND_SNAPSHOT, PUSH_KIND_DELTA):
        raise WireFormatError("unknown push kind %r" % (kind,))
    base = int(base_epoch)
    if kind == PUSH_KIND_DELTA and base < 1:
        raise WireFormatError(
            "a delta push must name the acknowledged epoch it builds on, "
            "got base_epoch=%d" % base
        )
    if kind == PUSH_KIND_SNAPSHOT and base != 0:
        raise WireFormatError(
            "a snapshot push carries no base epoch, got base_epoch=%d" % base
        )
    document = {
        "format": PUSH_FORMAT,
        "push_version": PUSH_VERSION,
        "fingerprint": fingerprint,
        "kind": kind,
        "base_epoch": base,
        "state": _transform_sums(dict(state), _hexp_token),
        "counters": dict(counters) if counters else {},
    }
    try:
        blob = json.dumps(document, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireFormatError(
            "state push is not JSON-serializable: %s" % exc
        ) from None
    blob = zlib.compress(blob, 6)
    return _CRC_HEAD.pack(zlib.crc32(blob) & 0xFFFFFFFF) + blob


def decode_state_push(
    payload: bytes, contract: CollectionContract
) -> StatePush:
    """Verify and unpack one push payload as a :class:`StatePush`.

    The CRC seal, the document structure, the contract fingerprint and
    the kind/base_epoch pairing are all checked before anything is
    returned — a root never folds bytes it could not fully validate.
    Version-1 documents decode as ``kind="snapshot"``, ``base_epoch=0``.
    """
    if len(payload) < _CRC_HEAD.size:
        raise WireFormatError(
            "state push of %d bytes is shorter than its CRC header"
            % len(payload)
        )
    (crc,) = _CRC_HEAD.unpack_from(payload)
    blob = payload[_CRC_HEAD.size:]
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        raise WireFormatError(
            "state push failed its CRC check: the payload was corrupted "
            "in flight or truncated"
        )
    if not blob.startswith(b"{"):
        # Version 2 compresses the document; version 1 shipped it raw
        # (and a JSON object can never open with a zlib header byte).
        decompressor = zlib.decompressobj()
        try:
            blob = decompressor.decompress(blob, MAX_PUSH_DOCUMENT_BYTES)
        except zlib.error as exc:
            raise WireFormatError(
                "state push does not hold a valid compressed document: %s"
                % exc
            ) from None
        if decompressor.unconsumed_tail:
            raise WireFormatError(
                "state push document exceeds %d bytes decompressed"
                % MAX_PUSH_DOCUMENT_BYTES
            )
    try:
        document = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireFormatError(
            "state push does not hold a valid JSON document: %s" % exc
        ) from None
    if not isinstance(document, dict) or document.get("format") != PUSH_FORMAT:
        raise WireFormatError(
            "not a %r document: %r" % (PUSH_FORMAT, document)
        )
    version = document.get("push_version")
    if version not in SUPPORTED_PUSH_VERSIONS:
        raise WireFormatError(
            "unsupported state push version %r (this build speaks %s)"
            % (version, list(SUPPORTED_PUSH_VERSIONS))
        )
    fingerprint = document.get("fingerprint")
    try:
        digest = bytes.fromhex(fingerprint)
    except (TypeError, ValueError):
        raise WireFormatError(
            "malformed state push fingerprint: %r" % (fingerprint,)
        ) from None
    contract.require_digest(digest, "federation state push")
    if version == 1:
        kind, base_epoch = PUSH_KIND_SNAPSHOT, 0
    else:
        kind = document.get("kind")
        if kind not in (PUSH_KIND_SNAPSHOT, PUSH_KIND_DELTA):
            raise WireFormatError(
                "state push carries unknown kind %r" % (kind,)
            )
        base_epoch = document.get("base_epoch")
        if (
            not isinstance(base_epoch, int)
            or isinstance(base_epoch, bool)
            or base_epoch < 0
        ):
            raise WireFormatError(
                "malformed push base epoch: %r" % (base_epoch,)
            )
        if kind == PUSH_KIND_DELTA and base_epoch < 1:
            raise WireFormatError(
                "a delta push must name the acknowledged epoch it builds "
                "on, got base_epoch=%d" % base_epoch
            )
        if kind == PUSH_KIND_SNAPSHOT and base_epoch != 0:
            raise WireFormatError(
                "a snapshot push carries no base epoch, got base_epoch=%d"
                % base_epoch
            )
    state = document.get("state")
    if not isinstance(state, dict):
        raise WireFormatError(
            "state push carries no state snapshot: %r" % (state,)
        )
    if version >= 2:
        state = _transform_sums(state, _hexp_value)
    counters = document.get("counters")
    if not isinstance(counters, dict):
        raise WireFormatError(
            "state push carries malformed counters: %r" % (counters,)
        )
    return StatePush(state, counters, kind, base_epoch)
