"""Round checkpoint documents: server state plus per-sender watermarks.

A *round checkpoint* is what the socket gateway persists between frames:
the aggregation snapshot (:meth:`~repro.session.LDPServer.state_dict`)
together with the high-water mark of acknowledged frame sequence numbers
per sender connection. A restarted gateway restores the snapshot, tells
each reconnecting sender its watermark, and acknowledges-without-folding
any frame at or below it — so replayed frames are deduplicated and the
finished round's estimates are bit-identical to an uninterrupted one.

Structural damage (missing keys, wrong types, alien formats) raises
:class:`~repro.exceptions.CheckpointCorruptError`; a checkpoint written
under a *different* collection contract raises
:class:`~repro.exceptions.ContractMismatchError` naming both
fingerprints, exactly like batch ingestion does. The header checks are
shared with the federation root's checkpoint through
:func:`parse_watermark_ledger`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from ..exceptions import CheckpointCorruptError
from ..wire import CollectionContract

ROUND_FORMAT = "repro-collection-round"
ROUND_VERSION = 1


def round_checkpoint_document(
    state: Mapping[str, Any],
    progress: Mapping[bytes, int],
    frames: int,
) -> Dict[str, Any]:
    """Build the checkpoint document for one in-flight collection round.

    Parameters
    ----------
    state:
        An :meth:`~repro.session.LDPServer.state_dict` snapshot (its
        embedded fingerprint is lifted to the top level so restoration
        can refuse a foreign contract before touching the snapshot).
    progress:
        Highest *contiguously acknowledged* frame sequence number per
        sender id. Keys are the raw 16-byte sender ids.
    frames:
        Total frames folded into ``state`` (observability only).
    """
    return {
        "format": ROUND_FORMAT,
        "round_version": ROUND_VERSION,
        "fingerprint": state.get("fingerprint"),
        "state": dict(state),
        "progress": {
            sender_id.hex(): int(watermark)
            for sender_id, watermark in progress.items()
        },
        "frames": int(frames),
    }


def _unhex(text: Any, message: str) -> bytes:
    """``text`` decoded from hex, or a corruption error ``message % text``."""
    try:
        return bytes.fromhex(text)
    except (TypeError, ValueError):
        raise CheckpointCorruptError(message % (text,)) from None


def parse_watermark_ledger(
    document: Any,
    contract: CollectionContract,
    kind: str,
    tag: str,
    version: int,
    table: str,
    peer: str,
) -> Dict[bytes, Any]:
    """Check a watermark-ledger document's header; its id-keyed table.

    The round checkpoint (frame watermarks per sender) and the
    federation checkpoint (epochs per edge) share one header: the
    ``format`` tag, the version under ``<kind>_version``, the hex
    contract fingerprint (checked against ``contract``), and a ``table``
    keyed by hex ids of ``peer`` streams. Returns that table keyed by raw
    id bytes; its values are the caller's to validate.
    """
    name = "%s checkpoint" % kind
    version_key = "%s_version" % kind
    if not isinstance(document, Mapping) or document.get("format") != tag:
        raise CheckpointCorruptError("not a %r document: %r" % (tag, document))
    if document.get(version_key) != version:
        raise CheckpointCorruptError(
            "unsupported %s version %r (this build speaks %d)"
            % (name, document.get(version_key), version)
        )
    digest = _unhex(
        document.get("fingerprint"), "malformed %s fingerprint: %%r" % name
    )
    contract.require_digest(digest, name)
    entries = document.get(table)
    if not isinstance(entries, Mapping):
        raise CheckpointCorruptError(
            "%s carries no %s table: %r" % (name, table, entries)
        )
    return {
        _unhex(key, "malformed %s id %%r in %s" % (peer, name)): value
        for key, value in entries.items()
    }


def parse_round_checkpoint(
    document: Mapping[str, Any],
    contract: CollectionContract,
) -> Tuple[Dict[str, Any], Dict[bytes, int], int]:
    """Validate a round checkpoint against ``contract`` and unpack it.

    Returns ``(state, progress, frames)`` with progress keyed by raw
    sender-id bytes again.
    """
    progress = parse_watermark_ledger(
        document, contract, "round", ROUND_FORMAT, ROUND_VERSION, "progress", "sender"
    )
    for sender_id, watermark in progress.items():
        if (
            not isinstance(watermark, int)
            or isinstance(watermark, bool)
            or watermark < 0
        ):
            raise CheckpointCorruptError(
                "malformed watermark %r for sender %s"
                % (watermark, sender_id.hex())
            )
    state = document.get("state")
    if not isinstance(state, Mapping):
        raise CheckpointCorruptError(
            "round checkpoint carries no state snapshot: %r" % (state,)
        )
    frames = document.get("frames")
    if not isinstance(frames, int) or isinstance(frames, bool) or frames < 0:
        raise CheckpointCorruptError(
            "malformed frame count %r in round checkpoint" % (frames,)
        )
    return dict(state), progress, frames
