"""Append-only segment-log checkpoint store with CRC framing + compaction.

The write-optimized backend for high-frequency checkpointing: every
``save`` *appends* one CRC-framed record to the newest segment file —
no rewrite of earlier bytes, so a crash mid-append can only tear the
final record, never a previously durable checkpoint. Segments roll over
at ``segment_max_bytes`` and the log periodically *compacts*: the newest
intact checkpoint is rewritten as the sole record of a fresh segment and
every older segment is deleted, bounding disk usage without ever holding
fewer than one durable checkpoint. Every record is fsynced before
``save`` returns, and the directory too whenever a segment file was
created, so a new segment cannot vanish on power loss after its ack; a
compaction's segment is made durable the same way before any older one
is unlinked. A record is never appended behind a torn one, where it
could not be read back: a segment that does not end on a whole record
is left as it is and the next save opens a fresh one.

Record framing (little-endian), one record per checkpoint::

    magic b"RSEG" | u32 payload length | u32 CRC-32(payload) | payload

``load()`` is strict — any framing violation (bad magic, CRC failure,
torn tail) raises :class:`~repro.exceptions.CheckpointCorruptError`.
``recover()`` implements crash-restart semantics: a torn tail is the
*expected* artefact of SIGKILL mid-append, so it steps back to the
newest record that is fully intact.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import struct
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..exceptions import CheckpointCorruptError, StorageError
from .base import (
    CheckpointStore,
    decode_document,
    document_crc,
    encode_document,
    fsync_directory,
)

RECORD_MAGIC = b"RSEG"  # repro: allow[wire-constants] -- storage-local
# record framing: these bytes frame on-disk segment records and never
# cross the wire, so they live with the store that owns them.
# repro: allow[wire-constants] -- storage-local record framing (see above).
_RECORD_HEAD = struct.Struct("<4sII")

#: Roll to a fresh segment once the current one exceeds this.
DEFAULT_SEGMENT_MAX_BYTES = 8 * 1024 * 1024

#: Compact (rewrite newest checkpoint, drop history) every N saves.
DEFAULT_COMPACT_EVERY = 16


def _pack_record(payload: bytes) -> bytes:
    return _RECORD_HEAD.pack(RECORD_MAGIC, len(payload), document_crc(payload)) + payload


class SegmentLogStore(CheckpointStore):
    """Append-only checkpoint log over a directory of segment files."""

    scheme = "segments"

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        compact_every: int = DEFAULT_COMPACT_EVERY,
    ) -> None:
        if int(segment_max_bytes) < 1:
            raise StorageError(
                "segment_max_bytes must be >= 1, got %r" % (segment_max_bytes,)
            )
        if int(compact_every) < 1:
            raise StorageError(
                "compact_every must be >= 1, got %r" % (compact_every,)
            )
        super().__init__()
        self.directory = pathlib.Path(directory)
        self.segment_max_bytes = int(segment_max_bytes)
        self.compact_every = int(compact_every)
        self._saves_since_compaction = 0
        # The newest segment once it is known to end on a whole record.
        # A record appended behind a torn one (a crash mid-append, here
        # or in an earlier process) could never be read back.
        self._clean_tail: Optional[pathlib.Path] = None

    def _path_for_uri(self) -> str:
        return str(self.directory)

    # ------------------------------------------------------------ segments

    def segments(self) -> List[pathlib.Path]:
        """Segment files, oldest first (names sort by index)."""
        if not self.directory.exists():
            return []
        return sorted(self.directory.glob("*.seg"))

    @staticmethod
    def _segment_index(path: pathlib.Path) -> int:
        try:
            return int(path.stem)
        except ValueError:
            raise CheckpointCorruptError(
                "alien file %s inside the segment log" % path
            ) from None

    def _segment_path(self, index: int) -> pathlib.Path:
        return self.directory / ("%08d.seg" % index)

    def _writable_segment(self, record_size: int) -> Tuple[pathlib.Path, bool]:
        """The segment the next record goes to, and whether it is new."""
        existing = self.segments()
        if not existing:
            return self._segment_path(1), True
        newest = existing[-1]
        if newest != self._clean_tail:
            # written by an earlier store, or our last append to it failed
            _, torn = self._scan_segment(newest, strict=False)
            if not torn:
                self._clean_tail = newest
        if (
            newest != self._clean_tail
            or newest.stat().st_size + record_size > self.segment_max_bytes
        ):
            return self._segment_path(self._segment_index(newest) + 1), True
        return newest, False

    # --------------------------------------------------------------- verbs

    def save(self, document: Mapping[str, Any]) -> int:
        payload = encode_document(document)
        record = _pack_record(payload)
        started = self.telemetry.clock()
        try:
            if not self.directory.is_dir():
                self.directory.mkdir(parents=True)
                fsync_directory(self.directory.parent)
            target, created = self._writable_segment(len(record))
            self._clean_tail = None  # until the whole record is down
            with open(target, "ab") as handle:
                handle.write(record)
                handle.flush()
                os.fsync(handle.fileno())
            if created:
                fsync_directory(self.directory)
            self._clean_tail = target
        except OSError as exc:
            raise StorageError(
                "segment-log append under %s failed: %s" % (self.directory, exc)
            ) from None
        self._observe_op("save", started, len(record))
        self._saves_since_compaction += 1
        if self._saves_since_compaction >= self.compact_every:
            # the record just appended is the newest: no need to re-read it
            self._compact_to(payload)
        return len(payload)

    def _scan_segment(
        self, path: pathlib.Path, strict: bool
    ) -> Tuple[Optional[bytes], bool]:
        """Newest intact payload of one segment, plus a corruption flag.

        ``strict`` raises on the first framing violation; otherwise the
        segment's readable prefix wins and the remainder is reported via
        the flag (a torn tail invalidates everything after it — framing
        is length-prefixed, so there is no way back into sync).
        """
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise StorageError(
                "cannot read segment %s: %s" % (path, exc)
            ) from None
        newest: Optional[bytes] = None
        offset = 0
        while offset < len(blob):
            head = blob[offset:offset + _RECORD_HEAD.size]
            corrupt: Optional[str] = None
            payload = b""
            if len(head) < _RECORD_HEAD.size:
                corrupt = "torn record head (%d trailing bytes)" % len(head)
            else:
                magic, length, crc = _RECORD_HEAD.unpack(head)
                start = offset + _RECORD_HEAD.size
                payload = blob[start:start + length]
                if magic != RECORD_MAGIC:
                    corrupt = "bad record magic %r at offset %d" % (magic, offset)
                elif len(payload) < length:
                    corrupt = (
                        "torn record tail at offset %d (%d of %d payload bytes)"
                        % (offset, len(payload), length)
                    )
                elif document_crc(payload) != crc:
                    corrupt = "CRC-32 failure at offset %d" % offset
            if corrupt is not None:
                if strict:
                    raise CheckpointCorruptError(
                        "segment %s: %s" % (path, corrupt)
                    )
                return newest, True
            newest = payload
            offset += _RECORD_HEAD.size + len(payload)
        return newest, False

    def _newest_payload(self, strict: bool) -> Tuple[Optional[bytes], bool]:
        newest: Optional[bytes] = None
        saw_corruption = False
        for path in self.segments():
            payload, corrupt = self._scan_segment(path, strict)
            if corrupt:
                saw_corruption = True
                self._observe_corrupt_skip(path.name)
            if payload is not None:
                newest = payload
        return newest, saw_corruption

    def load(self) -> Optional[Dict[str, Any]]:
        started = self.telemetry.clock()
        payload, _ = self._newest_payload(strict=True)
        if payload is None:
            return None
        document = decode_document(payload, "segment log %s" % self.directory)
        self._observe_op("load", started)
        return document

    def recover(self) -> Optional[Dict[str, Any]]:
        started = self.telemetry.clock()
        payload, saw_corruption = self._newest_payload(strict=False)
        if payload is None:
            if saw_corruption:
                raise CheckpointCorruptError(
                    "segment log %s holds records but not one is intact"
                    % self.directory
                )
            return None
        document = decode_document(payload, "segment log %s" % self.directory)
        self._observe_op("recover", started)
        return document

    # ---------------------------------------------------------- compaction

    def compact(self) -> None:
        """Rewrite the newest intact checkpoint as the whole log.

        The compacted record lands in a *new* segment first; older
        segments are deleted only afterwards, so a crash mid-compaction
        leaves at worst extra history, never less.
        """
        payload, _ = self._newest_payload(strict=False)
        self._compact_to(payload)

    def _compact_to(self, payload: Optional[bytes]) -> None:
        """Make ``payload`` the whole log (see :meth:`compact`)."""
        self._saves_since_compaction = 0
        if payload is None:
            return
        existing = self.segments()
        target = self._segment_path(self._segment_index(existing[-1]) + 1)
        try:
            with open(target, "xb") as handle:
                handle.write(_pack_record(payload))
                handle.flush()
                os.fsync(handle.fileno())
            # the new segment must be durable before any old one goes
            fsync_directory(self.directory)
            self._clean_tail = target
        except OSError as exc:
            raise StorageError(
                "segment-log compaction under %s failed: %s"
                % (self.directory, exc)
            ) from None
        for stale in existing:
            with contextlib.suppress(OSError):
                stale.unlink()

    def log_bytes(self) -> int:
        """Total bytes across all segments (for tests and observability)."""
        return sum(path.stat().st_size for path in self.segments())
