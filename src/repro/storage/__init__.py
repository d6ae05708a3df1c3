"""Durable checkpoint storage for collection rounds.

One interface, two backends:

* :class:`JsonFileStore` (``file://``) — one atomic, fsynced JSON file;
  the library-wide home of the temp-file-and-rename logic the session
  layer used to hand-roll;
* :class:`SegmentLogStore` (``segments://``) — an append-only CRC-framed
  segment log with compaction and history to recover past a damaged
  newest record, the write-optimized choice for high-frequency
  checkpointing.

:func:`open_store` resolves a ``scheme://path`` URI (a bare path means
``file``); :func:`round_checkpoint_document` /
:func:`parse_round_checkpoint` carry the socket gateway's state *plus*
per-sender acknowledgement watermarks, so a restarted gateway resumes
exactly and deduplicates replayed frames.

Every backend raises typed errors only:
:class:`~repro.exceptions.StorageError` for operational failures,
:class:`~repro.exceptions.CheckpointCorruptError` for damaged state, and
:class:`~repro.exceptions.ContractMismatchError` when a checkpoint was
written under a different collection contract.
"""

from .base import (
    CheckpointStore,
    decode_document,
    document_crc,
    encode_document,
)
from .checkpoint import (
    ROUND_FORMAT,
    ROUND_VERSION,
    parse_round_checkpoint,
    round_checkpoint_document,
)
from .jsonfile import JsonFileStore
from .segments import (
    DEFAULT_COMPACT_EVERY,
    DEFAULT_SEGMENT_MAX_BYTES,
    RECORD_MAGIC,
    SegmentLogStore,
)
from .uri import open_store, parse_storage_uri

__all__ = [
    "CheckpointStore",
    "DEFAULT_COMPACT_EVERY",
    "DEFAULT_SEGMENT_MAX_BYTES",
    "JsonFileStore",
    "RECORD_MAGIC",
    "ROUND_FORMAT",
    "ROUND_VERSION",
    "SegmentLogStore",
    "decode_document",
    "document_crc",
    "encode_document",
    "open_store",
    "parse_round_checkpoint",
    "parse_storage_uri",
    "round_checkpoint_document",
]
