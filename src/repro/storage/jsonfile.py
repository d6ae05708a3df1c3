"""Atomic single-document JSON file checkpoint store.

The simplest durable backend: one file, holding the latest checkpoint
document as canonical JSON. Writes go through a temp-file-and-rename in
the target's own directory: the scratch file is fsynced before the
rename and the directory after it (where the platform can open one), so
a document is on disk once ``save`` returns and a crash mid-save can
never destroy the previous good checkpoint. A failed write removes its
scratch file instead of leaving a stale partial ``.tmp`` beside the
target — this
store is the library-wide home of what used to be ad-hoc logic inside
:meth:`~repro.session.LDPServer.save_state` (which now delegates here,
as does :meth:`~repro.session.ShardedServer.save_state`).

Keeping exactly one document means ``recover()`` cannot fall back past a
damaged file — atomic replacement makes a torn *write* impossible, so a
corrupt file implies external damage and both verbs raise.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
from typing import Any, Dict, Mapping, Optional, Union

from ..exceptions import StorageError
from .base import (
    CheckpointStore,
    decode_document,
    encode_document,
    fsync_directory,
    fsync_path,
)


class JsonFileStore(CheckpointStore):
    """Latest-checkpoint-only store over one atomic JSON file."""

    scheme = "file"

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        super().__init__()
        self.path = pathlib.Path(path)

    def _path_for_uri(self) -> str:
        return str(self.path)

    def save(self, document: Mapping[str, Any]) -> int:
        blob = encode_document(document)  # refuse before touching disk
        started = self.telemetry.clock()
        scratch = self.path.with_name(self.path.name + ".tmp")
        try:
            scratch.write_text(blob.decode("utf-8") + "\n")
            fsync_path(scratch, os.O_RDWR)
            os.replace(scratch, self.path)
        # repro: allow[broad-except] -- cleanup-and-reraise: the atomic
        # save's scratch file must not survive any failure (including
        # CancelledError); the original error propagates untouched.
        except BaseException:
            with contextlib.suppress(OSError):
                scratch.unlink()
            raise
        fsync_directory(self.path.parent)  # make the rename itself durable
        self._observe_op("save", started, len(blob))
        return len(blob)

    def load(self) -> Optional[Dict[str, Any]]:
        started = self.telemetry.clock()
        document = self._read()
        if document is not None:
            self._observe_op("load", started)
        return document

    def recover(self) -> Optional[Dict[str, Any]]:
        # One document, atomically replaced: there is no older record to
        # fall back to, so recovery is exactly the strict read.
        started = self.telemetry.clock()
        document = self._read()
        self._observe_op("recover", started)
        return document

    # ------------------------------------------------------------- helpers

    def _read(self) -> Optional[Dict[str, Any]]:
        """The stored document, or ``None`` for a missing file (unobserved)."""
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return None
        return decode_document(blob, "checkpoint file %s" % self.path)

    def load_required(self) -> Dict[str, Any]:
        """Like :meth:`load`, but a missing file is an error.

        Used by the session layer's ``load_state``, where resuming from
        a checkpoint that does not exist is a caller mistake, not an
        empty store.
        """
        document = self.load()
        if document is None:
            raise StorageError("no checkpoint at %s" % self.path)
        return document
