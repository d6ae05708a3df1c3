"""Checkpoint-store URIs: one string selects a backend and a location.

The collection CLI (and anything else configured by flat strings) names
its durable state as ``scheme://path``::

    file://round.json       atomic single-document JSON file
    segments://round-log/   append-only CRC-framed segment log

A bare path with no ``://`` keeps working as the JSON file backend, so
every pre-existing ``--checkpoint PATH`` invocation means what it always
meant.
"""

from __future__ import annotations

from typing import Tuple

from ..exceptions import StorageError
from .base import CheckpointStore
from .jsonfile import JsonFileStore
from .segments import SegmentLogStore

_BACKENDS = {
    JsonFileStore.scheme: JsonFileStore,
    SegmentLogStore.scheme: SegmentLogStore,
}


def parse_storage_uri(uri: str) -> Tuple[str, str]:
    """Split ``scheme://path`` into its parts, validating both.

    A string without ``://`` parses as the ``file`` scheme. Unknown
    schemes and empty paths raise :class:`StorageError` naming every
    scheme the library knows.
    """
    if not isinstance(uri, str) or not uri:
        raise StorageError("a checkpoint URI must be a non-empty string")
    scheme, separator, path = uri.partition("://")
    if not separator:
        scheme, path = JsonFileStore.scheme, uri
    if scheme not in _BACKENDS:
        raise StorageError(
            "unknown checkpoint scheme %r in %r (known: %s)"
            % (scheme, uri, ", ".join(sorted(_BACKENDS)))
        )
    if not path:
        raise StorageError("checkpoint URI %r names no path" % uri)
    return scheme, path


def open_store(uri: str) -> CheckpointStore:
    """Open the checkpoint store a URI describes."""
    scheme, path = parse_storage_uri(uri)
    return _BACKENDS[scheme](path)
