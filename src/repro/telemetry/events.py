"""Structured JSON event log over stdlib :mod:`logging`.

One event per line, machine-parseable: each record rendered by
:class:`JsonEventFormatter` is a single JSON object with a stable field
order — ``ts`` (wall-clock seconds since the epoch), ``level``,
``logger``, ``event`` (the event name) and then the event's own fields.
Events flow through the ordinary logging tree under the ``repro``
namespace, so applications that already configure logging capture them
for free, and a process with no handler attached pays only an
``isEnabledFor`` check per event.

Event vocabulary across the collection stack (each listed with its
fields beyond the implicit ``ts``/``level``/``logger``/``event``):

========================  =====================================================
event                     fields
========================  =====================================================
``handshake_accepted``    ``sender_id``, ``resume_seq`` (a root:
                          ``edge_id``, ``resume_epoch``)
``handshake_rejected``    ``reason``, ``detail``
``stats_served``          ``bytes``
``frame_accepted``        ``sender_id``, ``seq``, ``users``, ``shard``
``frame_rejected``        ``reason``, ``sender_id``, ``detail``
``frame_deduped``         ``sender_id``, ``seq``
``fold``                  ``shard``, ``users``, ``seconds``
``fold_failed``           ``shard``, ``error``
``checkpoint_cut``        ``trigger`` (``frames``/``timer``/``final``),
                          ``frames``, ``users``, ``seconds``
``checkpoint_failed``     ``trigger``, ``error``
``sender_connected``      ``sender_id``, ``host``, ``port``, ``resume_seq``
``sender_retry``          ``attempt``, ``attempts``, ``error``
``recovery_replayed``     ``frames``, ``users``, ``senders``
``corrupt_skipped``       ``backend``, ``generation``
========================  =====================================================
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import Any, Callable, Optional, TextIO

#: Root of the event-logging namespace; every emitter is a child logger.
EVENT_LOGGER_NAME = "repro"

_EVENT_ATTR = "repro_event"
_FIELDS_ATTR = "repro_fields"


class JsonEventFormatter(logging.Formatter):
    """Render each log record as one JSON object on one line.

    Records emitted through :func:`emit` carry a structured event name
    and field dict; plain records from other loggers degrade gracefully
    to ``{"event": "log", "message": ...}`` so one handler can carry the
    whole tree.
    """

    def format(self, record: logging.LogRecord) -> str:
        document = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": getattr(record, _EVENT_ATTR, "log"),
        }
        fields = getattr(record, _FIELDS_ATTR, None)
        if fields:
            document.update(fields)
        else:
            document["message"] = record.getMessage()
        if record.exc_info and record.exc_info[0] is not None:
            document.setdefault("error", str(record.exc_info[1]))
        return json.dumps(document, sort_keys=False, default=str)


def event_logger(component: str) -> logging.Logger:
    """The logger for one component (``repro.<component>``)."""
    return logging.getLogger("%s.%s" % (EVENT_LOGGER_NAME, component))


def emit(
    logger: logging.Logger,
    event: str,
    level: int = logging.INFO,
    **fields: Any,
) -> None:
    """Emit one structured event; a no-op when the level is disabled."""
    if not logger.isEnabledFor(level):
        return
    logger.log(
        level,
        event,
        extra={_EVENT_ATTR: event, _FIELDS_ATTR: fields},
    )


def enable_json_logs(
    stream: Optional[TextIO] = None,
    level: int = logging.INFO,
) -> logging.Handler:
    """Attach a JSON-lines handler to the ``repro`` event tree.

    Idempotent per stream: calling twice against the same stream does
    not stack duplicate handlers. Returns the active handler so callers
    (tests, CLI shutdown paths) can detach it with
    :func:`disable_json_logs` or flush it explicitly.
    """
    target = stream if stream is not None else sys.stderr
    root = logging.getLogger(EVENT_LOGGER_NAME)
    for handler in root.handlers:
        if getattr(handler, "stream", None) is target and isinstance(
            handler.formatter, JsonEventFormatter
        ):
            root.setLevel(min(root.level or level, level))
            return handler
    handler = logging.StreamHandler(target)
    handler.setFormatter(JsonEventFormatter())
    handler.setLevel(level)
    root.addHandler(handler)
    root.setLevel(level)
    return handler


def disable_json_logs(handler: logging.Handler) -> None:
    """Detach a handler previously returned by :func:`enable_json_logs`."""
    logging.getLogger(EVENT_LOGGER_NAME).removeHandler(handler)


#: The process-wide wall-clock source. ``time.time`` by default; tests
#: and replay tooling swap it with :func:`set_wall_clock`. This
#: *reference* (never a direct call) is the single place the library
#: touches the ambient wall clock — the ``wall-clock`` analysis rule
#: keeps every other module on :func:`timestamp` or an injected
#: registry clock.
_wall_clock: Callable[[], float] = time.time


def timestamp() -> float:
    """Wall-clock seconds since the epoch (separate from metric clocks).

    Reads the injectable module clock, so a test can pin event
    timestamps with :func:`set_wall_clock` without monkeypatching
    :mod:`time` globally.
    """
    return _wall_clock()


def set_wall_clock(
    clock: Optional[Callable[[], float]] = None,
) -> Callable[[], float]:
    """Install ``clock`` as the wall-clock source (``None`` restores
    ``time.time``). Returns the clock now in effect."""
    global _wall_clock
    _wall_clock = time.time if clock is None else clock
    return _wall_clock


__all__ = [
    "EVENT_LOGGER_NAME",
    "JsonEventFormatter",
    "disable_json_logs",
    "emit",
    "enable_json_logs",
    "event_logger",
    "set_wall_clock",
    "timestamp",
]
