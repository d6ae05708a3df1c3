"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class. Specific subclasses distinguish configuration
mistakes (bad privacy budgets, malformed domains) from runtime data problems
(values outside the declared domain, empty report sets).
:func:`positive_count` and :func:`positive_seconds` check constructor
arguments, raising the caller's typed error for anything else.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Type


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class PrivacyBudgetError(ReproError, ValueError):
    """Raised when a privacy budget is non-positive or otherwise invalid."""


class DomainError(ReproError, ValueError):
    """Raised when input data fall outside the declared value domain."""


class DimensionError(ReproError, ValueError):
    """Raised when dimension counts are inconsistent (e.g. ``m > d``)."""


class AggregationError(ReproError, RuntimeError):
    """Raised when aggregation is impossible (e.g. a dimension got no reports)."""


class CalibrationError(ReproError, ValueError):
    """Raised when a re-calibration is configured inconsistently."""


class ParameterError(ReproError, ValueError):
    """Raised when a component parameter is invalid.

    Covers constructor and function arguments that are not data and not
    a privacy budget: non-positive sensitivities, counts below one,
    malformed ``HOST:PORT`` endpoint strings, registry name collisions,
    confidence levels outside ``(0, 1)`` and the like. Subclasses
    :class:`ValueError` so callers validating inputs generically keep
    working.
    """


class DistributionError(ReproError, ValueError):
    """Raised when a population value distribution is malformed."""


class WireFormatError(ReproError, ValueError):
    """Raised when encoded bytes or a state document cannot be decoded.

    Covers truncation, corruption (checksum failure), unsupported format
    versions, and structurally malformed payloads — everything that means
    "these bytes are not a well-formed artefact", as opposed to a
    well-formed artefact produced under a different collection contract
    (that is :class:`ContractMismatchError`).
    """


class ContractMismatchError(ReproError, ValueError):
    """Raised when an artefact was produced under a different contract.

    Every encoded batch and saved server state embeds the fingerprint of
    the :class:`~repro.wire.CollectionContract` (schema + budget +
    per-attribute protocols) it was produced under; a server refuses to
    ingest, merge or restore anything whose fingerprint disagrees with
    its own contract instead of aggregating silent garbage.
    """


class StorageError(ReproError, RuntimeError):
    """Raised when a checkpoint store cannot serve a request.

    Covers unusable store locations (unknown URI schemes, unwritable
    directories), backend failures surfaced during a save, and requests a
    store cannot honour (loading from a store that was never written).
    Raw backend exceptions (``json``, ``OSError`` from the
    backend's own files) never escape a :class:`~repro.storage.
    CheckpointStore` — they arrive as this type or as
    :class:`CheckpointCorruptError`.
    """


class CheckpointCorruptError(StorageError, WireFormatError):
    """Raised when a stored checkpoint fails integrity validation.

    Garbage bytes, CRC failures, torn record tails and schema-drifted
    documents all land here. Subclasses :class:`WireFormatError` too, so
    callers that already guard state restoration with the wire-layer
    type keep working when the state travels through a checkpoint store.
    """


class TelemetryError(ReproError, ValueError):
    """Raised when the metrics registry is used inconsistently.

    Covers re-registering a metric name under a different type or label
    set, decrementing a counter, and label-value sets that disagree with
    the family's declared label names. Observability must never change
    the behaviour of the instrumented code, so these are raised only for
    structural misuse at registration/lookup time — recording values on
    a well-formed instrument never raises.
    """


class TransportError(ReproError, RuntimeError):
    """Raised when the socket transport itself fails.

    Covers broken handshakes, connections dropped mid-exchange, and
    protocol violations on the stream — everything about *moving* frames,
    as opposed to the frames being malformed (:class:`WireFormatError`)
    or produced under the wrong contract (:class:`ContractMismatchError`),
    both of which keep their own types when reported over a socket.
    """


def positive_count(name: str, value: Any, error: Type[ReproError]) -> int:
    """``value`` as an ``int >= 1``, or ``error`` — ``2.5`` is never ``2``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise error("%s must be an integer, got %r" % (name, value)) from None
    if count < 1:
        raise error("%s must be >= 1, got %r" % (name, value))
    return count


def positive_seconds(
    name: str, value: Any, error: Type[ReproError], zero: bool = False
) -> float:
    """``value`` as a finite ``float > 0`` (``>= 0`` with ``zero``), or
    ``error`` — ``nan`` is no period, and ``asyncio.sleep(nan)`` never ends."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        raise error("%s must be a number, got %r" % (name, value)) from None
    if not (math.isfinite(seconds) and (seconds > 0 or zero and seconds == 0)):
        raise error(
            "%s must be finite and %s 0, got %r"
            % (name, ">=" if zero else ">", value)
        )
    return seconds
