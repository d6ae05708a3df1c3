"""repro.telemetry — dependency-free metrics and structured event logs.

The observability layer of the collection stack. Two halves:

* :mod:`repro.telemetry.metrics` — a :class:`MetricsRegistry` of named
  metric families (:class:`Counter`, :class:`Gauge`, :class:`Histogram`
  with fixed bucket boundaries, and :class:`TimeWeightedGauge`, which
  integrates value·seconds areas between updates so average queue depth
  and busy-fraction/utilization are *exact* over the run, not sampled).
  Label support, an injectable monotonic clock for deterministic tests,
  ``snapshot()`` to a plain dict, and JSON / aligned-text renderers.
* :mod:`repro.telemetry.events` — a structured JSON event log over
  stdlib :mod:`logging`: one JSON object per line (handshake
  accept/reject with reason, frame accept/reject, fold, checkpoint cut,
  sender retry/reconnect, recovery replay), zero cost when no handler
  is attached.

The transport gateway, session servers, storage backends, CLI and
benchmarks all instrument against this package; the gateway also serves
its registry snapshot live over the framed socket protocol (the
``STATS`` control request — see :func:`repro.transport.request_stats`).
"""

from .events import (
    EVENT_LOGGER_NAME,
    JsonEventFormatter,
    disable_json_logs,
    emit,
    enable_json_logs,
    event_logger,
    set_wall_clock,
    timestamp,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    TimeWeightedGauge,
    counted,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EVENT_LOGGER_NAME",
    "Gauge",
    "Histogram",
    "JsonEventFormatter",
    "MetricFamily",
    "MetricsRegistry",
    "TimeWeightedGauge",
    "counted",
    "disable_json_logs",
    "emit",
    "enable_json_logs",
    "event_logger",
    "set_wall_clock",
    "timestamp",
]
