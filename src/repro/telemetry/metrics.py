"""Dependency-free metrics registry: counters, gauges, histograms.

The ops layer of the collection stack. A :class:`MetricsRegistry` owns a
set of named metric *families*; each family carries a declared type, a
help string and an ordered tuple of label names, and resolves concrete
label values to child instruments through :meth:`MetricFamily.labels`.
Everything is plain Python over an injectable monotonic clock, so tests
drive time deterministically and a snapshot is exact, not sampled.

Four instrument types:

* :class:`Counter` — monotonically non-decreasing float (frames
  accepted, bytes received, stall seconds).
* :class:`Gauge` — a value that goes both ways (connections open).
* :class:`Histogram` — fixed bucket boundaries declared up front;
  observations land in the first bucket whose upper bound is >= the
  value, with count/sum/min/max kept exactly (ack latency, fold time).
* :class:`TimeWeightedGauge` — the event-driven queue-theory instrument:
  every update integrates ``value * seconds`` since the previous update,
  so ``mean()`` over the run is the *exact* time-weighted average (mean
  queue depth), and a 0/1-valued gauge's mean is the exact busy
  fraction / utilization. No sampling interval, no aliasing.

``snapshot()`` renders the whole registry to a plain dict (JSON-able as
is); :meth:`MetricsRegistry.render_json` and
:meth:`MetricsRegistry.render_text` are the two serializations the CLI
and the ``STATS`` socket request expose.

Thread-safety: every mutation takes the registry's lock, so instruments
may be shared between the asyncio loop and helper threads (the CLI's
gateway thread, a benchmark harness) without torn updates.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import TelemetryError

#: Default histogram bucket upper bounds (seconds-flavoured: latencies
#: from sub-millisecond folds to multi-second checkpoints). ``inf`` is
#: always appended implicitly.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _label_key(label_names: Tuple[str, ...], values: Mapping[str, Any]) -> str:
    """Canonical string key for one child's label values (``a=1,b=x``)."""
    if values.keys() != set(label_names):
        raise TelemetryError(
            "metric labelled %s got label values for %s"
            % (list(label_names), sorted(values))
        )
    return ",".join(["%s=%s" % (name, values[name]) for name in label_names])


class _Instrument:
    """One concrete time series: a family bound to one label-value set."""

    def __init__(self, family: "MetricFamily") -> None:
        self._family = family
        self._lock = family.registry._lock

    @property
    def _clock(self) -> Callable[[], float]:
        return self._family.registry._clock


class Counter(_Instrument):
    """Monotonically non-decreasing accumulator (float increments allowed)."""

    kind = "counter"

    def __init__(self, family: "MetricFamily") -> None:
        super().__init__(family)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(
                "counters only go up; inc(%r) on %r"
                % (amount, self._family.name)
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot_value(self) -> float:
        return self._value


class Gauge(_Instrument):
    """A value that can move in both directions."""

    kind = "gauge"

    def __init__(self, family: "MetricFamily") -> None:
        super().__init__(family)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def snapshot_value(self) -> float:
        return self._value


class TimeWeightedGauge(_Instrument):
    """Gauge whose history integrates ``value * seconds`` between updates.

    The exact-areas instrument of event-driven stats collectors: on every
    :meth:`set`/:meth:`add` the current value's area since the previous
    update is accumulated, so :meth:`mean` is the exact time-weighted
    average over the observation window regardless of update cadence. A
    gauge that is 1 while a worker is busy and 0 while idle has
    ``mean() == busy fraction`` — utilization without a sampler.
    """

    kind = "time_weighted_gauge"

    def __init__(self, family: "MetricFamily") -> None:
        super().__init__(family)
        self._value = 0.0
        self._area = 0.0
        self._max = 0.0
        self._started_at = self._clock()
        self._updated_at = self._started_at

    def _integrate(self, now: float) -> None:
        if now > self._updated_at:
            self._area += self._value * (now - self._updated_at)
            self._updated_at = now

    def set(self, value: float) -> None:
        with self._lock:
            self._integrate(self._clock())
            self._value = float(value)
            if self._value > self._max:
                self._max = self._value

    def add(self, delta: float) -> None:
        with self._lock:
            self._integrate(self._clock())
            self._value += delta
            if self._value > self._max:
                self._max = self._value

    @property
    def value(self) -> float:
        return self._value

    def elapsed(self) -> float:
        """Seconds since this instrument started observing."""
        return self._clock() - self._started_at

    def area(self) -> float:
        """Exact ``value * seconds`` integral up to now."""
        with self._lock:
            self._integrate(self._clock())
            return self._area

    def mean(self) -> float:
        """Exact time-weighted average value over the whole window."""
        with self._lock:
            now = self._clock()
            self._integrate(now)
            window = now - self._started_at
            if window <= 0:
                return 0.0
            return self._area / window

    def snapshot_value(self) -> Dict[str, float]:
        with self._lock:
            now = self._clock()
            self._integrate(now)
            window = now - self._started_at
            return {
                "value": self._value,
                "max": self._max,
                "area": self._area,
                "elapsed_seconds": window,
                "time_weighted_mean": (
                    self._area / window if window > 0 else 0.0
                ),
            }


class Histogram(_Instrument):
    """Fixed-boundary histogram with exact count/sum/min/max.

    Buckets are cumulative-style upper bounds: an observation lands in
    the first bucket whose bound is ``>= value``; anything beyond the
    last declared bound lands in the implicit ``+Inf`` bucket.
    """

    kind = "histogram"

    def __init__(self, family: "MetricFamily") -> None:
        super().__init__(family)
        self._bounds = family.buckets
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            index = len(self._bounds)
            for i, bound in enumerate(self._bounds):
                if value <= bound:
                    index = i
                    break
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def time(self) -> "_HistogramTimer":
        """Context manager observing its block's duration in seconds."""
        return _HistogramTimer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def snapshot_value(self) -> Dict[str, Any]:
        with self._lock:
            buckets = {
                ("%g" % bound): self._counts[i]
                for i, bound in enumerate(self._bounds)
            }
            buckets["+Inf"] = self._counts[-1]
            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count if self._count else 0.0,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "buckets": buckets,
            }


class _HistogramTimer:
    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._started = self._histogram._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(self._histogram._clock() - self._started)


_INSTRUMENTS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "time_weighted_gauge": TimeWeightedGauge,
}


class MetricFamily:
    """One named metric: a type, a help string, label names, children.

    An *unlabelled* family is its own single child: ``inc``/``set``/
    ``observe``/… called on the family delegate to the child with the
    empty label set, so the common case needs no ``labels()`` call.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help: str,
        label_names: Tuple[str, ...],
        buckets: Tuple[float, ...],
    ) -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.buckets = buckets
        self._children: Dict[str, _Instrument] = {}

    def labels(self, **values: Any) -> Any:
        """The child instrument for one concrete label-value set."""
        key = _label_key(self.label_names, values)
        child = self._children.get(key)
        if child is None:
            with self.registry._lock:
                child = self._children.get(key)
                if child is None:
                    child = _INSTRUMENTS[self.kind](self)
                    self._children[key] = child
        return child

    def _default_child(self) -> Any:
        # An unlabelled family's single child is materialized at
        # registration under the empty key; a labelled one has none.
        child = self._children.get("")
        if child is None:
            raise TelemetryError(
                "metric %r is labelled by %s; call .labels(...) first"
                % (self.name, list(self.label_names))
            )
        return child

    # Delegates: the unlabelled family is usable directly.
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def add(self, delta: float) -> None:
        self._default_child().add(delta)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def time(self) -> _HistogramTimer:
        return self._default_child().time()

    @property
    def value(self) -> float:
        return self._default_child().value

    def mean(self) -> float:
        return self._default_child().mean()

    def area(self) -> float:
        return self._default_child().area()

    @property
    def count(self) -> int:
        return self._default_child().count

    def total(self) -> float:
        """Sum of every child's value: a counter's count across all labels."""
        with self.registry._lock:
            return sum(child.value for child in self._children.values())

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "values": {
                key: child.snapshot_value()
                for key, child in sorted(self._children.items())
            },
        }


def counted(attribute: str) -> property:
    """A read-only ``int`` view of the counter family at ``attribute``.

    Instrumented components keep each count in their registry only and
    expose it under its public name through this property.
    """
    return property(lambda self: int(getattr(self, attribute).total()))


class MetricsRegistry:
    """A process-local set of named metrics over one monotonic clock.

    Registration is idempotent: asking for an already-registered name
    with the same type and labels returns the existing family (so
    library layers can share one registry without coordinating
    creation); asking with a *different* type, labels or buckets raises
    :class:`~repro.exceptions.TelemetryError` — two meanings under one
    name is how dashboards lie.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}

    @property
    def clock(self) -> Callable[[], float]:
        """The monotonic clock every instrument in this registry reads.

        Instrumented code times its own operations with this same clock,
        so a test that injects a fake clock controls both the metric
        areas *and* the measured durations.
        """
        return self._clock

    # -------------------------------------------------------- registration

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Tuple[float, ...] = (),
    ) -> MetricFamily:
        if not name or not isinstance(name, str):
            raise TelemetryError("metric names are non-empty strings, got %r" % (name,))
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (
                    family.kind != kind
                    or family.label_names != label_names
                    or (kind == "histogram" and family.buckets != buckets)
                ):
                    raise TelemetryError(
                        "metric %r is already registered as a %s labelled %s; "
                        "cannot re-register as a %s labelled %s"
                        % (
                            name,
                            family.kind,
                            list(family.label_names),
                            kind,
                            list(label_names),
                        )
                    )
                return family
            family = MetricFamily(self, name, kind, help, label_names, buckets)
            if not label_names:
                # Materialize the single child now: an unlabelled metric
                # reads as an explicit zero in snapshots, not an absence
                # ("no stalls happened" is a fact worth rendering).
                family._children[""] = _INSTRUMENTS[kind](family)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a fixed-bucket histogram family."""
        bounds = tuple(sorted(map(float, buckets)))
        if not bounds:
            raise TelemetryError("a histogram needs at least one bucket bound")
        return self._register(name, "histogram", help, labels, bounds)

    def time_weighted_gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a time-weighted gauge family."""
        return self._register(name, "time_weighted_gauge", help, labels)

    # ------------------------------------------------------------ snapshot

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, or ``None``."""
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as a plain (JSON-able) dict."""
        with self._lock:
            return {
                name: family.snapshot()
                for name, family in sorted(self._families.items())
            }

    def render_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document (sorted keys, trailing newline)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True) + "\n"

    def render_text(self) -> str:
        """The snapshot as aligned human-readable text, one series per line."""
        rows: List[Tuple[str, str, str]] = []
        for name, family in sorted(self._families.items()):
            shot = family.snapshot()
            for key, value in shot["values"].items():
                series = name if not key else "%s{%s}" % (name, key)
                if family.kind == "histogram":
                    rendered = "count=%d sum=%.6g mean=%.6g" % (
                        value["count"],
                        value["sum"],
                        value["mean"],
                    )
                elif family.kind == "time_weighted_gauge":
                    rendered = "value=%.6g mean=%.6g max=%.6g" % (
                        value["value"],
                        value["time_weighted_mean"],
                        value["max"],
                    )
                else:
                    rendered = "%.6g" % value
                rows.append((series, family.kind, rendered))
        if not rows:
            return "(no metrics registered)\n"
        width_name = max(len(row[0]) for row in rows)
        width_kind = max(len(row[1]) for row in rows)
        return (
            "\n".join(
                "%-*s  %-*s  %s" % (width_name, series, width_kind, kind, rendered)
                for series, kind, rendered in rows
            )
            + "\n"
        )


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "TimeWeightedGauge",
    "counted",
]
