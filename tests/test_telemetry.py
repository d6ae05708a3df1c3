"""Tests for the telemetry subsystem (ISSUE 7).

Three layers under test:

* the dependency-free metrics registry — counters, gauges and
  fixed-bucket histograms, over an injectable monotonic clock so every
  assertion here is on *exact* numbers, not tolerances;
* the structured JSON event log over stdlib logging;
* the instrumented collection stack — a socket round's snapshot must be
  internally consistent (accepted == folded == acked) and the live
  ``STATS`` socket request must serve the same counters mid-round.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging

import numpy as np
import pytest

from repro.exceptions import (
    CheckpointCorruptError,
    TelemetryError,
    TransportError,
)
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Schema,
    ShardedServer,
)
from repro.storage import JsonFileStore, SegmentLogStore
from repro.telemetry import (
    JsonEventFormatter,
    MetricsRegistry,
    disable_json_logs,
    emit,
    enable_json_logs,
    event_logger,
)
from repro.transport import (
    AsyncReportSender,
    replay_frames,
    request_stats,
    serve_collection,
)

SCHEMA = Schema(
    [
        NumericAttribute("a"),
        NumericAttribute("b"),
        CategoricalAttribute("c", n_categories=5),
    ]
)
SPEC = {"c": "oue"}
EPSILON = 2.0


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _contract():
    return LDPClient(SCHEMA, EPSILON, protocols=SPEC).contract


def _frames(seed, users=120, batches=3):
    gen = np.random.default_rng(seed)
    records = np.column_stack(
        [
            gen.uniform(-1, 1, users),
            gen.uniform(-1, 1, users),
            gen.integers(0, 5, users),
        ]
    )
    client = LDPClient(SCHEMA, EPSILON, protocols=SPEC)
    return [
        client.report_encoded(chunk, gen)
        for chunk in np.array_split(records, batches)
    ]


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_counts_and_refuses_to_go_down(self):
        registry = MetricsRegistry()
        frames = registry.counter("frames_total", "Frames seen")
        frames.inc()
        frames.inc(2.5)
        assert frames.value == 3.5
        with pytest.raises(TelemetryError, match="only go up"):
            frames.inc(-1)
        assert frames.value == 3.5

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        depth = registry.gauge("depth")
        depth.set(4)
        depth.inc()
        depth.dec(2)
        assert depth.value == 3.0

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        second = registry.counter("x_total", "different help is fine")
        assert first is second

    def test_conflicting_registration_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(TelemetryError, match="already registered"):
            registry.gauge("x_total")
        registry.counter("labelled_total", labels=("shard",))
        with pytest.raises(TelemetryError, match="already registered"):
            registry.counter("labelled_total", labels=("reason",))
        registry.histogram("h_seconds", buckets=(0.1, 1.0))
        with pytest.raises(TelemetryError, match="already registered"):
            registry.histogram("h_seconds", buckets=(0.5, 1.0))

    def test_invalid_names_and_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError, match="non-empty"):
            registry.counter("")
        with pytest.raises(TelemetryError, match="bucket"):
            registry.histogram("h", buckets=())

    def test_labelled_children_are_distinct_series(self):
        registry = MetricsRegistry()
        family = registry.counter("rejects_total", labels=("reason",))
        family.labels(reason="wire").inc()
        family.labels(reason="wire").inc()
        family.labels(reason="sequence_gap").inc()
        shot = registry.snapshot()["rejects_total"]
        assert shot["values"] == {"reason=wire": 2.0, "reason=sequence_gap": 1.0}
        # A labelled family cannot be used as its own child...
        with pytest.raises(TelemetryError, match="labels"):
            family.inc()
        # ...and children demand exactly the declared label names.
        with pytest.raises(TelemetryError, match="label values"):
            family.labels(shard=0)

    def test_unlabelled_metrics_snapshot_as_explicit_zero(self):
        """A registered-but-never-touched metric renders as 0, not as
        an absent series — "no stalls" is a fact, not missing data."""
        registry = MetricsRegistry()
        registry.counter("stalls_total")
        assert registry.snapshot()["stalls_total"]["values"] == {"": 0.0}

    def test_lookup(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total")
        assert "x_total" in registry
        assert "y_total" not in registry
        assert registry.get("x_total") is family
        assert registry.get("y_total") is None


class TestHistogram:
    def test_observation_lands_in_first_covering_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 2.0, 99.0):
            hist.observe(value)
        shot = registry.snapshot()["lat_seconds"]["values"][""]
        assert shot["buckets"] == {"0.1": 2, "1": 1, "10": 1, "+Inf": 1}
        assert shot["count"] == 5
        assert shot["sum"] == pytest.approx(101.65)
        assert shot["min"] == 0.05
        assert shot["max"] == 99.0
        assert shot["mean"] == pytest.approx(101.65 / 5)

    def test_bucket_bounds_are_sorted_on_registration(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(5.0, 0.5))
        hist.observe(0.4)
        shot = registry.snapshot()["h_seconds"]["values"][""]
        assert shot["buckets"] == {"0.5": 1, "5": 0, "+Inf": 0}

    def test_timer_context_manager_measures_with_the_registry_clock(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        hist = registry.histogram("op_seconds", buckets=(1.0, 10.0))
        with hist.time():
            clock.advance(2.5)
        shot = registry.snapshot()["op_seconds"]["values"][""]
        assert shot["count"] == 1
        assert shot["sum"] == 2.5
        assert shot["buckets"] == {"1": 0, "10": 1, "+Inf": 0}

    def test_empty_histogram_snapshot_is_all_zero(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", buckets=(1.0,))
        shot = registry.snapshot()["h_seconds"]["values"][""]
        assert shot["count"] == 0
        assert shot["mean"] == 0.0
        assert shot["min"] == 0.0
        assert shot["max"] == 0.0


class TestRenderers:
    def _registry(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.counter("frames_total", "Frames").inc(7)
        rejected = registry.counter("rejects_total", labels=("reason",))
        rejected.labels(reason="wire").inc()
        hist = registry.histogram("fold_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.15)
        registry.gauge("connections_open").set(4)
        return registry

    def test_render_json_round_trips(self):
        registry = self._registry()
        document = json.loads(registry.render_json())
        assert document == registry.snapshot()
        assert document["frames_total"]["type"] == "counter"
        assert document["rejects_total"]["labels"] == ["reason"]

    def test_render_text_one_aligned_line_per_series(self):
        text = self._registry().render_text()
        lines = text.splitlines()
        by_name = {line.split()[0]: line for line in lines}
        assert by_name["frames_total"].split() == ["frames_total", "counter", "7"]
        assert "rejects_total{reason=wire}" in by_name
        assert "count=2" in by_name["fold_seconds"]
        assert "mean=0.1" in by_name["fold_seconds"]
        assert by_name["connections_open"].split() == [
            "connections_open", "gauge", "4"
        ]
        # aligned columns: every kind starts at the same offset
        offsets = {line.index(line.split()[1]) for line in lines}
        assert len(offsets) == 1

    def test_render_text_empty_registry(self):
        assert "no metrics" in MetricsRegistry().render_text()


# ---------------------------------------------------------------------------
# Structured event log
# ---------------------------------------------------------------------------


class TestEvents:
    def test_emit_renders_one_json_object_per_line(self):
        stream = io.StringIO()
        handler = enable_json_logs(stream)
        try:
            emit(event_logger("test_gw"), "frame_accepted", seq=3, users=40)
            emit(
                event_logger("test_gw"),
                "fold_failed",
                level=logging.ERROR,
                error="boom",
            )
        finally:
            disable_json_logs(handler)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["event"] == "frame_accepted"
        assert first["logger"] == "repro.test_gw"
        assert first["level"] == "info"
        assert first["seq"] == 3 and first["users"] == 40
        assert isinstance(first["ts"], float)
        assert second["level"] == "error"
        assert second["error"] == "boom"

    def test_enable_is_idempotent_per_stream(self):
        stream = io.StringIO()
        handler = enable_json_logs(stream)
        try:
            again = enable_json_logs(stream)
            assert again is handler
            emit(event_logger("test_idem"), "ping")
        finally:
            disable_json_logs(handler)
        assert len(stream.getvalue().strip().splitlines()) == 1

    def test_emit_without_handler_is_a_cheap_noop(self):
        # DEBUG is disabled by default on the repro tree: emit must not
        # build a record at all, let alone raise.
        emit(event_logger("test_silent"), "fold", level=logging.DEBUG, shard=0)

    def test_plain_records_degrade_gracefully(self):
        formatter = JsonEventFormatter()
        record = logging.LogRecord(
            "other", logging.WARNING, __file__, 1, "plain %s", ("msg",), None
        )
        document = json.loads(formatter.format(record))
        assert document["event"] == "log"
        assert document["message"] == "plain msg"

    def test_exception_info_lands_in_error_field(self):
        formatter = JsonEventFormatter()
        try:
            raise ValueError("kaput")
        except ValueError:
            import sys

            record = logging.LogRecord(
                "repro.x", logging.ERROR, __file__, 1, "evt", (), sys.exc_info()
            )
        assert json.loads(formatter.format(record))["error"] == "kaput"


# ---------------------------------------------------------------------------
# Instrumented collection stack
# ---------------------------------------------------------------------------


class TestGatewayTelemetry:
    def test_round_snapshot_is_internally_consistent(self):
        """Acceptance: accepted == folded == acked, and the registry's
        latency/fold instruments agree with the plain counters."""

        frame_lists = [_frames(1), _frames(2)]

        async def scenario():
            registry = MetricsRegistry()
            server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
            gateway = await serve_collection(
                server, "127.0.0.1", 0, metrics=registry
            )
            contract = _contract()

            async def one_client(frames):
                sender = await AsyncReportSender.connect(
                    "127.0.0.1", gateway.port, contract
                )
                async with sender:
                    for frame in frames:
                        await sender.send_encoded(frame)
                    await sender.heartbeat()

            await asyncio.gather(*(one_client(f) for f in frame_lists))
            await gateway.stop()
            return gateway, registry

        gateway, registry = asyncio.run(scenario())
        snapshot = gateway.stats_snapshot()
        counters = snapshot["counters"]
        total_frames = sum(len(f) for f in frame_lists) + 2  # + heartbeats
        assert counters["frames_accepted"] == total_frames
        assert counters["rejections_total"] == 0
        assert counters["users_accepted"] == counters["users_folded"] == 240
        assert counters["heartbeats"] == 2
        families = snapshot["metrics"]
        assert set(families) == set(registry.snapshot())
        # every accepted frame was folded and its latency observed
        assert (
            families["gateway_fold_seconds"]["values"][""]["count"]
            == total_frames
        )
        assert (
            families["gateway_ack_latency_seconds"]["values"][""]["count"]
            == total_frames
        )
        assert (
            families["gateway_frames_accepted_total"]["values"][""]
            == total_frames
        )
        # the instrumented server's fold counters agree too
        assert families["server_users_folded_total"]["values"][""] == 240.0
        assert families["server_batches_folded_total"]["values"][""] == total_frames
        # frames fold on their connection: no queues, no stalls to report
        assert not {
            "gateway_queue_depth",
            "gateway_backpressure_stalls_total",
            "gateway_backpressure_stall_seconds_total",
        } & set(families)
        # both shards folded frames
        assert all(shard.users > 0 for shard in gateway.server.shards)

    def test_stats_request_serves_the_same_counters_mid_round(self):
        """Acceptance: STATS over the socket == stats_snapshot(), while
        a round is still in flight and the sender stays connected."""

        frames = _frames(3)

        async def scenario():
            registry = MetricsRegistry()
            server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
            gateway = await serve_collection(
                server, "127.0.0.1", 0, metrics=registry
            )
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            async with sender:
                await sender.send_encoded(frames[0])
                live = await request_stats("127.0.0.1", gateway.port)
                # the open reporting connection survived the stats poll
                await sender.send_encoded(frames[1])
            mid_round = dict(live["counters"])
            await gateway.stop()
            return gateway, mid_round

        gateway, mid_round = asyncio.run(scenario())
        assert mid_round["frames_accepted"] == 1
        assert mid_round["users_accepted"] == mid_round["users_folded"] == 40
        assert mid_round["rejections_total"] == 0
        # stats polls are counted but are not handshake rejections
        final = gateway.stats_snapshot()
        assert final["counters"]["handshakes_rejected"] == 0
        assert final["counters"]["frames_accepted"] == 2
        assert (
            final["metrics"]["gateway_stats_requests_total"]["values"][""]
            == 1.0
        )

    def test_stats_request_times_out_against_a_silent_peer(self):
        """Satellite (ISSUE 8): a peer that accepts the connection but
        never answers cannot hang the admin client — request_stats gives
        up after its timeout with a typed TransportError."""

        async def scenario():
            # A server that reads nothing and writes nothing: the
            # connection opens, then silence.
            stalls = asyncio.Event()

            async def black_hole(reader, writer):
                stalls.set()
                await asyncio.sleep(3600)

            server = await asyncio.start_server(
                black_hole, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(TransportError, match="did not answer"):
                    await request_stats("127.0.0.1", port, timeout=0.2)
                assert stalls.is_set()  # it really connected, then hung
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_uninstrumented_gateway_still_snapshots(self):
        """No metrics= argument: the gateway builds its own registry."""

        async def scenario():
            server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
            gateway = await serve_collection(server, "127.0.0.1", 0)
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            async with sender:
                await sender.send_encoded(_frames(4, users=40, batches=1)[0])
            await gateway.stop()
            return gateway.stats_snapshot()

        snapshot = asyncio.run(scenario())
        assert snapshot["counters"]["frames_accepted"] == 1
        assert snapshot["metrics"]["gateway_frames_accepted_total"][
            "values"
        ][""] == 1.0

    def test_rejections_are_labelled_by_reason(self):
        async def scenario():
            registry = MetricsRegistry()
            server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
            gateway = await serve_collection(
                server, "127.0.0.1", 0, metrics=registry
            )
            rogue = LDPClient(SCHEMA, epsilon=9.0, protocols=SPEC)
            with pytest.raises(Exception):
                await AsyncReportSender.connect(
                    "127.0.0.1", gateway.port, rogue
                )
            await gateway.stop()
            return gateway.stats_snapshot()

        snapshot = asyncio.run(scenario())
        assert snapshot["counters"]["rejections_total"] == 1
        rejected = snapshot["metrics"]["gateway_handshakes_rejected_total"]
        assert rejected["values"]["reason=contract_mismatch"] == 1.0

    def test_sender_metrics_mirror_delivery(self):
        frames = _frames(5, users=40, batches=2)

        async def scenario():
            server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
            gateway = await serve_collection(server, "127.0.0.1", 0)
            registry = MetricsRegistry()
            await replay_frames(
                "127.0.0.1",
                gateway.port,
                _contract(),
                frames,
                b"\x31" * 16,
                metrics=registry,
            )
            await gateway.stop()
            return registry.snapshot()

        shot = asyncio.run(scenario())
        assert shot["sender_connects_total"]["values"][""] == 1.0
        assert shot["sender_frames_sent_total"]["values"][""] == 2.0
        assert shot["sender_frames_skipped_total"]["values"][""] == 0.0
        assert shot["sender_bytes_sent_total"]["values"][""] == sum(
            len(f) for f in frames
        )


class TestStorageTelemetry:
    def _document(self):
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        return server.state_dict()

    @pytest.mark.parametrize("backend", ["file", "segments"])
    def test_save_load_recover_are_observed(self, backend, tmp_path):
        store = {
            "file": lambda: JsonFileStore(tmp_path / "t.json"),
            "segments": lambda: SegmentLogStore(tmp_path / "t-log"),
        }[backend]()
        registry = MetricsRegistry()
        store.attach_telemetry(registry)
        document = self._document()
        with store:
            store.save(document)
            assert store.load() == document
            assert store.recover() == document
        shot = registry.snapshot()
        label = "backend=%s" % store.scheme
        assert shot["storage_save_seconds"]["values"][label]["count"] == 1
        assert shot["storage_load_seconds"]["values"][label]["count"] == 1
        assert shot["storage_recover_seconds"]["values"][label]["count"] == 1
        assert shot["storage_bytes_written_total"]["values"][label] > 0

    def test_segments_corrupt_tail_skip_is_counted(self, tmp_path):
        registry = MetricsRegistry()
        with SegmentLogStore(tmp_path / "t-log") as store:
            store.attach_telemetry(registry)
            store.save({"generation": "one"})
            store.save({"generation": "two"})
            newest = store.segments()[-1]
            blob = bytearray(newest.read_bytes())
            blob[-3] ^= 0xFF  # flip a payload byte: CRC now fails
            newest.write_bytes(bytes(blob))
            assert store.recover() == {"generation": "one"}
        shot = registry.snapshot()
        skips = shot["storage_corrupt_records_skipped_total"]["values"]
        assert skips["backend=segments"] == 1.0

    def test_uninstrumented_store_works_untouched(self, tmp_path):
        """A store nobody instruments owns a registry and still works."""
        with JsonFileStore(tmp_path / "t.json") as store:
            assert isinstance(store.telemetry, MetricsRegistry)
            store.save(self._document())
            assert store.recover() is not None
        shot = store.telemetry.snapshot()
        assert shot["storage_save_seconds"]["values"]["backend=file"]["count"] == 1

    def test_corruption_beyond_recovery_still_raises(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{ not json")
        registry = MetricsRegistry()
        with JsonFileStore(path) as store:
            store.attach_telemetry(registry)
            with pytest.raises(CheckpointCorruptError):
                store.load()
