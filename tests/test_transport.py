"""Tests for the asyncio socket transport (gateway + sender).

The load-bearing invariant (ISSUE 5 acceptance): a localhost socket
round — multiple concurrent clients, sharded folds, acks that wait on
the fold — produces estimates bit-identical to one-shot in-process
ingestion of the same report multiset. Plus the boundary hardening:
contract mismatches are rejected at the handshake (before any payload
bytes flow), malformed frames are answered with typed errors and never
touch aggregation state, and zero-user heartbeat frames are valid
no-ops end to end.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.exceptions import (
    AggregationError,
    ContractMismatchError,
    DimensionError,
    StorageError,
    TransportError,
    WireFormatError,
)
from repro.federation import RootAggregator
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    ReportBatch,
    Schema,
    ShardedServer,
)
from repro.transport import (
    STATUS_OK,
    TRANSPORT_MAGIC,
    TRANSPORT_VERSION,
    AsyncReportSender,
    CollectionGateway,
    serve_collection,
)
from repro.storage import JsonFileStore
from repro.transport.framing import HELLO, HELLO_REPLY, SENDER_ID_SIZE, read_status

SCHEMA = Schema(
    [
        NumericAttribute("a"),
        NumericAttribute("b"),
        CategoricalAttribute("c", n_categories=5),
    ]
)
SPEC = {"c": "oue"}
EPSILON = 2.0


def _contract():
    return LDPClient(SCHEMA, EPSILON, protocols=SPEC).contract


def _frames(seed, users=240, batches=3):
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


def _reference(frame_lists):
    server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
    for frames in frame_lists:
        for frame in frames:
            server.ingest_encoded(frame)
    return server.estimate()


def _assert_estimates_equal(a, b):
    assert a.users == b.users
    for x, y in zip(a.attributes, b.attributes):
        assert x.reports == y.reports, x.name
        assert np.array_equal(x.raw, y.raw), x.name


async def _gateway(shards=2, **kwargs):
    server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=shards)
    return await serve_collection(server, "127.0.0.1", 0, **kwargs)


def _break_folds(shard):
    """Make ``shard``'s folds raise; returns the original to restore."""
    original = shard._fold_validated

    def broken_fold(users, canonical):
        raise RuntimeError("allocation failed mid-fold")

    shard._fold_validated = broken_fold
    return original


class TestHandshake:
    def test_contract_mismatch_rejected_before_any_payload(self):
        """Acceptance: a misconfigured sender never ships a report."""

        async def scenario():
            gateway = await _gateway()
            rogue = LDPClient(SCHEMA, epsilon=9.0, protocols=SPEC)
            with pytest.raises(ContractMismatchError, match="contract"):
                await AsyncReportSender.connect(
                    "127.0.0.1", gateway.port, rogue
                )
            stats = (
                gateway.handshakes_rejected,
                gateway.frames_accepted,
                gateway.users_accepted,
            )
            await gateway.stop()
            return stats

        rejected, accepted, users = asyncio.run(scenario())
        assert rejected == 1
        assert accepted == 0
        assert users == 0

    def test_client_requires_a_contract(self):
        async def scenario():
            with pytest.raises(TransportError, match="CollectionContract"):
                await AsyncReportSender.connect("127.0.0.1", 1, "nope")

        asyncio.run(scenario())

    def test_bad_magic_answered_and_closed(self):
        async def scenario():
            gateway = await _gateway()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            writer.write(b"X" * HELLO.size)
            await writer.drain()
            magic, version, digest, resume = HELLO_REPLY.unpack(
                await reader.readexactly(HELLO_REPLY.size)
            )
            status, message = await read_status(reader)
            writer.close()
            await gateway.stop()
            return magic, version, status, message

        magic, version, status, message = asyncio.run(scenario())
        assert magic == TRANSPORT_MAGIC
        assert version == TRANSPORT_VERSION
        assert status != STATUS_OK
        assert "magic" in message

    def test_version_mismatch_rejected(self):
        async def scenario():
            gateway = await _gateway()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            writer.write(
                HELLO.pack(
                    TRANSPORT_MAGIC,
                    99,
                    _contract().digest,
                    b"\x01" * SENDER_ID_SIZE,
                )
            )
            await writer.drain()
            await reader.readexactly(HELLO_REPLY.size)
            status, message = await read_status(reader)
            writer.close()
            rejected = gateway.handshakes_rejected
            await gateway.stop()
            return status, message, rejected

        status, message, rejected = asyncio.run(scenario())
        assert status != STATUS_OK
        assert "version" in message
        assert rejected == 1

    def test_probe_connection_is_harmless(self):
        """A connect-and-close scan leaves the gateway serving."""

        async def scenario():
            gateway = await _gateway()
            _, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.close()
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            async with sender:
                await sender.send_encoded(_frames(0, users=30, batches=1)[0])
            await gateway.stop()
            return gateway.frames_accepted

        assert asyncio.run(scenario()) == 1


class TestSocketRound:
    def test_concurrent_round_is_bit_identical_to_in_process(self):
        """Acceptance: sockets + shards + backpressure change nothing,
        and an ack means the frame is folded."""

        async def scenario():
            # Four concurrent senders over 3 shards: every sender waits
            # on each frame's fold before its next frame goes out.
            gateway = await _gateway(shards=3)
            contract = _contract()
            # Runs after each frame's counters moved, before its ack:
            # the server must already hold every accepted user.
            seen = []
            gateway.add_frame_listener(
                lambda: seen.append((gateway.users, gateway.users_accepted))
            )

            async def one_client(seed):
                sender = await AsyncReportSender.connect(
                    "127.0.0.1", gateway.port, contract
                )
                async with sender:
                    for frame in _frames(seed):
                        await sender.send_encoded(frame)
                    await sender.heartbeat()
                return sender.frames_sent

            sent = await asyncio.gather(*(one_client(s) for s in (1, 2, 3, 4)))
            await gateway.wait_for_users(4 * 240)
            acked = gateway.estimate()  # no drain: acked is folded
            await gateway.stop()
            return gateway, sent, acked, seen

        gateway, sent, acked, seen = asyncio.run(scenario())
        assert sent == [4, 4, 4, 4]  # 3 frames + 1 heartbeat each
        assert gateway.heartbeats == 4
        assert len(seen) == 16
        assert all(users == accepted for users, accepted in seen), seen
        reference = _reference([_frames(s) for s in (1, 2, 3, 4)])
        _assert_estimates_equal(acked, reference)
        _assert_estimates_equal(gateway.estimate(), reference)
        # every shard actually folded frames
        assert all(shard.users > 0 for shard in gateway.server.shards)

    def test_zero_user_heartbeats_are_noops(self):
        """Satellite: empty frames flush through without moving estimates."""

        async def scenario(heartbeats):
            gateway = await _gateway()
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            async with sender:
                for index, frame in enumerate(_frames(7)):
                    if heartbeats:
                        await sender.heartbeat()
                    await sender.send_encoded(frame)
                if heartbeats:
                    await sender.heartbeat()
            await gateway.stop()
            return gateway

        quiet = asyncio.run(scenario(False))
        chatty = asyncio.run(scenario(True))
        assert chatty.heartbeats == 4
        assert chatty.users_accepted == quiet.users_accepted
        _assert_estimates_equal(quiet.estimate(), chatty.estimate())

    def test_heartbeat_alone_leaves_gateway_empty(self):
        async def scenario():
            gateway = await _gateway()
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            async with sender:
                await sender.heartbeat()
            await gateway.stop()
            return gateway

        gateway = asyncio.run(scenario())
        assert gateway.frames_accepted == 1
        assert gateway.users == 0
        with pytest.raises(AggregationError):
            gateway.estimate()

    def test_mid_round_drain_sees_consistent_prefix(self):
        """An acked frame is already folded: a mid-round estimate covers
        exactly the acknowledged prefix."""

        async def scenario():
            gateway = await _gateway()
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            async with sender:
                first, second, third = _frames(11)
                await sender.send_encoded(first)
                mid_users = gateway.users
                mid = gateway.estimate()
                await sender.send_encoded(second)
                await sender.send_encoded(third)
            await gateway.stop()
            return mid_users, mid, gateway

        mid_users, mid, gateway = asyncio.run(scenario())
        assert mid_users == 80
        assert mid.users == 80
        _assert_estimates_equal(gateway.estimate(), _reference([_frames(11)]))


class TestFrameRejection:
    def test_corrupted_frame_raises_and_leaves_state_untouched(self):
        async def scenario():
            gateway = await _gateway()
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            frame = bytearray(_frames(5, users=40, batches=1)[0])
            frame[len(frame) // 2] ^= 0x20
            with pytest.raises(WireFormatError):
                await sender.send_encoded(bytes(frame))
            # the gateway closed that connection; a fresh one still works
            replacement = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            async with replacement:
                await replacement.send_encoded(_frames(5, users=40, batches=1)[0])
            await gateway.stop()
            return gateway

        gateway = asyncio.run(scenario())
        assert gateway.frames_rejected == 1
        assert gateway.frames_accepted == 1
        _assert_estimates_equal(
            gateway.estimate(), _reference([_frames(5, users=40, batches=1)])
        )

    def test_oversized_frame_rejected_without_allocation(self):
        async def scenario():
            gateway = await _gateway(max_frame_bytes=1024)
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            with pytest.raises(WireFormatError, match="limit"):
                await sender.send_encoded(b"x" * 2048)
            users = gateway.users_accepted
            await gateway.stop()
            return users

        assert asyncio.run(scenario()) == 0

    def test_wrong_contract_frame_after_valid_handshake(self):
        """A forged frame under another contract is caught per-frame too."""

        async def scenario():
            gateway = await _gateway()
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            stranger = LDPClient(SCHEMA, epsilon=9.0, protocols=SPEC)
            forged = stranger.report_encoded(
                np.column_stack(
                    [
                        np.zeros(10),
                        np.zeros(10),
                        np.zeros(10, dtype=np.int64),
                    ]
                ),
                np.random.default_rng(0),
            )
            with pytest.raises(ContractMismatchError):
                await sender.send_encoded(forged)
            users = gateway.users_accepted
            await gateway.stop()
            return users

        assert asyncio.run(scenario()) == 0

    def test_send_after_close_raises(self):
        async def scenario():
            gateway = await _gateway()
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            await sender.close()
            with pytest.raises(TransportError, match="closed"):
                await sender.send_encoded(b"anything")
            await gateway.stop()

        asyncio.run(scenario())


class TestGatewayLifecycle:
    def test_frame_limit_and_triggers_validated(self, tmp_path):
        server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
        # Same bug class as ShardedServer(shards=2.5): no silent int()
        with pytest.raises(DimensionError, match="integer"):
            CollectionGateway(server, max_frame_bytes=1e6)
        # The frame limit is validated once for every stream server: the
        # root refuses exactly what the gateway refuses.
        for limit in (0, -5, 2.5):
            with pytest.raises(DimensionError):
                CollectionGateway(server, max_frame_bytes=limit)
            with pytest.raises(DimensionError):
                RootAggregator(
                    SCHEMA, EPSILON, protocols=SPEC, max_frame_bytes=limit
                )
        store = JsonFileStore(tmp_path / "round.json")
        with pytest.raises(StorageError, match="integer"):
            CollectionGateway(server, store=store, checkpoint_every_frames=2.5)

    def test_port_requires_serving(self):
        server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
        gateway = CollectionGateway(server)
        with pytest.raises(TransportError):
            gateway.port

    def test_double_start_rejected(self):
        async def scenario():
            gateway = await _gateway()
            with pytest.raises(TransportError, match="already"):
                await gateway.start()
            await gateway.stop()

        asyncio.run(scenario())

    def test_context_manager_aborts_open_connections(self):
        async def scenario():
            server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
            async with await serve_collection(server, "127.0.0.1", 0) as gateway:
                sender = await AsyncReportSender.connect(
                    "127.0.0.1", gateway.port, _contract()
                )
                await sender.send_encoded(_frames(3, users=20, batches=1)[0])
                # sender left open on purpose: __aexit__ must not hang
            return gateway.frames_accepted

        assert asyncio.run(scenario()) == 1

    def test_connection_arriving_during_stop_is_refused_not_acked(self):
        """Regression: a handler whose first step lands after stop()
        began is in neither _connections nor _writers — it must refuse
        (close before handshake/ack) instead of pumping frames no
        consumer will ever fold."""

        async def scenario():
            gateway = await _gateway()
            port = gateway.port
            # Simulate the race deterministically: stop() has begun (the
            # flag is set) but the listener is still accepting.
            gateway._stopping = True
            with pytest.raises(TransportError, match="handshake"):
                await AsyncReportSender.connect("127.0.0.1", port, _contract())
            gateway._stopping = False
            stats = (gateway.frames_accepted, gateway.users_accepted)
            await gateway.stop()
            return stats

        assert asyncio.run(scenario()) == (0, 0)

    def test_dead_shard_consumer_poisons_gateway_not_estimate(self):
        """Regression: a fold that raises used to kill its consumer
        silently — later frames were acked but never folded, and
        estimate() served a partial aggregate. Now the failing frame
        itself is refused, and the gateway is poisoned."""

        async def scenario():
            gateway = await _gateway(shards=1)
            shard = gateway.server.shards[0]
            frames = _frames(11, users=40, batches=2)
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            async with sender:
                original = _break_folds(shard)
                try:
                    # refused, not acked: no sender hears OK for it
                    with pytest.raises(TransportError, match="fold failed"):
                        await sender.send_encoded(frames[0])
                finally:
                    shard._fold_validated = original
            # a later frame, on a fresh connection, is refused too
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            async with sender:
                with pytest.raises(TransportError, match="aggregation failed"):
                    await sender.send_encoded(frames[1])
            with pytest.raises(TransportError, match="incomplete"):
                gateway.estimate()
            with pytest.raises(TransportError, match="incomplete"):
                gateway.merged()
            await gateway.stop()  # must not hang
            return gateway

        gateway = asyncio.run(scenario())
        assert gateway.frames_accepted == 0
        assert gateway.frames_rejected == 2

    def test_wait_for_users_raises_when_poisoned_mid_wait(self):
        """Satellite: a poisoned gateway used to leave wait_for_users
        sleeping forever — the expected user count can never arrive once
        every frame is refused, so the waiter must be woken and told."""

        async def scenario():
            gateway = await _gateway(shards=1)
            shard = gateway.server.shards[0]
            waiter = asyncio.ensure_future(gateway.wait_for_users(10_000))
            await asyncio.sleep(0)  # the waiter is parked on the event
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            async with sender:
                original = _break_folds(shard)
                try:
                    with pytest.raises(TransportError, match="fold failed"):
                        await sender.send_encoded(
                            _frames(12, users=40, batches=1)[0]
                        )
                    # must raise promptly, not time out
                    with pytest.raises(TransportError, match="incomplete"):
                        await asyncio.wait_for(waiter, timeout=5)
                finally:
                    shard._fold_validated = original
            await gateway.stop()

        asyncio.run(scenario())

    def test_wait_for_users_raises_when_already_poisoned(self):
        """Entering the wait after the fold died must fail fast too."""

        async def scenario():
            gateway = await _gateway(shards=1)
            shard = gateway.server.shards[0]
            sender = await AsyncReportSender.connect(
                "127.0.0.1", gateway.port, _contract()
            )
            async with sender:
                original = _break_folds(shard)
                try:
                    with pytest.raises(TransportError, match="fold failed"):
                        await sender.send_encoded(
                            _frames(12, users=40, batches=1)[0]
                        )
                finally:
                    shard._fold_validated = original
            with pytest.raises(TransportError, match="incomplete"):
                await asyncio.wait_for(
                    gateway.wait_for_users(10_000), timeout=5
                )
            await gateway.stop()

        asyncio.run(scenario())

    def test_failed_bind_leaks_no_task(self, tmp_path):
        """Regression: a busy port must not leave a started task behind
        (shard consumers once, the checkpoint timer now)."""

        async def scenario():
            gateway = await _gateway()
            other = CollectionGateway(
                ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2),
                store=JsonFileStore(tmp_path / "round.json"),
                checkpoint_every_seconds=60.0,
            )
            with pytest.raises(OSError):
                await other.start("127.0.0.1", gateway.port)
            leaked = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            timer = other._timer
            await other.start("127.0.0.1", 0)  # retry works, no orphans
            await other.stop()
            await gateway.stop()
            return leaked, timer

        assert asyncio.run(scenario()) == ([], None)


class TestEmptyBatchWirePath:
    """Satellite: zero-user frames round-trip the in-process wire path."""

    def test_empty_batch_round_trips_through_codec_and_ingest(self):
        from repro.wire import decode_batch, encode_batch

        contract = _contract()
        empty = ReportBatch(users=0, payloads={}, counts={}, protocols={})
        frame = encode_batch(empty, contract)
        decoded = decode_batch(frame, contract=contract)
        assert decoded.users == 0
        assert dict(decoded.payloads) == {}
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        server.ingest_encoded(frame)
        assert server.users == 0
        with pytest.raises(AggregationError):
            server.estimate()


class TestCliSocketRound:
    """The socket modes of the collection CLI, in one event loop."""

    def test_parse_endpoint(self):
        from repro.experiments.socket_round import parse_endpoint

        assert parse_endpoint("127.0.0.1:80") == ("127.0.0.1", 80)
        assert parse_endpoint("::1:8080") == ("::1", 8080)
        for bad in ("no-port", "host:", "host:abc", ":8080"):
            with pytest.raises(ValueError, match="HOST:PORT"):
                parse_endpoint(bad)

    def test_parse_endpoint_bracketed_ipv6(self):
        """Satellite (ISSUE 8): ``[::1]:9000`` splits on the bracket."""
        from repro.experiments.socket_round import parse_endpoint

        assert parse_endpoint("[::1]:9000") == ("::1", 9000)
        assert parse_endpoint("[fe80::2]:0") == ("fe80::2", 0)
        # A bracketed host keeps its inner colons; an unbracketed IPv6
        # still splits on the *last* colon (backwards compatible).
        assert parse_endpoint("[::1:8080]:9") == ("::1:8080", 9)
        for bad in (":::", "[::1]", "[::1]:", "[::1]:abc", "[]:80", "[::1"):
            with pytest.raises(ValueError, match="PORT"):
                parse_endpoint(bad)

    def test_round_frames_are_deterministic(self):
        from repro.experiments.socket_round import round_frames

        assert round_frames(3, 64, 2) == round_frames(3, 64, 2)

    def test_gateway_round_matches_oneshot_reference(self):
        from repro.experiments.socket_round import (
            format_round_estimate,
            round_contract,
            round_frames,
            round_schema,
            run_oneshot_reference,
        )
        from repro.experiments.socket_round import (
            ROUND_EPSILON,
            ROUND_PROTOCOLS,
        )

        users, batches = 400, 2

        async def scenario():
            server = ShardedServer(
                round_schema(),
                ROUND_EPSILON,
                protocols=ROUND_PROTOCOLS,
                shards=2,
            )
            gateway = await serve_collection(server, "127.0.0.1", 0)
            contract = round_contract()

            async def one_client(seed):
                sender = await AsyncReportSender.connect(
                    "127.0.0.1", gateway.port, contract
                )
                async with sender:
                    for frame in round_frames(seed, users, batches):
                        await sender.send_encoded(frame)
                    await sender.heartbeat()

            await asyncio.gather(one_client(7), one_client(8))
            await gateway.wait_for_users(2 * users)
            await gateway.stop()
            return format_round_estimate(gateway.estimate())

        over_sockets = asyncio.run(scenario())
        in_process = run_oneshot_reference([7, 8], users=users, batches=batches)
        assert over_sockets == in_process

    def test_port_file_is_written(self, tmp_path):
        import threading

        from repro.experiments.socket_round import (
            run_collection_gateway,
            run_collection_sender,
        )

        port_file = tmp_path / "port.txt"
        result = {}

        def serve():
            result["estimate"] = run_collection_gateway(
                "127.0.0.1:0",
                shards=2,
                expect_users=100,
                port_file=port_file,
            )

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            for _ in range(200):
                if port_file.exists() and port_file.read_text().strip():
                    break
                thread.join(timeout=0.05)
            port = int(port_file.read_text())
            summary = run_collection_sender(
                "127.0.0.1:%d" % port, seed=5, users=100, batches=2
            )
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert "sent 2 frames" in summary
        assert result["estimate"].startswith("users 100")
