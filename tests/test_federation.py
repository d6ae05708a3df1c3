"""Tests for the hierarchical federation tier (ISSUE 8).

The load-bearing invariant: edges folding client frames locally and
pushing merged state snapshots upstream yield a root estimate
**bit-identical** to one-shot in-process ingestion of every client's
reports — for any edge count, any client-to-edge split, duplicate or
replayed pushes, and across edge *and* root crash-restarts. Plus the
boundary hardening one tier up: contract mismatches refused at the
``STATE`` handshake, corrupt push payloads refused by their CRC seal
before touching aggregation state, report streams and push streams
mutually rejected with typed errors, and TLS on either hop changing the
estimate by exactly nothing.
"""

from __future__ import annotations

import asyncio
import shutil
import subprocess

import numpy as np
import pytest

from repro.exceptions import (
    CheckpointCorruptError,
    ContractMismatchError,
    StorageError,
    TransportError,
    WireFormatError,
)
from repro.federation import (
    EdgeAggregator,
    RootAggregator,
    StatePusher,
    decode_state_push,
    encode_state_push,
    federation_checkpoint_document,
    parse_federation_checkpoint,
    serve_root,
)
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Schema,
    SessionState,
)
from repro.storage import JsonFileStore
from repro.transport import AsyncReportSender, replay_frames, request_stats

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


def _reference(frame_lists):
    server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
    for frames in frame_lists:
        for frame in frames:
            server.ingest_encoded(frame)
    return server.estimate()


def _assert_estimates_equal(a, b, context=""):
    assert a.users == b.users, context
    for x, y in zip(a.attributes, b.attributes):
        assert x.reports == y.reports, (context, x.name)
        assert np.array_equal(x.raw, y.raw), (context, x.name)


def _sender_id(n):
    return bytes([n]) * 16


def _edge_id(n):
    return bytes([0xE0, n]) * 8


async def _root(**kwargs):
    return await serve_root(
        SCHEMA, EPSILON, protocols=SPEC, host="127.0.0.1", port=0, **kwargs
    )


async def _edge(root_port, **kwargs):
    kwargs.setdefault("shards", 2)
    edge = EdgeAggregator(SCHEMA, EPSILON, protocols=SPEC, **kwargs)
    return await edge.start("127.0.0.1", root_port)


class TestStatePushCodec:
    def test_round_trip(self):
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        server.ingest_encoded(_frames(1)[0])
        payload = encode_state_push(
            server.state_dict(), {"frames_accepted": 1}
        )
        push = decode_state_push(payload, server.contract)
        assert push.counters == {"frames_accepted": 1}
        assert push.kind == "snapshot"
        assert push.base_epoch == 0
        restored = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        restored.load_state_dict(push.state)
        _assert_estimates_equal(server.estimate(), restored.estimate())

    def test_crc_seal_catches_corruption(self):
        payload = bytearray(
            encode_state_push(
                LDPServer(SCHEMA, EPSILON, protocols=SPEC).state_dict()
            )
        )
        payload[10] ^= 0xFF
        with pytest.raises(WireFormatError, match="CRC"):
            decode_state_push(bytes(payload), _contract())
        with pytest.raises(WireFormatError, match="shorter"):
            decode_state_push(b"\x01", _contract())

    def test_foreign_contract_refused_by_fingerprint(self):
        foreign = LDPServer(SCHEMA, epsilon=9.0, protocols=SPEC)
        payload = encode_state_push(foreign.state_dict())
        with pytest.raises(ContractMismatchError, match="state push"):
            decode_state_push(payload, _contract())

    def test_malformed_documents_refused(self):
        import json
        import struct
        import zlib

        def sealed(document):
            blob = json.dumps(document).encode()
            return struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF) + blob

        contract = _contract()
        state = LDPServer(SCHEMA, EPSILON, protocols=SPEC).state_dict()
        good = {
            "format": "repro-federation-state-push",
            "push_version": 1,
            "fingerprint": contract.fingerprint,
            "state": state,
            "counters": {},
        }
        for damage in (
            {"format": "nope"},
            {"push_version": 99},
            {"fingerprint": "zz"},
            {"state": "not-a-dict"},
            {"counters": []},
        ):
            with pytest.raises(WireFormatError):
                decode_state_push(sealed({**good, **damage}), contract)
        with pytest.raises(WireFormatError, match="JSON"):
            decode_state_push(
                struct.pack("<I", zlib.crc32(b"{") & 0xFFFFFFFF) + b"{",
                contract,
            )
        with pytest.raises(WireFormatError, match="state_dict"):
            encode_state_push({"no": "fingerprint"})


class TestDeltaPushes:
    """Delta pushes: exact difference upstream, exact merge at the root."""

    def _grown_pair(self, seed=40):
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        frames = _frames(seed=seed)
        server.ingest_encoded(frames[0])
        previous = server.state_dict()
        for frame in frames[1:]:
            server.ingest_encoded(frame)
        return server, previous, server.state_dict()

    @staticmethod
    def _value(server, document):
        return SessionState.from_document(
            document, server.collectors, server.contract
        )

    def test_delta_merges_back_to_current_exactly(self):
        server, previous, current = self._grown_pair()
        base = self._value(server, previous)
        delta = server.state.delta(base)
        merged = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        merged.load_state_dict(base.merged(delta).to_document())
        assert merged.state_dict() == current
        _assert_estimates_equal(server.estimate(), merged.estimate())

    def test_delta_refuses_non_prefix_and_foreign_pairs(self):
        server, previous, _ = self._grown_pair()
        base = self._value(server, previous)
        with pytest.raises(ValueError, match="prefix|users"):
            base.delta(server.state)  # swapped: users go down
        foreign = LDPServer(SCHEMA, epsilon=9.0, protocols=SPEC)
        with pytest.raises(ValueError, match="fingerprint|round"):
            server.state.delta(foreign.state)
        # A damaged base never becomes a value, so it cannot be diffed.
        with pytest.raises(ValueError, match="version|malformed|mapping"):
            self._value(server, {"format": previous["format"]})
        truncated = {
            key: previous[key]
            for key in ("format", "state_version", "fingerprint")
        }
        with pytest.raises(ValueError, match="attributes"):
            self._value(server, truncated)

    def test_push_kind_validation(self):
        _, _, current = self._grown_pair()
        contract = _contract()
        with pytest.raises(WireFormatError, match="kind"):
            encode_state_push(current, kind="increment")
        with pytest.raises(WireFormatError, match="base"):
            encode_state_push(current, kind="delta", base_epoch=0)
        with pytest.raises(WireFormatError, match="base"):
            encode_state_push(current, kind="snapshot", base_epoch=3)
        push = decode_state_push(
            encode_state_push(current, kind="delta", base_epoch=4), contract
        )
        assert (push.kind, push.base_epoch) == ("delta", 4)

    def test_v2_payload_is_much_smaller_than_v1(self):
        """The v2 token + zlib transform cuts push bytes ~4x, losslessly."""
        import json
        import struct
        import zlib

        _, _, current = self._grown_pair()
        contract = _contract()
        v2 = encode_state_push(current)
        blob = json.dumps(
            {
                "format": "repro-federation-state-push",
                "push_version": 1,
                "fingerprint": contract.fingerprint,
                "state": current,
                "counters": {},
            },
            sort_keys=True,
        ).encode()
        v1 = struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF) + blob
        assert len(v2) * 3 < len(v1)
        assert decode_state_push(v2, contract).state == current
        assert decode_state_push(v1, contract).state == current

    def test_malformed_accumulator_tokens_refused(self):
        import json
        import struct
        import zlib

        _, _, current = self._grown_pair()
        contract = _contract()
        for token in ("12p3", "0x1", "1pp2", "1p-4", "zzp3", ""):
            damaged = json.loads(json.dumps(current))
            damaged["attributes"]["a"]["sums"]["sums"] = [token]
            blob = zlib.compress(
                json.dumps(
                    {
                        "format": "repro-federation-state-push",
                        "push_version": 2,
                        "fingerprint": contract.fingerprint,
                        "kind": "snapshot",
                        "base_epoch": 0,
                        "state": damaged,
                        "counters": {},
                    },
                    sort_keys=True,
                ).encode()
            )
            payload = struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF) + blob
            if token == "12p3":  # well-formed token: decodes to 0x12 << 3
                push = decode_state_push(payload, contract)
                assert push.state["attributes"]["a"]["sums"]["sums"] == [144]
            else:
                with pytest.raises(WireFormatError, match="token"):
                    decode_state_push(payload, contract)

    def test_root_applies_delta_bit_identically(self):
        async def scenario():
            root = await _root()
            server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
            frames = _frames(seed=41)
            server.ingest_encoded(frames[0])
            previous = server.state.merged()
            async with await StatePusher.connect(
                "127.0.0.1", root.port, server.contract, _edge_id(1)
            ) as pusher:
                assert await pusher.push(previous.to_document()) == 1
                for frame in frames[1:]:
                    server.ingest_encoded(frame)
                delta = server.state.delta(previous).to_document()
                epoch = await pusher.push(
                    delta, kind="delta", base_epoch=1
                )
                assert epoch == 2
                assert pusher.acked_epoch == 2
            await root.stop()
            return root, [frames]

        root, frame_lists = asyncio.run(scenario())
        assert root.deltas_applied == 1
        assert root.pushes_accepted == 2
        _assert_estimates_equal(_reference(frame_lists), root.estimate())

    def test_root_refuses_delta_on_wrong_or_missing_base(self):
        async def scenario():
            root = await _root()
            server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
            server.ingest_encoded(_frames(seed=42)[0])
            state = server.state_dict()
            delta = server.state.delta(server.state).to_document()
            # no snapshot on record yet: any delta is unappliable
            pusher = await StatePusher.connect(
                "127.0.0.1", root.port, server.contract, _edge_id(1)
            )
            with pytest.raises(WireFormatError, match="no state"):
                await pusher.push(delta, kind="delta", base_epoch=1)
            # root folded epoch 1; a delta naming another base is refused
            async with await StatePusher.connect(
                "127.0.0.1", root.port, server.contract, _edge_id(1)
            ) as good:
                await good.push(state)
            pusher = await StatePusher.connect(
                "127.0.0.1", root.port, server.contract, _edge_id(1)
            )
            with pytest.raises(WireFormatError, match="full snapshot"):
                await pusher.push(delta, kind="delta", base_epoch=7)
            await root.stop()
            return root

        root = asyncio.run(scenario())
        assert root.pushes_rejected == 2
        assert root.deltas_applied == 0

    def test_edge_ships_deltas_then_falls_back_after_reconnect(self):
        """An edge's steady state is deltas; a lost ack forces a snapshot."""

        async def scenario():
            root = await _root()
            # no automatic push trigger: this test drives pushes by hand
            edge = await _edge(root.port, edge_id=_edge_id(9))
            frames = _frames(seed=43)
            await replay_frames(
                "127.0.0.1", edge.port, root.contract, frames, _sender_id(1)
            )
            await edge.gateway.drain()
            first = await edge.push_now()
            second = await edge.push_now()  # same connection: delta
            assert second == first + 1
            deltas_before = edge.delta_pushes
            # simulate an edge that lost its base (crash-restart)
            edge._base_state = None
            edge._base_epoch = 0
            await edge.push_now()  # full snapshot again, still folded
            await edge.stop()
            await root.stop()
            return root, edge, deltas_before, [frames]

        root, edge, deltas_before, frame_lists = asyncio.run(scenario())
        assert deltas_before >= 1
        assert root.deltas_applied == edge.delta_pushes
        assert root.pushes_rejected == 0
        _assert_estimates_equal(_reference(frame_lists), root.estimate())


class TestFederationCheckpointCodec:
    def test_round_trip(self):
        contract = _contract()
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        server.ingest_encoded(_frames(2)[0])
        edges = {_edge_id(1): (3, server.state_dict(), {"bytes": 12})}
        document = federation_checkpoint_document(contract, edges)
        assert parse_federation_checkpoint(document, contract) == edges

    def test_damage_is_typed(self):
        contract = _contract()
        state = LDPServer(SCHEMA, EPSILON, protocols=SPEC).state_dict()
        good = federation_checkpoint_document(
            contract, {_edge_id(1): (1, state, {})}
        )
        for damage in (
            {"format": "nope"},
            {"federation_version": 9},
            {"fingerprint": "zz"},
            {"edges": None},
            {"edges": {"xx": {"epoch": 1, "state": state, "counters": {}}}},
            {"edges": {"aa": "not-a-record"}},
            {"edges": {"aa": {"epoch": 0, "state": state, "counters": {}}}},
            {"edges": {"aa": {"epoch": True, "state": state, "counters": {}}}},
            {"edges": {"aa": {"epoch": 1, "state": 3, "counters": {}}}},
            {"edges": {"aa": {"epoch": 1, "state": state, "counters": 3}}},
        ):
            with pytest.raises(CheckpointCorruptError):
                parse_federation_checkpoint({**good, **damage}, contract)
        foreign = LDPServer(SCHEMA, epsilon=9.0, protocols=SPEC)
        with pytest.raises(ContractMismatchError):
            parse_federation_checkpoint(
                federation_checkpoint_document(foreign.contract, {}), contract
            )


class TestFederatedBitIdentity:
    def test_three_edges_match_oneshot(self):
        """Acceptance: clients split across edges == one-shot, bitwise."""

        async def scenario():
            root = await _root()
            edges = [
                await _edge(root.port, push_every_frames=2, edge_id=_edge_id(n))
                for n in range(3)
            ]
            contract = root.contract
            frame_lists = []
            for n, edge in enumerate(edges):
                frames = _frames(seed=10 + n)
                frame_lists.append(frames)
                await replay_frames(
                    "127.0.0.1", edge.port, contract, frames, _sender_id(n + 1)
                )
            for edge in edges:
                await edge.stop()
            await root.wait_for_users(3 * 120)
            await root.stop()
            return root, frame_lists

        root, frame_lists = asyncio.run(scenario())
        assert root.edges == 3
        assert root.pushes_rejected == 0
        _assert_estimates_equal(_reference(frame_lists), root.estimate())

    def test_merge_is_edge_order_invariant_and_repeatable(self):
        async def scenario():
            root = await _root()
            for n in range(2):
                edge = await _edge(root.port, edge_id=_edge_id(n))
                await replay_frames(
                    "127.0.0.1",
                    edge.port,
                    root.contract,
                    _frames(seed=20 + n),
                    _sender_id(n + 1),
                )
                await edge.stop()
            await root.wait_for_users(240)
            await root.stop()
            return root

        root = asyncio.run(scenario())
        # estimate() merges fresh each call: repeatable, source untouched
        _assert_estimates_equal(root.estimate(), root.estimate())

    def test_duplicate_pushes_are_deduped_not_double_counted(self):
        """A pusher replaying already-folded epochs is acked, not folded."""

        async def scenario():
            root = await _root()
            server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
            frames = _frames(seed=30)
            for frame in frames:
                server.ingest_encoded(frame)
            state = server.state_dict()
            async with await StatePusher.connect(
                "127.0.0.1", root.port, server.contract, _edge_id(1)
            ) as pusher:
                assert pusher.resume_epoch == 0
                assert await pusher.push(state) == 1
            # reconnect: watermark resumed, but force a replay of epoch 1
            pusher = await StatePusher.connect(
                "127.0.0.1", root.port, server.contract, _edge_id(1)
            )
            assert pusher.resume_epoch == 1
            pusher._next_epoch = 1  # simulate an edge that lost the ack
            async with pusher:
                assert await pusher.push(state) == 1  # acked ...
                assert await pusher.push(state) == 2  # ... then continues
            await root.stop()
            return root, [frames]

        root, frame_lists = asyncio.run(scenario())
        assert root.pushes_deduped == 1
        assert root.pushes_accepted == 2
        _assert_estimates_equal(_reference(frame_lists), root.estimate())

    def test_cumulative_pushes_keep_only_the_newest_epoch(self):
        """Each push covers all prior ones; the root never double-folds."""

        async def scenario():
            root = await _root()
            edge = await _edge(
                root.port, push_every_frames=1, edge_id=_edge_id(7)
            )
            frames = _frames(seed=31)
            await replay_frames(
                "127.0.0.1", edge.port, root.contract, frames, _sender_id(1)
            )
            # the frame trigger fires asynchronously; let it land so the
            # round provably contains a mid-round push AND the final one
            for _ in range(500):
                if edge.pushes_completed >= 1:
                    break
                await asyncio.sleep(0.01)
            assert edge.pushes_completed >= 1
            await edge.stop()
            await root.stop()
            return root, [frames], edge

        root, frame_lists, edge = asyncio.run(scenario())
        assert root.pushes_accepted >= 2  # mid-round push(es) + the final one
        assert root.edges == 1
        assert edge.pushes_completed == root.pushes_accepted
        _assert_estimates_equal(_reference(frame_lists), root.estimate())


class TestNoThrowawayServers:
    """Pushes, checkpoints and root folds move state values, not servers."""

    @staticmethod
    def _constructions(tmp_path, frames, monkeypatch):
        gen = np.random.default_rng(frames)
        client = LDPClient(SCHEMA, EPSILON, protocols=SPEC)
        encoded = [
            client.report_encoded(
                np.column_stack(
                    [gen.uniform(-1, 1, 5), gen.uniform(-1, 1, 5), gen.integers(0, 5, 5)]
                ),
                gen,
            )
            for _ in range(frames)
        ]
        calls = []
        original = LDPServer.__init__

        def counted(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(LDPServer, "__init__", counted)

        async def scenario():
            root = await _root(store=JsonFileStore(tmp_path / ("root%d.json" % frames)))
            edge = await _edge(
                root.port,
                edge_id=_edge_id(1),
                store=JsonFileStore(tmp_path / ("edge%d.json" % frames)),
                checkpoint_every_frames=4,
                push_every_frames=4,
            )
            await replay_frames(
                "127.0.0.1", edge.port, root.contract, encoded, _sender_id(1)
            )
            await edge.stop()
            await root.wait_for_users(5 * frames)
            await root.stop()
            return root, edge

        root, edge = asyncio.run(scenario())
        assert edge.pushes_completed >= 2
        assert root.pushes_accepted == edge.pushes_completed
        root.estimate()
        return len(calls), edge.pushes_completed

    def test_construction_count_does_not_grow_with_the_round(
        self, tmp_path, monkeypatch
    ):
        short, short_pushes = self._constructions(tmp_path, 16, monkeypatch)
        long, long_pushes = self._constructions(tmp_path, 64, monkeypatch)
        assert long_pushes > short_pushes
        assert short == long == 3  # two edge shards and the root's view


class TestFederationHandshake:
    def test_report_stream_refused_by_root(self):
        """A report sender dialing a root gets a helpful typed error."""

        async def scenario():
            root = await _root()
            with pytest.raises(TransportError, match="not report frames"):
                await AsyncReportSender.connect(
                    "127.0.0.1", root.port, _contract()
                )
            rejected = root.handshakes_rejected
            await root.stop()
            return rejected

        assert asyncio.run(scenario()) == 1

    def test_push_stream_refused_by_gateway(self):
        """A pusher dialing a plain collection gateway is refused too."""
        from repro.session import ShardedServer
        from repro.transport import serve_collection

        async def scenario():
            server = ShardedServer(SCHEMA, EPSILON, protocols=SPEC, shards=2)
            gateway = await serve_collection(server, "127.0.0.1", 0)
            with pytest.raises(TransportError, match="bad magic"):
                await StatePusher.connect(
                    "127.0.0.1", gateway.port, _contract(), _edge_id(1)
                )
            await gateway.stop()

        asyncio.run(scenario())

    def test_contract_mismatch_refused_before_any_payload(self):
        async def scenario():
            root = await _root()
            foreign = LDPServer(SCHEMA, epsilon=9.0, protocols=SPEC)
            with pytest.raises(ContractMismatchError, match="contract"):
                await StatePusher.connect(
                    "127.0.0.1", root.port, foreign.contract, _edge_id(1)
                )
            assert root.pushes_accepted == 0
            rejected = root.handshakes_rejected
            await root.stop()
            return rejected

        assert asyncio.run(scenario()) == 1

    def test_concurrent_connections_under_one_edge_id_refused(self):
        async def scenario():
            root = await _root()
            first = await StatePusher.connect(
                "127.0.0.1", root.port, _contract(), _edge_id(3)
            )
            with pytest.raises(TransportError, match="already connected"):
                await StatePusher.connect(
                    "127.0.0.1", root.port, _contract(), _edge_id(3)
                )
            await first.close()
            await root.stop()

        asyncio.run(scenario())

    def test_corrupt_push_refused_without_touching_state(self):
        """A damaged payload is answered with a typed status; the edge
        table stays clean and the connection is closed."""
        from repro.transport.framing import write_frame

        async def scenario():
            root = await _root()
            pusher = await StatePusher.connect(
                "127.0.0.1", root.port, _contract(), _edge_id(4)
            )
            payload = bytearray(
                encode_state_push(
                    LDPServer(SCHEMA, EPSILON, protocols=SPEC).state_dict()
                )
            )
            payload[6] ^= 0xFF
            write_frame(pusher._writer, 1, bytes(payload))
            await pusher._writer.drain()
            from repro.transport.framing import read_status

            status, message = await read_status(pusher._reader)
            await pusher.close()
            counters = (root.pushes_rejected, root.pushes_accepted, root.edges)
            await root.stop()
            return status, message, counters

        status, message, (rejected, accepted, edges) = asyncio.run(scenario())
        assert status != 0 and "CRC" in message
        assert (rejected, accepted, edges) == (1, 0, 0)

    def test_stats_request_served_by_root(self):
        """The admin STATS poll works against a root and aggregates the
        per-edge counters across the topology."""

        async def scenario():
            root = await _root()
            edge = await _edge(root.port, edge_id=_edge_id(5))
            await replay_frames(
                "127.0.0.1",
                edge.port,
                root.contract,
                _frames(seed=40),
                _sender_id(1),
            )
            await edge.stop()
            snapshot = await request_stats("127.0.0.1", root.port)
            await root.stop()
            return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot["counters"]["edges"] == 1
        assert snapshot["counters"]["users"] == 120
        assert snapshot["counters"]["rejections_total"] == 0
        assert snapshot["edge_totals"]["frames_accepted"] == 3
        (record,) = snapshot["edges"].values()
        assert record["users"] == 120

    def test_snapshot_counters_are_registry_reads(self, tmp_path):
        """After a socket round, every count in the gateway, edge and
        root snapshots equals its registry family's value, as an int."""

        async def scenario():
            root = await _root(store=JsonFileStore(tmp_path / "root.json"))
            edge = await _edge(
                root.port,
                edge_id=_edge_id(6),
                push_every_frames=1,
                store=JsonFileStore(tmp_path / "edge.json"),
                checkpoint_every_frames=1,
            )
            sender = await AsyncReportSender.connect(
                "127.0.0.1", edge.port, root.contract, _sender_id(2)
            )
            async with sender:
                for frame in _frames(seed=41):
                    await sender.send_encoded(frame)
                await sender.heartbeat()
            rogue = LDPClient(SCHEMA, epsilon=9.0, protocols=SPEC)
            with pytest.raises(ContractMismatchError):
                await AsyncReportSender.connect("127.0.0.1", edge.port, rogue)
            await edge.stop()
            await root.stop()
            return edge.stats_snapshot(), root.stats_snapshot()

        edge, root = asyncio.run(scenario())
        checks = (
            (edge, "counters", "gateway", (
                "frames_accepted", "frames_rejected", "frames_deduped",
                "handshakes_rejected", "users_accepted", "bytes_received",
                "heartbeats", "checkpoints_written",
            )),
            (edge, "federation", "edge", (
                "pushes_completed", "delta_pushes", "push_retries",
            )),
            (root, "counters", "root", (
                "pushes_accepted", "pushes_deduped", "deltas_applied",
                "pushes_rejected", "handshakes_rejected", "bytes_received",
                "checkpoints_written",
            )),
        )
        renamed = {("root", "bytes_received"): "push_bytes_received"}
        for snapshot, section, prefix, counters in checks:
            for counter in counters:
                family = renamed.get((prefix, counter), counter)
                values = snapshot["metrics"]["%s_%s_total" % (prefix, family)]
                value = snapshot[section][counter]
                assert type(value) is int, (section, counter)
                assert value == sum(values["values"].values()), (section, counter)
        # the round moved every kind of count the check reads
        assert edge["counters"]["frames_accepted"] == 4
        assert edge["counters"]["heartbeats"] == 1
        assert edge["counters"]["handshakes_rejected"] == 1
        assert edge["counters"]["checkpoints_written"] >= 4
        assert root["counters"]["deltas_applied"] >= 1
        assert root["counters"]["checkpoints_written"] >= 2


class TestCrashRecovery:
    def test_root_restart_resumes_the_round(self, tmp_path):
        """A new root process over the same store continues the round;
        the reconnecting edge hears its true watermark; the estimate is
        bit-identical to an uninterrupted round."""

        async def scenario():
            store = JsonFileStore(tmp_path / "root.json")
            root = await _root(store=store)
            server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
            frames = _frames(seed=50)
            server.ingest_encoded(frames[0])
            async with await StatePusher.connect(
                "127.0.0.1", root.port, server.contract, _edge_id(1)
            ) as pusher:
                await pusher.push(server.state_dict())
            # "crash": abandon the old root object entirely
            await root.stop()
            revived = await _root(store=store)
            assert revived.users == 120 // 3
            for frame in frames[1:]:
                server.ingest_encoded(frame)
            async with await StatePusher.connect(
                "127.0.0.1", revived.port, server.contract, _edge_id(1)
            ) as pusher:
                assert pusher.resume_epoch == 1  # recovered watermark
                await pusher.push(server.state_dict())
            await revived.stop()
            return revived, [frames]

        revived, frame_lists = asyncio.run(scenario())
        _assert_estimates_equal(_reference(frame_lists), revived.estimate())

    def test_edge_restart_resumes_from_checkpoint(self, tmp_path):
        """An edge killed mid-round resumes from its local store under
        the same edge id; its next cumulative push re-covers everything;
        the root dedups by epoch and the estimate stays exact."""

        async def scenario():
            root = await _root()
            store = JsonFileStore(tmp_path / "edge.json")
            edge = await _edge(
                root.port,
                store=store,
                checkpoint_every_frames=1,
                edge_id=_edge_id(9),
                push_every_frames=2,
            )
            frames = _frames(seed=60, batches=4)
            await replay_frames(
                "127.0.0.1",
                edge.port,
                root.contract,
                frames[:2],
                _sender_id(1),
            )
            await edge.gateway.drain()
            # "SIGKILL": no stop(), no final push — just drop the tasks
            await edge.gateway.stop(abort_connections=True)
            if edge._loop_task is not None:
                edge._loop_task.cancel()
            await edge._close_pusher()
            revived = await _edge(
                root.port,
                store=store,
                checkpoint_every_frames=1,
                edge_id=_edge_id(9),
                push_every_frames=2,
            )
            assert revived.users == 60  # recovered the folded half
            # the client replays its whole round; durable frames skipped
            await replay_frames(
                "127.0.0.1",
                revived.port,
                root.contract,
                frames,
                _sender_id(1),
            )
            await revived.stop()
            await root.wait_for_users(120)
            await root.stop()
            return root, [frames]

        root, frame_lists = asyncio.run(scenario())
        assert root.edges == 1
        assert root.pushes_rejected == 0
        _assert_estimates_equal(_reference(frame_lists), root.estimate())

    def _recover_from(self, tmp_path, name, state):
        """A root over a store whose only edge record holds ``state``."""
        store = JsonFileStore(tmp_path / name)
        store.save(
            federation_checkpoint_document(
                _contract(), {_edge_id(1): (3, state, {})}
            )
        )
        return RootAggregator(SCHEMA, EPSILON, protocols=SPEC, store=store)

    def test_root_refuses_damaged_recovered_edge_state(self, tmp_path):
        """A recovered edge state is validated in start(), before the
        root listens — not later, from estimate(), after acking its
        epoch as the edge's watermark."""
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        server.ingest_encoded(_frames(seed=52)[0])
        dropped = server.state_dict()
        del dropped["attributes"]["b"]
        lots = server.state_dict()
        lots["users"] = "lots"
        for name, state in (("dropped.json", dropped), ("lots.json", lots)):
            root = self._recover_from(tmp_path, name, state)
            with pytest.raises(CheckpointCorruptError):
                asyncio.run(root.start())
            assert root._tcp is None  # never listened
            assert root.edges == 0 and root.users == 0

    def test_root_refuses_foreign_recovered_edge_state(self, tmp_path):
        foreign = LDPServer(SCHEMA, epsilon=9.0, protocols=SPEC)
        root = self._recover_from(tmp_path, "foreign.json", foreign.state_dict())
        with pytest.raises(ContractMismatchError):
            asyncio.run(root.start())
        assert root._tcp is None
        assert root.edges == 0

    def test_durable_before_ack_poisons_on_store_failure(self, tmp_path):
        """A root that cannot persist a fold refuses the push and every
        later one — an acked epoch is never less durable than promised."""

        class BrokenStore(JsonFileStore):
            def save(self, document):
                raise StorageError("disk full")

        async def scenario():
            root = await _root(store=BrokenStore(tmp_path / "broken.json"))
            server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
            server.ingest_encoded(_frames(seed=70)[0])
            pusher = await StatePusher.connect(
                "127.0.0.1", root.port, server.contract, _edge_id(1)
            )
            with pytest.raises(TransportError, match="checkpoint failed"):
                await pusher.push(server.state_dict())
            with pytest.raises(TransportError, match="disk full"):
                await root.wait_for_users(1)
            counters = (root.pushes_accepted, root.pushes_rejected)
            await root.stop()
            return counters

        accepted, rejected = asyncio.run(scenario())
        assert accepted == 0
        assert rejected == 1

    def test_invalid_snapshot_never_replaces_a_good_one(self):
        """A push whose state fails restoration is refused pre-fold."""
        import json
        import struct
        import zlib

        async def scenario():
            root = await _root()
            contract = _contract()
            state = LDPServer(SCHEMA, EPSILON, protocols=SPEC).state_dict()
            state["users"] = -5  # structurally JSON, semantically broken
            blob = json.dumps(
                {
                    "format": "repro-federation-state-push",
                    "push_version": 1,
                    "fingerprint": contract.fingerprint,
                    "state": state,
                    "counters": {},
                }
            ).encode()
            payload = (
                struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF) + blob
            )
            pusher = await StatePusher.connect(
                "127.0.0.1", root.port, contract, _edge_id(2)
            )
            from repro.transport.framing import read_status, write_frame

            write_frame(pusher._writer, 1, payload)
            await pusher._writer.drain()
            status, _ = await read_status(pusher._reader)
            await pusher.close()
            counters = (status, root.pushes_rejected, root.edges)
            await root.stop()
            return counters

        status, rejected, edges = asyncio.run(scenario())
        assert status != 0
        assert rejected == 1
        assert edges == 0


def _make_certs(directory):
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("openssl CLI not available for test certificates")
    cert = directory / "cert.pem"
    key = directory / "key.pem"
    subprocess.run(
        [
            openssl,
            "req",
            "-x509",
            "-newkey",
            "rsa:2048",
            "-nodes",
            "-keyout",
            str(key),
            "-out",
            str(cert),
            "-days",
            "1",
            "-subj",
            "/CN=localhost",
            "-addext",
            "subjectAltName=IP:127.0.0.1,DNS:localhost",
        ],
        check=True,
        capture_output=True,
    )
    return cert, key


class TestTls:
    def test_both_hops_over_tls_stay_bit_identical(self, tmp_path):
        """Client→edge and edge→root both TLS: same bits out."""
        from repro.experiments.socket_round import (
            client_ssl_context,
            server_ssl_context,
        )

        cert, key = _make_certs(tmp_path)

        async def scenario():
            server_ctx = server_ssl_context(cert, key)
            client_ctx = client_ssl_context(cert)
            root = await _root(ssl=server_ctx)
            edge = EdgeAggregator(
                SCHEMA,
                EPSILON,
                protocols=SPEC,
                shards=2,
                edge_id=_edge_id(1),
                push_every_frames=2,
            )
            await edge.start(
                "127.0.0.1",
                root.port,
                ssl=server_ssl_context(cert, key),
                upstream_ssl=client_ctx,
            )
            frames = _frames(seed=80)
            await replay_frames(
                "127.0.0.1",
                edge.port,
                root.contract,
                frames,
                _sender_id(1),
                ssl=client_ssl_context(cert),
            )
            await edge.stop()
            await root.wait_for_users(120)
            await root.stop()
            return root, [frames]

        root, frame_lists = asyncio.run(scenario())
        assert root.pushes_rejected == 0
        _assert_estimates_equal(_reference(frame_lists), root.estimate())

    def test_plaintext_client_cannot_reach_a_tls_root(self, tmp_path):
        from repro.experiments.socket_round import server_ssl_context

        cert, key = _make_certs(tmp_path)

        async def scenario():
            root = await _root(ssl=server_ssl_context(cert, key))
            with pytest.raises((TransportError, ConnectionError, OSError)):
                await asyncio.wait_for(
                    StatePusher.connect(
                        "127.0.0.1", root.port, _contract(), _edge_id(1)
                    ),
                    timeout=5.0,
                )
            assert root.pushes_accepted == 0
            await root.stop(grace=0.2)

        asyncio.run(scenario())


class TestEdgeAggregatorBehaviour:
    def test_parameter_validation(self):
        for kwargs in (
            dict(push_every_frames=0),
            dict(push_every_seconds=0.0),
            dict(push_attempts=0),
            # no silent int(): 2.5 frames is not 2 frames
            dict(push_every_frames=2.5),
            dict(push_every_frames="x"),
            dict(push_attempts=1.7),
            # nan and inf are no period; a string is typed, not a bare
            # ValueError
            dict(push_every_seconds=float("nan")),
            dict(push_every_seconds=float("inf")),
            dict(push_every_seconds="abc"),
        ):
            with pytest.raises(TransportError):
                EdgeAggregator(SCHEMA, EPSILON, protocols=SPEC, **kwargs)

    def test_exhausted_push_attempts_summarise_distinct_errors(self):
        """push_now reports a repeated failure once, with every attempt
        number against it — the same summary replay_frames gives."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        async def scenario():
            edge = await _edge(
                dead_port,
                edge_id=_edge_id(7),
                push_attempts=3,
                push_retry_delay=0.01,
            )
            with pytest.raises(TransportError) as excinfo:
                await edge.push_now()
            with pytest.raises(TransportError):
                await edge.stop()  # the final push fails the same way
            return str(excinfo.value)

        message = asyncio.run(scenario())
        assert "after 3 attempt(s)" in message
        assert "attempts 1,2,3: " in message
        assert message.count("attempt") == 2

    def test_stop_always_pushes_even_when_idle(self):
        """An edge that accepted nothing still registers at the root."""

        async def scenario():
            root = await _root()
            edge = await _edge(root.port, edge_id=_edge_id(1))
            await edge.stop()
            await root.stop()
            return root, edge

        root, edge = asyncio.run(scenario())
        assert edge.pushes_completed == 1
        assert root.edges == 1
        assert root.users == 0

    def test_push_retries_ride_out_a_root_restart(self, tmp_path):
        """The edge's push loop reconnects (re-learning the watermark)
        while the root restarts from its store mid-round."""

        async def scenario():
            store = JsonFileStore(tmp_path / "root.json")
            root = await _root(store=store)
            edge = await _edge(
                root.port,
                edge_id=_edge_id(6),
                push_attempts=20,
                push_retry_delay=0.05,
            )
            frames = _frames(seed=90)
            await replay_frames(
                "127.0.0.1", edge.port, root.contract, frames, _sender_id(1)
            )
            await edge.push_now()
            port = root.port
            await root.stop()  # root gone; edge's connection is dead

            async def restart_later():
                await asyncio.sleep(0.2)
                revived = RootAggregator(
                    SCHEMA, EPSILON, protocols=SPEC, store=store
                )
                await revived.start("127.0.0.1", port)
                return revived

            revival = asyncio.ensure_future(restart_later())
            await edge.stop()  # final push retries until the root is back
            revived = await revival
            await revived.wait_for_users(120)
            await revived.stop()
            return revived, [frames], edge

        revived, frame_lists, edge = asyncio.run(scenario())
        assert edge.push_retries >= 1
        assert revived.pushes_rejected == 0
        _assert_estimates_equal(_reference(frame_lists), revived.estimate())

    def test_root_refuses_double_serve_and_unstarted_waits(self):
        async def scenario():
            root = await _root()
            with pytest.raises(TransportError, match="already serving"):
                await root.start()
            await root.stop()
            fresh = RootAggregator(SCHEMA, EPSILON, protocols=SPEC)
            with pytest.raises(TransportError, match="not serving"):
                await fresh.wait_for_users(1)
            with pytest.raises(TransportError, match="not serving"):
                fresh.port

        asyncio.run(scenario())
