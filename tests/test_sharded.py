"""Tests for mergeable/checkpointable state and the sharded collector.

The load-bearing invariant (ISSUE 3 acceptance): for every registered
protocol, ingesting encoded batches through a :class:`ShardedServer`
(any shard count), then merging, yields estimates bit-identical to
one-shot in-memory ingestion; ``save_state`` → ``load_state`` resumes a
round with identical estimates; and contract-fingerprint mismatches are
rejected.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.exceptions import (
    AggregationError,
    ContractMismatchError,
    DimensionError,
    WireFormatError,
)
from repro.mechanisms import available_mechanisms
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Schema,
    SessionState,
    ShardedServer,
    StreamingSum,
)

ORACLES = ("grr", "oue", "olh")

MIXED = Schema(
    [
        NumericAttribute("a"),
        NumericAttribute("b"),
        CategoricalAttribute("c", n_categories=4),
    ]
)
CATEGORICAL_ONLY = Schema([CategoricalAttribute("c", n_categories=4)])


def _session(protocol):
    if protocol in ORACLES:
        return CATEGORICAL_ONLY, {"c": protocol}
    return MIXED, protocol


def _records(schema, users, seed):
    gen = np.random.default_rng(seed)
    columns = []
    for attr in schema:
        if attr.kind == "numeric":
            columns.append(gen.uniform(-1, 1, users))
        else:
            columns.append(gen.integers(0, attr.n_categories, users))
    return np.column_stack(columns)


def _batches(schema, spec, count=6, users=300):
    client = LDPClient(schema, epsilon=2.0, protocols=spec)
    return client, [
        client.report_batch(_records(schema, users, seed), seed)
        for seed in range(count)
    ]


def _assert_estimates_equal(a, b, context=""):
    assert a.users == b.users, context
    for x, y in zip(a.attributes, b.attributes):
        assert x.reports == y.reports, (context, x.name)
        assert np.array_equal(x.raw, y.raw), (context, x.name)


class TestShardEquivalence:
    @pytest.mark.parametrize(
        "protocol", sorted(available_mechanisms()) + list(ORACLES)
    )
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_sharded_merge_is_bit_identical_to_one_shot(self, protocol, shards):
        """Acceptance: any shard count == one-shot in-memory ingestion."""
        schema, spec = _session(protocol)
        client, batches = _batches(schema, spec)
        one_shot = LDPServer(schema, epsilon=2.0, protocols=spec)
        one_shot.ingest(batches)
        sharded = ShardedServer(
            schema, epsilon=2.0, protocols=spec, shards=shards
        )
        for batch in batches:
            sharded.ingest_encoded(client.encode(batch))
        _assert_estimates_equal(
            one_shot.estimate(), sharded.estimate(), protocol
        )

    def test_merge_order_cannot_matter(self):
        """Aggregation is exact, so even *reversed* merges agree."""
        schema, spec = _session("piecewise")
        client, batches = _batches(schema, spec)
        sharded = ShardedServer(schema, epsilon=2.0, protocols=spec, shards=3)
        sharded.ingest(batches)
        forward = LDPServer(schema, epsilon=2.0, protocols=spec)
        for shard in sharded.shards:
            forward.merge(shard)
        backward = LDPServer(schema, epsilon=2.0, protocols=spec)
        for shard in reversed(sharded.shards):
            backward.merge(shard)
        _assert_estimates_equal(forward.estimate(), backward.estimate())

    def test_merge_accumulates_users_and_reports(self):
        schema, spec = _session("laplace")
        _, batches = _batches(schema, spec, count=4, users=100)
        left = LDPServer(schema, epsilon=2.0, protocols=spec)
        left.ingest(batches[:2])
        right = LDPServer(schema, epsilon=2.0, protocols=spec)
        right.ingest(batches[2:])
        left.merge(right)
        assert left.users == 400
        assert sum(left.report_counts().values()) == 400 * schema.dimensions

    def test_merge_rejects_contract_mismatch(self):
        schema, spec = _session("piecewise")
        server = LDPServer(schema, epsilon=2.0, protocols=spec)
        other = LDPServer(schema, epsilon=3.0, protocols=spec)
        with pytest.raises(ContractMismatchError):
            server.merge(other)
        with pytest.raises(DimensionError):
            server.merge("not a server")

    def test_merging_does_not_disturb_the_source(self):
        schema, spec = _session("oue")
        _, batches = _batches(schema, spec, count=2)
        source = LDPServer(schema, epsilon=2.0, protocols=spec)
        source.ingest(batches)
        before = source.estimate()
        target = LDPServer(schema, epsilon=2.0, protocols=spec)
        target.merge(source)
        _assert_estimates_equal(before, source.estimate())
        _assert_estimates_equal(before, target.estimate())


class TestCrossTopologyMerges:
    """Satellite (ISSUE 8): merges across topologies stay bit-identical.

    The federation tier leans on these shapes — an edge that pushed
    before receiving anything, a root restoring snapshots cut under a
    different shard count, states recovered from heterogeneous storage
    backends — so each is pinned against the one-shot reference here.
    """

    def test_merge_with_an_empty_side_is_identity(self):
        schema, spec = _session("piecewise")
        _, batches = _batches(schema, spec, count=4, users=100)
        one_shot = LDPServer(schema, epsilon=2.0, protocols=spec)
        one_shot.ingest(batches)
        # full.merge(empty): the empty server contributes nothing
        full = LDPServer(schema, epsilon=2.0, protocols=spec)
        full.ingest(batches)
        full.merge(LDPServer(schema, epsilon=2.0, protocols=spec))
        _assert_estimates_equal(one_shot.estimate(), full.estimate(), "r-empty")
        # empty.merge(full): the empty target becomes the full state
        target = LDPServer(schema, epsilon=2.0, protocols=spec)
        source = LDPServer(schema, epsilon=2.0, protocols=spec)
        source.ingest(batches)
        target.merge(source)
        _assert_estimates_equal(
            one_shot.estimate(), target.estimate(), "l-empty"
        )

    def test_snapshot_from_different_shard_count_restores_and_merges(self):
        """A 3-shard snapshot restores into a 2-shard topology, keeps
        ingesting, merges — still bit-identical to one-shot."""
        schema, spec = _session("oue")
        client, batches = _batches(schema, spec, count=6, users=100)
        one_shot = LDPServer(schema, epsilon=2.0, protocols=spec)
        one_shot.ingest(batches)
        first = ShardedServer(schema, epsilon=2.0, protocols=spec, shards=3)
        for batch in batches[:3]:
            first.ingest_encoded(client.encode(batch))
        second = ShardedServer(schema, epsilon=2.0, protocols=spec, shards=2)
        second.load_state_dict(first.state_dict())
        for batch in batches[3:]:
            second.ingest_encoded(client.encode(batch))
        _assert_estimates_equal(one_shot.estimate(), second.estimate())

    def test_merge_state_dict_folds_instead_of_replacing(self):
        """The additive verb, on values: a restored snapshot merges into
        a running server's state instead of replacing it."""
        schema, spec = _session("grr")
        _, batches = _batches(schema, spec, count=4, users=100)
        one_shot = LDPServer(schema, epsilon=2.0, protocols=spec)
        one_shot.ingest(batches)
        left = LDPServer(schema, epsilon=2.0, protocols=spec)
        left.ingest(batches[:2])
        right = LDPServer(schema, epsilon=2.0, protocols=spec)
        right.ingest(batches[2:])
        snapshot = SessionState.from_document(
            right.state_dict(), left.collectors, left.contract
        )
        left.load_state_dict(left.state.merged(snapshot).to_document())
        _assert_estimates_equal(one_shot.estimate(), left.estimate(), "plain")
        # Same through a ShardedServer (lands on shard 0, invisible in
        # the merged estimate), and a foreign snapshot is still refused.
        sharded = ShardedServer(schema, epsilon=2.0, protocols=spec, shards=2)
        sharded.load_state_dict(sharded.state.merged(left.state).to_document())
        _assert_estimates_equal(
            one_shot.estimate(), sharded.estimate(), "sharded"
        )
        foreign = LDPServer(schema, epsilon=3.0, protocols=spec)
        with pytest.raises(ContractMismatchError):
            sharded.state.merged(foreign.state)
        with pytest.raises(ContractMismatchError):
            SessionState.from_document(
                foreign.state_dict(), left.collectors, sharded.contract
            )

    def test_states_restored_from_different_backends_merge_identically(
        self, tmp_path
    ):
        """file:// and segments:// halves of a round merge to one-shot."""
        from repro.storage import open_store

        schema, spec = _session("olh")
        _, batches = _batches(schema, spec, count=4, users=100)
        one_shot = LDPServer(schema, epsilon=2.0, protocols=spec)
        one_shot.ingest(batches)
        stores = [
            open_store("file://%s" % (tmp_path / "half.json")),
            open_store("segments://%s" % (tmp_path / "half-log")),
        ]
        try:
            for store, half in zip(stores, (batches[:2], batches[2:])):
                server = LDPServer(schema, epsilon=2.0, protocols=spec)
                server.ingest(half)
                store.save(server.state_dict())
            merged = LDPServer(schema, epsilon=2.0, protocols=spec)
            halves = [
                SessionState.from_document(
                    store.recover(), merged.collectors, merged.contract
                )
                for store in stores
            ]
            merged.load_state_dict(merged.state.merged(*halves).to_document())
        finally:
            for store in stores:
                store.close()
        _assert_estimates_equal(one_shot.estimate(), merged.estimate())


class TestCheckpoints:
    @pytest.mark.parametrize("protocol", ["piecewise", "grr", "oue", "olh"])
    def test_save_load_resumes_identically(self, protocol, tmp_path):
        """Acceptance: a restored round continues without losing an ulp."""
        schema, spec = _session(protocol)
        _, batches = _batches(schema, spec)
        uninterrupted = LDPServer(schema, epsilon=2.0, protocols=spec)
        uninterrupted.ingest(batches)

        first = LDPServer(schema, epsilon=2.0, protocols=spec)
        first.ingest(batches[:3])
        path = tmp_path / "round.json"
        first.save_state(path)
        resumed = LDPServer(schema, epsilon=2.0, protocols=spec).load_state(path)
        resumed.ingest(batches[3:])
        _assert_estimates_equal(
            uninterrupted.estimate(), resumed.estimate(), protocol
        )

    def test_sharded_checkpoint_restores_into_any_topology(self, tmp_path):
        schema, spec = _session("piecewise")
        client, batches = _batches(schema, spec)
        sharded = ShardedServer(schema, epsilon=2.0, protocols=spec, shards=3)
        for batch in batches[:3]:
            sharded.ingest_encoded(client.encode(batch))
        path = tmp_path / "sharded.json"
        sharded.save_state(path)
        # Resume on a *different* shard count: exactness makes it moot.
        resumed = ShardedServer(
            schema, epsilon=2.0, protocols=spec, shards=2
        ).load_state(path)
        for batch in batches[3:]:
            resumed.ingest_encoded(client.encode(batch))
        reference = LDPServer(schema, epsilon=2.0, protocols=spec)
        reference.ingest(batches)
        _assert_estimates_equal(reference.estimate(), resumed.estimate())

    def test_load_rejects_contract_mismatch(self, tmp_path):
        schema, spec = _session("piecewise")
        _, batches = _batches(schema, spec, count=1)
        server = LDPServer(schema, epsilon=2.0, protocols=spec)
        server.ingest(batches)
        path = tmp_path / "state.json"
        server.save_state(path)
        stranger = LDPServer(schema, epsilon=1.0, protocols=spec)
        with pytest.raises(ContractMismatchError):
            stranger.load_state(path)

    def test_load_rejects_malformed_documents(self, tmp_path):
        schema, spec = _session("piecewise")
        server = LDPServer(schema, epsilon=2.0, protocols=spec)
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(WireFormatError):
            server.load_state(path)
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(WireFormatError):
            server.load_state(path)

    def test_failed_sharded_load_preserves_existing_state(self, tmp_path):
        """A bad checkpoint must not wipe a mid-round sharded collector."""
        schema, spec = _session("piecewise")
        client, batches = _batches(schema, spec, count=4)
        sharded = ShardedServer(schema, epsilon=2.0, protocols=spec, shards=2)
        for batch in batches:
            sharded.ingest_encoded(client.encode(batch))
        before = sharded.estimate()
        path = tmp_path / "corrupt.json"
        path.write_text("{broken")
        with pytest.raises(WireFormatError):
            sharded.load_state(path)
        # mismatched contract is equally non-destructive
        other = LDPServer(schema, epsilon=9.0, protocols=spec)
        other.ingest(
            LDPClient(schema, epsilon=9.0, protocols=spec).report_batch(
                _records(schema, 10, 0), 0
            )
        )
        other.save_state(path)
        with pytest.raises(ContractMismatchError):
            sharded.load_state(path)
        _assert_estimates_equal(before, sharded.estimate())

    def test_load_rejects_tampered_attribute_states(self, tmp_path):
        schema, spec = _session("grr")
        _, batches = _batches(schema, spec, count=1)
        server = LDPServer(schema, epsilon=2.0, protocols=spec)
        server.ingest(batches)
        document = server.state_dict()
        document["attributes"]["c"]["counts"] = [1, 2]  # wrong category count
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(document))
        fresh = LDPServer(schema, epsilon=2.0, protocols=spec)
        with pytest.raises(WireFormatError):
            fresh.load_state(path)
        # ... and the failed load left the server untouched.
        assert fresh.users == 0

    def test_load_rejects_boolean_user_count(self, tmp_path):
        schema, spec = _session("piecewise")
        _, batches = _batches(schema, spec, count=1)
        server = LDPServer(schema, epsilon=2.0, protocols=spec)
        server.ingest(batches)
        document = server.state_dict()
        document["users"] = True
        fresh = LDPServer(schema, epsilon=2.0, protocols=spec)
        with pytest.raises(WireFormatError, match="user count"):
            fresh.load_state_dict(document)

    def test_failed_save_cleans_up_its_scratch_file(self, tmp_path, monkeypatch):
        """Regression: a crashed checkpoint used to leave a stale .tmp."""
        import pathlib

        schema, spec = _session("piecewise")
        _, batches = _batches(schema, spec, count=1)
        server = LDPServer(schema, epsilon=2.0, protocols=spec)
        server.ingest(batches)
        real_write = pathlib.Path.write_text

        def partial_write(self, text, *args, **kwargs):
            real_write(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(pathlib.Path, "write_text", partial_write)
        with pytest.raises(OSError, match="disk full"):
            server.save_state(tmp_path / "state.json")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_cleans_up_its_scratch_file(self, tmp_path, monkeypatch):
        import os

        schema, spec = _session("piecewise")
        _, batches = _batches(schema, spec, count=1)
        server = LDPServer(schema, epsilon=2.0, protocols=spec)
        server.ingest(batches)

        def broken_replace(src, dst, **kwargs):
            raise OSError("cross-device link")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="cross-device"):
            server.save_state(tmp_path / "state.json")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_save_state_is_atomic(self, tmp_path):
        """Checkpointing never leaves temp litter and safely overwrites."""
        schema, spec = _session("piecewise")
        _, batches = _batches(schema, spec, count=2)
        server = LDPServer(schema, epsilon=2.0, protocols=spec)
        server.ingest(batches[0])
        path = tmp_path / "state.json"
        server.save_state(path)
        server.ingest(batches[1])
        server.save_state(path)  # overwrite in place
        assert list(tmp_path.iterdir()) == [path]
        clone = LDPServer(schema, epsilon=2.0, protocols=spec).load_state(path)
        _assert_estimates_equal(server.estimate(), clone.estimate())

    def test_state_dict_is_json_round_trippable(self):
        schema, spec = _session("olh")
        _, batches = _batches(schema, spec, count=2)
        server = LDPServer(schema, epsilon=2.0, protocols=spec)
        server.ingest(batches)
        document = json.loads(json.dumps(server.state_dict()))
        clone = LDPServer(schema, epsilon=2.0, protocols=spec)
        clone.load_state_dict(document)
        _assert_estimates_equal(server.estimate(), clone.estimate())


class TestShardedServerBehaviour:
    def test_rejects_zero_shards(self):
        with pytest.raises(DimensionError):
            ShardedServer(MIXED, epsilon=1.0, shards=0)

    @pytest.mark.parametrize("shards", [2.5, 2.0, "2", None])
    def test_rejects_non_integral_shard_counts(self, shards):
        """Regression: 2.5 shards used to be silently truncated to 2."""
        with pytest.raises(DimensionError, match="integer"):
            ShardedServer(MIXED, epsilon=1.0, shards=shards)

    def test_accepts_integer_like_shard_counts(self):
        sharded = ShardedServer(MIXED, epsilon=1.0, shards=np.int64(3))
        assert sharded.n_shards == 3

    def test_round_robin_routing(self):
        schema, spec = _session("laplace")
        _, batches = _batches(schema, spec, count=5, users=10)
        sharded = ShardedServer(schema, epsilon=2.0, protocols=spec, shards=2)
        sharded.ingest(batches)
        assert [shard.users for shard in sharded.shards] == [30, 20]
        assert sharded.users == 50

    def test_estimate_requires_reports(self):
        sharded = ShardedServer(MIXED, epsilon=1.0, shards=2)
        with pytest.raises(AggregationError):
            sharded.estimate()

    def test_reset_clears_all_shards(self):
        schema, spec = _session("laplace")
        _, batches = _batches(schema, spec, count=2, users=10)
        sharded = ShardedServer(schema, epsilon=2.0, protocols=spec, shards=2)
        sharded.ingest(batches)
        sharded.reset()
        assert sharded.users == 0
        assert all(shard.users == 0 for shard in sharded.shards)

    def test_report_counts_aggregate_over_shards(self):
        schema, spec = _session("laplace")
        _, batches = _batches(schema, spec, count=4, users=25)
        sharded = ShardedServer(schema, epsilon=2.0, protocols=spec, shards=3)
        sharded.ingest(batches)
        assert sum(sharded.report_counts().values()) == 100 * schema.dimensions

    def test_multi_batch_ingest_is_atomic_across_shards(self):
        """A malformed batch mid-iterable leaves every shard untouched."""
        from repro.session import ReportBatch

        schema, spec = _session("piecewise")
        client, batches = _batches(schema, spec, count=3, users=50)
        bad_payloads = dict(batches[2].payloads)
        bad_payloads["c"] = np.ones((50, 99))
        malformed = ReportBatch(
            users=50,
            payloads=bad_payloads,
            counts=dict(batches[2].counts),
            protocols=dict(batches[2].protocols),
        )
        sharded = ShardedServer(schema, epsilon=2.0, protocols=spec, shards=2)
        with pytest.raises(DimensionError):
            sharded.ingest([batches[0], batches[1], malformed])
        assert sharded.users == 0
        assert all(shard.users == 0 for shard in sharded.shards)

    def test_postprocess_passes_through(self, rng):
        schema, spec = _session("piecewise")
        client, batches = _batches(schema, spec)
        sharded = ShardedServer(schema, epsilon=2.0, protocols=spec, shards=2)
        sharded.ingest(batches)
        estimate = sharded.estimate(postprocess=lambda theta, model: theta * 0.5)
        raw = sharded.estimate()
        np.testing.assert_allclose(
            estimate.numeric_means(), raw.numeric_means(enhanced=False) * 0.5
        )


class TestExactAccumulation:
    """The StreamingSum properties the distributed API leans on."""

    def test_sum_is_exact(self):
        gen = np.random.default_rng(3)
        rows = gen.normal(size=(4000, 2)) * np.array([1e6, 1e-6])
        acc = StreamingSum(2)
        acc.add(rows)
        expected = np.array([math.fsum(rows[:, 0]), math.fsum(rows[:, 1])])
        assert np.array_equal(acc.value(), expected)

    def test_order_invariance_is_bitwise(self):
        gen = np.random.default_rng(4)
        rows = gen.normal(size=(3000, 3)) * 1e8
        forward = StreamingSum(3)
        forward.add(rows)
        permuted = StreamingSum(3)
        for chunk in np.array_split(rows[gen.permutation(3000)], 11):
            permuted.add(chunk)
        assert np.array_equal(forward.value(), permuted.value())

    def test_catastrophic_cancellation_survives(self):
        acc = StreamingSum(1)
        acc.add(np.array([[1e16], [1.0], [-1e16], [2.0]]))
        assert acc.value()[0] == 3.0

    def test_merge_equals_sequential(self):
        gen = np.random.default_rng(5)
        rows = gen.normal(size=(1000, 2))
        whole = StreamingSum(2)
        whole.add(rows)
        left, right = StreamingSum(2), StreamingSum(2)
        left.add(rows[:400])
        right.add(rows[400:])
        left.merge(right)
        assert np.array_equal(whole.value(), left.value())
        assert left.rows == 1000
        with pytest.raises(DimensionError):
            left.merge(StreamingSum(3))

    def test_state_dict_round_trip(self):
        gen = np.random.default_rng(6)
        acc = StreamingSum(2)
        acc.add(gen.normal(size=(500, 2)) * 1e12)
        restored = StreamingSum.from_state_dict(
            json.loads(json.dumps(acc.state_dict()))
        )
        assert np.array_equal(acc.value(), restored.value())
        assert restored.rows == acc.rows

    def test_state_dict_validation(self):
        acc = StreamingSum(2)
        with pytest.raises(WireFormatError):
            StreamingSum.from_state_dict({"kind": "wrong"})
        state = acc.state_dict()
        state["sums"] = [0]  # width mismatch
        with pytest.raises(WireFormatError):
            StreamingSum.from_state_dict(state)

    def test_non_finite_rejected(self):
        acc = StreamingSum(1)
        with pytest.raises(Exception):
            acc.add(np.array([[np.nan]]))

    def test_list_backed_olh_payload_is_canonicalized(self):
        """check_payload must return arrays even for list-backed reports."""
        from repro.freq_oracles.olh import OlhReports
        from repro.mechanisms import get_protocol

        collector = get_protocol("olh").bind(
            CategoricalAttribute("c", n_categories=4), 1.0
        )
        raw = OlhReports(seeds=[[1, 2], [3, 4]], buckets=[0, 1])
        canonical = collector.check_payload(raw)
        assert collector.payload_rows(canonical) == 2
        state = collector.new_state()
        collector.fold(state, canonical)
        assert collector.reports(state) == 2
