"""Tests for the columnar client: one validation per column, blocked privatize."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DomainError
from repro.mechanisms import LaplaceMechanism, get_mechanism
from repro.mechanisms.base import BLOCK_ENTRIES
from repro.mechanisms.piecewise import PiecewiseMechanism
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    MechanismProtocol,
    NumericAttribute,
    ReportBatch,
    Schema,
    StreamingSum,
    sample_attribute_mask,
)
from repro.wire.codec import decode_batch


def numeric_schema(dimensions: int) -> Schema:
    return Schema([NumericAttribute("x%d" % j) for j in range(dimensions)])


#: Every client path at once: two blocked piecewise groups split by an
#: affine (non-default domain) attribute, a histogram-encoded categorical
#: and an OUE categorical, in interleaved schema order.
MIXED = Schema(
    [
        NumericAttribute("a"),
        CategoricalAttribute("hist", n_categories=3),
        NumericAttribute("b"),
        NumericAttribute("wide", domain=(0.0, 10.0)),
        NumericAttribute("c"),
        CategoricalAttribute("oue", n_categories=5),
        NumericAttribute("d"),
    ]
)
MIXED_PROTOCOLS = {"oue": "oue"}


def mixed_records(users: int, seed: int = 0) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return np.column_stack(
        [
            gen.uniform(-1, 1, users),
            gen.integers(0, 3, users),
            gen.uniform(-1, 1, users),
            gen.uniform(0, 10, users),
            gen.uniform(-1, 1, users),
            gen.integers(0, 5, users),
            gen.uniform(-1, 1, users),
        ]
    )


class TestBlockPlan:
    def test_default_protocol_groups_every_numeric_attribute(self):
        client = LDPClient(numeric_schema(40), 1.0)
        assert client._singles == []
        assert [group.tolist() for _, group in client._blocks] == [list(range(40))]

    def test_groups_by_value_not_identity(self):
        schema = numeric_schema(4)
        protocols = {
            name: MechanismProtocol(get_mechanism("piecewise"))
            for name in schema.names
        }
        client = LDPClient(schema, 1.0, protocols=protocols)
        mechanisms = {id(c.mechanism) for c in client.collectors.values()}
        assert len(mechanisms) == 4
        assert [group.tolist() for _, group in client._blocks] == [[0, 1, 2, 3]]

    def test_different_parameters_do_not_share_a_block(self):
        schema = numeric_schema(4)
        protocols = {
            "x0": MechanismProtocol(LaplaceMechanism(sensitivity=2.0)),
            "x1": MechanismProtocol(LaplaceMechanism(sensitivity=2.0)),
            "x2": MechanismProtocol(LaplaceMechanism(sensitivity=3.0)),
            "x3": "duchi",
        }
        client = LDPClient(schema, 1.0, protocols=protocols)
        assert [group.tolist() for _, group in client._blocks] == [[0, 1]]
        assert client._singles == [2, 3]

    def test_mixed_schema_plan(self):
        client = LDPClient(MIXED, 2.0, protocols=MIXED_PROTOCOLS)
        assert [group.tolist() for _, group in client._blocks] == [[0, 2, 4, 6]]
        # affine numeric, histogram categorical and oracle stay per column
        assert client._singles == [1, 3, 5]


class TestSampling:
    @pytest.mark.parametrize("sampled", [1, 3, 7])
    def test_exactly_m_attributes_per_user_under_ragged_masks(self, sampled):
        users = 500
        client = LDPClient(MIXED, 2.0, sampled, protocols=MIXED_PROTOCOLS)
        batch = client.report_batch(mixed_records(users), rng=3)
        assert batch.total_reports == users * sampled
        for name, payload in batch.payloads.items():
            assert np.asarray(payload).shape[0] == batch.counts[name]

    def test_per_attribute_counts_match_the_sampled_mask(self):
        # The mask is the first draw of report_batch, so replaying the
        # generator reproduces it.
        users, sampled, dimensions = 2000, 13, 40
        schema = numeric_schema(dimensions)
        client = LDPClient(schema, 1.0, sampled)
        data = np.random.default_rng(1).uniform(-1, 1, (users, dimensions))
        batch = client.report_batch(data, rng=np.random.default_rng(9))
        mask = sample_attribute_mask(
            users, dimensions, sampled, np.random.default_rng(9)
        )
        expected = mask.sum(axis=0)
        for j, name in enumerate(schema.names):
            assert batch.counts.get(name, 0) == expected[j]
            if expected[j]:
                assert batch.payloads[name].shape == (expected[j],)

    def test_blocked_payloads_follow_each_column(self):
        # At ε = 40 per attribute piecewise reports land within 1e-8 of
        # the input, so each sliced payload must track its own column's
        # contributors, in row order.
        users, dimensions = 3000, 30
        schema = numeric_schema(dimensions)
        data = np.random.default_rng(2).uniform(-1, 1, (users, dimensions))
        data += np.linspace(-0.5, 0.5, dimensions)
        data = np.clip(data, -1, 1)
        client = LDPClient(schema, 40.0 * 7, sampled_attributes=7)
        batch = client.report_batch(data, rng=np.random.default_rng(4))
        mask = sample_attribute_mask(
            users, dimensions, 7, np.random.default_rng(4)
        )
        for j, name in enumerate(schema.names):
            np.testing.assert_allclose(
                batch.payloads[name], data[mask[:, j], j], atol=1e-2
            )

    def test_blocks_span_several_perturb_calls(self, monkeypatch):
        calls = []
        original = PiecewiseMechanism.perturb

        def counting(self, values, epsilon, rng=None):
            calls.append(np.asarray(values).size)
            return original(self, values, epsilon, rng)

        monkeypatch.setattr(PiecewiseMechanism, "perturb", counting)
        users, dimensions = 1000, 200
        client = LDPClient(numeric_schema(dimensions), 1.0)
        client.report_batch(np.zeros((users, dimensions)), rng=0)
        assert sum(calls) == users * dimensions
        assert 1 < len(calls) < dimensions
        assert max(calls) <= BLOCK_ENTRIES


class TestPayloadOrder:
    def test_payload_order_is_schema_order(self):
        client = LDPClient(MIXED, 2.0, protocols=MIXED_PROTOCOLS)
        batch = client.report_batch(mixed_records(300), rng=5)
        assert list(batch.payloads) == MIXED.names
        assert list(batch.counts) == MIXED.names
        assert list(batch.protocols) == MIXED.names

    def test_sampled_payload_order_is_schema_order(self):
        client = LDPClient(MIXED, 2.0, 2, protocols=MIXED_PROTOCOLS)
        batch = client.report_batch(mixed_records(50), rng=6)
        order = [MIXED.names.index(name) for name in batch.payloads]
        assert order == sorted(order)

    def test_encoded_frames_round_trip(self):
        client = LDPClient(MIXED, 2.0, 3, protocols=MIXED_PROTOCOLS)
        batch = client.report_batch(mixed_records(400), rng=7)
        decoded = decode_batch(client.encode(batch), client.contract)
        assert decoded.users == batch.users
        assert list(decoded.payloads) == list(batch.payloads)
        assert dict(decoded.counts) == dict(batch.counts)
        for name, payload in batch.payloads.items():
            np.testing.assert_array_equal(
                np.asarray(decoded.payloads[name]), np.asarray(payload)
            )

    def test_mixed_schema_end_to_end(self):
        client = LDPClient(MIXED, 4.0, protocols=MIXED_PROTOCOLS)
        server = LDPServer(MIXED, 4.0, protocols=MIXED_PROTOCOLS)
        records = mixed_records(20000, seed=8)
        gen = np.random.default_rng(10)
        batches = [client.report_batch(chunk, gen) for chunk in np.array_split(records, 4)]
        for batch in batches:
            server.ingest_encoded(client.encode(batch))
        one_shot = LDPServer(MIXED, 4.0, protocols=MIXED_PROTOCOLS)
        one_shot.ingest(ReportBatch.concat(batches, one_shot.collectors))
        estimate, reference = server.estimate(), one_shot.estimate()
        for name in MIXED.names:
            np.testing.assert_array_equal(estimate[name].raw, reference[name].raw)
        # Loose sanity on every path: means near the truth, frequencies
        # near the empirical ones.
        for j, name in enumerate(MIXED.names):
            if MIXED[name].kind == "numeric":
                scale = MIXED[name].domain[1] - MIXED[name].domain[0]
                assert abs(estimate[name].raw[0] - records[:, j].mean()) < 0.15 * scale
            else:
                v = MIXED[name].n_categories
                truth = np.bincount(records[:, j].astype(int), minlength=v) / len(records)
                assert np.max(np.abs(estimate[name].raw - truth)) < 0.15


class TestValidateOnce:
    def test_first_bad_column_is_named(self):
        records = mixed_records(20)
        records[3, 4] = 5.0  # "c", out of [-1, 1]
        records[7, 6] = np.nan  # "d", later in schema order
        with pytest.raises(DomainError, match="attribute 'c'"):
            MIXED.validate_matrix(records)

    def test_categorical_before_numeric_is_named_first(self):
        records = mixed_records(20)
        records[0, 1] = 7  # "hist" label out of range
        records[1, 2] = -3.0  # "b", later
        with pytest.raises(DomainError, match="attribute 'hist'"):
            MIXED.validate_matrix(records)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_message_matches_validate_column(self, bad):
        records = mixed_records(10)
        records[4, 3] = bad
        with pytest.raises(DomainError) as matrix_error:
            MIXED.validate_matrix(records)
        with pytest.raises(DomainError) as column_error:
            MIXED["wide"].validate_column(records[:, 3])
        assert str(matrix_error.value) == str(column_error.value)
        assert "finite" in str(matrix_error.value)

    def test_matches_column_by_column_validation(self):
        records = mixed_records(100)
        records[:, 0] = np.linspace(-1 - 5e-10, 1 + 5e-10, 100)  # round-off
        validated = MIXED.validate_matrix(records)
        for j, attr in enumerate(MIXED):
            np.testing.assert_array_equal(
                validated[:, j], attr.validate_column(records[:, j])
            )

    def test_many_blocks_match_column_by_column(self):
        schema = numeric_schema(300)
        data = np.random.default_rng(0).uniform(-1, 1, (1000, 300))
        validated = schema.validate_matrix(data)
        np.testing.assert_array_equal(validated, data)
        data[999, 299] = 2.0
        with pytest.raises(DomainError, match="attribute 'x299'"):
            schema.validate_matrix(data)

    def test_empty_matrix(self):
        assert MIXED.validate_matrix(np.empty((0, 7))).shape == (0, 7)

    def _count_validate_column(self, monkeypatch):
        counts = {"numeric": 0, "categorical": 0}
        for cls in (NumericAttribute, CategoricalAttribute):
            original = cls.validate_column

            def spy(self, column, *args, _original=original, **kwargs):
                counts[self.kind] += 1
                return _original(self, column, *args, **kwargs)

            monkeypatch.setattr(cls, "validate_column", spy)
        return counts

    def test_no_validate_column_on_all_numeric_batches(self, monkeypatch):
        counts = self._count_validate_column(monkeypatch)
        client = LDPClient(numeric_schema(25), 1.0, sampled_attributes=5)
        client.report_batch(np.zeros((200, 25)), rng=0)
        assert counts == {"numeric": 0, "categorical": 0}

    def test_one_validate_column_per_categorical_column(self, monkeypatch):
        counts = self._count_validate_column(monkeypatch)
        client = LDPClient(MIXED, 2.0, protocols=MIXED_PROTOCOLS)
        client.report_batch(mixed_records(100), rng=0)
        assert counts == {"numeric": 0, "categorical": 2}


class TestOneCopyPerEntry:
    """The client copies an entry once: into the buffer perturb works in."""

    def test_in_domain_records_are_not_copied(self):
        data = np.random.default_rng(0).uniform(-1, 1, (300, 40))
        assert np.shares_memory(numeric_schema(40).validate_matrix(data), data)
        fortran = np.asfortranarray(data)
        assert np.shares_memory(
            numeric_schema(40).validate_matrix(fortran), fortran
        )
        records = mixed_records(50)
        assert np.shares_memory(MIXED.validate_matrix(records), records)

    def test_round_off_is_clipped_in_a_copy(self):
        data = np.random.default_rng(1).uniform(-1, 1, (200, 6))
        data[17, 2] = 1.0 + 5e-10
        original = data.copy()
        validated = numeric_schema(6).validate_matrix(data)
        assert not np.shares_memory(validated, data)
        assert validated[17, 2] == 1.0
        np.testing.assert_array_equal(data, original)  # the caller's records
        np.testing.assert_array_equal(validated, np.clip(data, -1.0, 1.0))

    def test_reports_equal_perturb_of_the_clipped_input(self):
        # The ε-LDP domain clamp: an input at hi + 5e-10 is reported
        # exactly as if it were hi, under the same seed.
        data = np.random.default_rng(2).uniform(-1, 1, (500, 4))
        data[3, 1] = 1.0 + 5e-10
        data[9, 0] = -1.0 - 5e-10
        clipped = np.clip(data, -1.0, 1.0)
        client = LDPClient(numeric_schema(4), 2.0)
        raw = client.report_batch(data, rng=7)
        reference = client.report_batch(clipped, rng=7)
        for name in raw.payloads:
            np.testing.assert_array_equal(raw.payloads[name], reference.payloads[name])
        mechanism = PiecewiseMechanism()
        np.testing.assert_array_equal(
            mechanism.perturb(data.T, 0.5, np.random.default_rng(3)),
            mechanism.perturb(clipped.T, 0.5, np.random.default_rng(3)),
        )

    def test_perturb_copies_a_transposed_view_once(self, monkeypatch):
        seen = []
        original = PiecewiseMechanism.perturb

        def spy(self, values, epsilon, rng=None):
            seen.append(values)
            return original(self, values, epsilon, rng)

        monkeypatch.setattr(PiecewiseMechanism, "perturb", spy)
        data = np.random.default_rng(4).uniform(-1, 1, (100, 30))
        before = data.copy()
        LDPClient(numeric_schema(30), 1.0).report_batch(data, rng=0)
        assert seen and all(np.shares_memory(values, data) for values in seen)
        np.testing.assert_array_equal(data, before)

    def test_one_fold_per_batch_through_the_traced_entry_points(self, monkeypatch):
        calls = {"validate_matrix": 0, "perturb": 0, "add": 0}

        def counting(owner, attribute):
            original = getattr(owner, attribute)

            def spy(*args, **kwargs):
                calls[attribute] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attribute, spy)

        counting(Schema, "validate_matrix")
        counting(PiecewiseMechanism, "perturb")
        counting(StreamingSum, "add")
        schema = numeric_schema(25)
        client = LDPClient(schema, 1.0, sampled_attributes=5)
        server = LDPServer(schema, 1.0, sampled_attributes=5)
        data = np.random.default_rng(5).uniform(-1, 1, (400, 25))
        for chunk in np.array_split(data, 3):
            server.ingest(client.report_batch(chunk, rng=1))
        assert calls["validate_matrix"] == 3
        assert calls["perturb"] >= 3
        assert calls["add"] == 3
