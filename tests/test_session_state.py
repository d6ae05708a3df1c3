"""``SessionState``: the aggregation state as a value, against a frozen oracle.

``reference_state`` keeps the document-level arithmetic the library
used before state became a value: the ``state_dict`` composition,
``state_dict_delta`` and the additive document merge. Over a mixed
schema (Piecewise and Duchi numeric, histogram, GRR, OUE and OLH
categorical), random batch splits and random shard counts, the value's
documents, deltas and merges must match it byte for byte, and merged
values must estimate to the same ``float.hex`` bits.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_state
from repro.exceptions import AggregationError, ContractMismatchError, StateDeltaError
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Schema,
    SessionState,
    ShardedServer,
)

SCHEMA = Schema(
    [
        NumericAttribute("pw"),
        NumericAttribute("du"),
        CategoricalAttribute("hist", n_categories=4),
        CategoricalAttribute("g", n_categories=5),
        CategoricalAttribute("o", n_categories=3),
        CategoricalAttribute("l", n_categories=6),
    ]
)
SPEC = {
    "pw": "piecewise",
    "du": "duchi",
    "hist": "piecewise",
    "g": "grr",
    "o": "oue",
    "l": "olh",
}
EPSILON = 2.0
SAMPLED = 3


def _batches(seed, users, cuts):
    gen = np.random.default_rng(seed)
    records = np.column_stack(
        [
            gen.uniform(-1, 1, users),
            gen.uniform(-1, 1, users),
            gen.integers(0, 4, users),
            gen.integers(0, 5, users),
            gen.integers(0, 3, users),
            gen.integers(0, 6, users),
        ]
    )
    client = LDPClient(SCHEMA, EPSILON, SAMPLED, SPEC)
    return [
        client.report_batch(chunk, gen)
        for chunk in np.split(records, sorted(cuts))
    ]


def _server(epsilon=EPSILON):
    return LDPServer(SCHEMA, epsilon, SAMPLED, SPEC)


def _reference_document(batches):
    """The parent's ``state_dict`` of a one-shot server over ``batches``."""
    server = _server().ingest(batches)
    return reference_state.state_dict(
        server.contract, server.collectors, server.state.states, server.users
    )


def _bytes(document):
    return json.dumps(document, sort_keys=True)


def _estimate_hex(value):
    """``float.hex`` of every raw estimate, or the refusal's type."""
    server = _server()
    server.load_state_dict(value.to_document())
    try:
        estimate = server.estimate()
    except AggregationError as exc:
        return type(exc).__name__
    return [
        [float(x).hex() for x in attribute.raw] for attribute in estimate.attributes
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    users=st.integers(1, 60),
    data=st.data(),
)
def test_value_matches_the_frozen_document_arithmetic(seed, users, data):
    cuts = data.draw(st.lists(st.integers(0, users), max_size=4), label="cuts")
    batches = _batches(seed, users, cuts)
    split = data.draw(st.integers(0, len(batches)), label="split")
    shards = data.draw(st.integers(1, 3), label="shards")
    server = ShardedServer(SCHEMA, EPSILON, SAMPLED, SPEC, shards=shards)
    server.ingest(batches[:split])
    base = server.state
    server.ingest(batches[split:])
    cur = server.state
    base_doc = _reference_document(batches[:split])
    cur_doc = _reference_document(batches)

    assert _bytes(base.to_document()) == _bytes(base_doc)
    assert _bytes(cur.to_document()) == _bytes(cur_doc)
    assert _bytes(server.state_dict()) == _bytes(cur_doc)

    delta = cur.delta(base)
    assert _bytes(delta.to_document()) == _bytes(
        reference_state.state_dict_delta(cur_doc, base_doc)
    )
    rebuilt = base.merged(delta)
    assert _bytes(rebuilt.to_document()) == _bytes(cur_doc)
    assert _bytes(
        reference_state.merge_state_dict(base_doc, delta.to_document())
    ) == _bytes(cur_doc)
    assert _estimate_hex(rebuilt) == _estimate_hex(cur)

    if cur.users > base.users:
        with pytest.raises(StateDeltaError):
            reference_state.state_dict_delta(base_doc, cur_doc)
        with pytest.raises(StateDeltaError):
            base.delta(cur)
    foreign = _server(epsilon=9.0)
    with pytest.raises(StateDeltaError):
        reference_state.state_dict_delta(cur_doc, foreign.state_dict())
    with pytest.raises(StateDeltaError):
        cur.delta(foreign.state)


#: SHA-256 of the parent commit's ``state_dict()`` and ``state_dict_delta``
#: JSON bytes (``sort_keys=True``) for the scenario in the test below.
PINNED_STATE_SHA256 = "c48bba2a292575bcb13c56b39f876488ff9578bd94b587b92aeb9c260d19c759"
PINNED_DELTA_SHA256 = "0d462c0fdb5be8c3d0d288374147b0f48c08b10121c0d18f5bbb72196b3cd3cc"


def test_documents_match_the_pinned_parent_bytes():
    batches = _batches(7, 200, [50, 120, 160])
    server = _server().ingest(batches[:2])
    base = server.state.merged()
    server.ingest(batches[2:])
    state = json.dumps(server.state.to_document(), sort_keys=True)
    delta = json.dumps(server.state.delta(base).to_document(), sort_keys=True)
    assert hashlib.sha256(state.encode()).hexdigest() == PINNED_STATE_SHA256
    assert hashlib.sha256(delta.encode()).hexdigest() == PINNED_DELTA_SHA256


def test_operands_are_left_untouched():
    batches = _batches(3, 40, [10, 25])
    server = _server().ingest(batches[:1])
    base = server.state.merged()
    before = _bytes(base.to_document())
    server.ingest(batches[1:])
    delta = server.state.delta(base)
    base.merged(delta, server.state)
    assert _bytes(base.to_document()) == before


def test_merged_refuses_a_foreign_contract():
    with pytest.raises(ContractMismatchError):
        _server().state.merged(_server(epsilon=9.0).state)


def test_from_document_round_trips_and_checks_the_contract():
    server = _server().ingest(_batches(5, 30, [12]))
    value = SessionState.from_document(
        server.state_dict(), server.collectors, server.contract
    )
    assert _bytes(value.to_document()) == _bytes(server.state_dict())
    foreign = _server(epsilon=9.0)
    with pytest.raises(ContractMismatchError):
        SessionState.from_document(
            server.state_dict(), foreign.collectors, foreign.contract
        )


def test_sharded_state_is_merged_once_per_fold_generation():
    """A checkpoint and a push on the same trigger share one merge."""
    batches = _batches(11, 30, [10, 20])
    server = ShardedServer(SCHEMA, EPSILON, SAMPLED, SPEC, shards=2)
    server.ingest(batches[:2])
    first = server.state
    assert server.state is first
    server.state_dict()
    assert server.state is first
    server.ingest(batches[2:])
    assert server.state is not first
    server.reset()
    assert server.state.users == 0
