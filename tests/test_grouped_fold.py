"""Grouped folding: one ``StreamingSum.add`` per batch, the same exact sums.

``SessionState.fold`` stacks a batch's short width-1 sum payloads into
one zero-padded buffer and folds it with a single ``add`` call
(``streaming.fold_columns``). The reference here is what the server did
before: one ``StreamingSum.add`` per numeric attribute per batch, and
each histogram or oracle attribute through its own collector's ``fold``.
Accumulators and ``snapshot()`` documents must agree exactly.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DimensionError
from repro.session import (
    CategoricalAttribute,
    LDPServer,
    NumericAttribute,
    Schema,
    SessionState,
    StreamingSum,
)
from repro.session import streaming
from repro.session.streaming import GROUP_ENTRIES, fold_columns

TINY = np.finfo(np.float64).smallest_subnormal
HUGE = np.finfo(np.float64).max

#: The awkward corners of float64: signed zeros, subnormals and values
#: near the top of the range.
EDGE_VALUES = [
    0.0, -0.0, TINY, -TINY, 3 * TINY, np.finfo(np.float64).tiny,
    HUGE, -HUGE, np.nextafter(HUGE, 0), -np.nextafter(HUGE, 0), 1.0, -0.5,
]
FINITE = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
)

NUMERIC = 5
SCHEMA = Schema(
    [NumericAttribute("x%d" % j) for j in range(NUMERIC)]
    + [
        CategoricalAttribute("hist", n_categories=3),
        CategoricalAttribute("o", n_categories=4),
    ]
)
SPEC = {"o": "oue"}
EPSILON = 2.0


def _server() -> LDPServer:
    return LDPServer(SCHEMA, EPSILON, protocols=SPEC)


@st.composite
def batches(draw):
    """A batch of canonical payloads with ragged (``m < d``) lengths."""
    users = draw(st.integers(0, 12))
    canonical = {}
    for j in range(NUMERIC):
        if draw(st.booleans()):
            length = draw(st.integers(0, users))
            canonical["x%d" % j] = np.array(
                draw(st.lists(FINITE, min_size=length, max_size=length)),
                dtype=np.float64,
            )
    if draw(st.booleans()):
        rows = draw(st.integers(0, users))
        canonical["hist"] = np.array(
            draw(st.lists(FINITE, min_size=3 * rows, max_size=3 * rows)),
            dtype=np.float64,
        ).reshape(rows, 3)
    if draw(st.booleans()):
        rows = draw(st.integers(0, users))
        bits = draw(st.lists(st.integers(0, 1), min_size=4 * rows, max_size=4 * rows))
        canonical["o"] = np.array(bits, dtype=np.uint8).reshape(rows, 4)
    return users, canonical


def _canonical(server, canonical):
    return {
        name: server.collectors[name].check_payload(payload)
        for name, payload in canonical.items()
    }


def _per_attribute_reference(server, rounds):
    """One ``add`` per numeric attribute per batch, the rest via ``fold``."""
    states = {name: c.new_state() for name, c in server.collectors.items()}
    users = 0
    for batch_users, canonical in rounds:
        for name, payload in canonical.items():
            if name.startswith("x"):
                states[name].add(payload, assume_finite=True)
            else:
                server.collectors[name].fold(states[name], payload)
        users += batch_users
    return SessionState(server.collectors, server.contract, states, users)


def _assert_same_state(grouped, reference):
    for name, state in reference.states.items():
        other = grouped.states[name]
        if isinstance(state, StreamingSum):
            assert other._acc == state._acc, name
            assert other.rows == state.rows, name
    assert json.dumps(grouped.to_document(), sort_keys=True) == json.dumps(
        reference.to_document(), sort_keys=True
    )


@settings(max_examples=60, deadline=None)
@given(
    rounds=st.lists(batches(), min_size=1, max_size=4),
    max_block=st.sampled_from([1, 2, 5, streaming._MAX_BLOCK]),
)
def test_grouped_fold_equals_per_attribute_add(rounds, max_block):
    server = _server()
    rounds = [(users, _canonical(server, c)) for users, c in rounds]
    grouped = SessionState(server.collectors, server.contract)
    # A small _MAX_BLOCK makes one grouped add span several exact folds.
    with mock.patch.object(streaming, "_MAX_BLOCK", max_block):
        for users, canonical in rounds:
            grouped.fold(users, canonical)
    _assert_same_state(grouped, _per_attribute_reference(server, rounds))


def _count_adds(monkeypatch):
    calls = []
    original = StreamingSum.add

    def counting(self, rows, assume_finite=False):
        calls.append((self.width, np.shape(rows)))
        return original(self, rows, assume_finite)

    monkeypatch.setattr(StreamingSum, "add", counting)
    return calls


def test_short_numeric_payloads_fold_in_one_add(monkeypatch):
    server = _server()
    gen = np.random.default_rng(0)
    canonical = _canonical(
        server, {"x%d" % j: gen.uniform(-3, 3, 10 + j) for j in range(NUMERIC)}
    )
    calls = _count_adds(monkeypatch)
    SessionState(server.collectors, server.contract).fold(20, canonical)
    assert calls == [(NUMERIC, (10 + NUMERIC - 1, NUMERIC))]


def test_long_payloads_are_added_on_their_own(monkeypatch):
    server = _server()
    gen = np.random.default_rng(1)
    lengths = [GROUP_ENTRIES, 7, GROUP_ENTRIES + 3, 0, 9]
    canonical = _canonical(
        server,
        {"x%d" % j: gen.normal(0, 1e3, n) for j, n in enumerate(lengths)},
    )
    calls = _count_adds(monkeypatch)
    grouped = SessionState(server.collectors, server.contract)
    grouped.fold(GROUP_ENTRIES + 3, canonical)
    assert sorted(calls) == sorted(
        [(1, (GROUP_ENTRIES,)), (1, (GROUP_ENTRIES + 3,)), (3, (9, 3))]
    )
    _assert_same_state(
        grouped,
        _per_attribute_reference(server, [(GROUP_ENTRIES + 3, canonical)]),
    )


@pytest.mark.parametrize(
    "columns, length, widths",
    [
        (20, 1000, [8, 8, 4]),  # stacks of at most GROUP_ENTRIES entries
        (6, 5000, [1] * 6),  # two would not fit: each is added alone
        (3, 0, [3]),
    ],
)
def test_stacks_stay_within_group_entries(monkeypatch, columns, length, widths):
    calls = _count_adds(monkeypatch)
    sums = [StreamingSum(1) for _ in range(columns)]
    fold_columns(sums, [np.full(length, 0.25) for _ in range(columns)])
    assert sorted(width for width, _ in calls) == sorted(widths)
    assert all(np.prod(shape) <= GROUP_ENTRIES for _, shape in calls)
    assert [s.rows for s in sums] == [length] * columns
    assert all(s.value().tolist() == [0.25 * length] for s in sums)


def test_one_short_payload_is_not_copied(monkeypatch):
    calls = _count_adds(monkeypatch)
    target = StreamingSum(1)
    fold_columns([target], [np.array([1.5, -2.0])])
    assert calls == [(1, (2,))]
    assert target.value().tolist() == [-0.5] and target.rows == 2


def test_fold_columns_refuses_wide_accumulators():
    with pytest.raises(DimensionError):
        fold_columns([StreamingSum(2), StreamingSum(1)], [np.ones(2), np.ones(2)])
