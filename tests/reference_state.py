"""Frozen document-level state arithmetic: the oracle for ``SessionState``.

These functions reproduce the state-document code the library shipped
before aggregation state became a value: the server's ``state_dict``
composition, ``state_dict_delta`` with its per-kind helpers (which
differenced two documents), and the additive ``merge_state_dict`` —
written here over documents, field for field, as the exact big-integer
sum its per-collector merge computed. ``SessionState.to_document``,
``delta`` and ``merged`` must agree with them byte for byte. Do not edit
these functions to follow a change of the value type: the point is that
they do not move.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.exceptions import StateDeltaError

STATE_FORMAT = "repro-ldp-server-state"
STATE_VERSION = 1


def state_dict(contract, collectors, states, users) -> Dict[str, Any]:
    """``LDPServer.state_dict`` over a server's collectors and states."""
    return {
        "format": STATE_FORMAT,
        "state_version": STATE_VERSION,
        "fingerprint": contract.fingerprint,
        "contract": contract.describe(),
        "users": users,
        "attributes": {
            name: collector.snapshot(states[name])
            for name, collector in collectors.items()
        },
    }


def merge_state_dict(state: Mapping[str, Any], other: Mapping[str, Any]) -> Dict[str, Any]:
    """The document ``merge_state_dict`` left behind: ``state + other``."""
    attributes = {}
    for name, cur in state["attributes"].items():
        add = other["attributes"][name]
        if cur["kind"] == "oracle-counts":
            attributes[name] = {
                "kind": "oracle-counts",
                "counts": [int(a) + int(b) for a, b in zip(cur["counts"], add["counts"])],
                "users": int(cur["users"]) + int(add["users"]),
            }
        else:
            sums = dict(cur["sums"])
            sums["rows"] = int(cur["sums"]["rows"]) + int(add["sums"]["rows"])
            sums["sums"] = [
                int(a) + int(b) for a, b in zip(cur["sums"]["sums"], add["sums"]["sums"])
            ]
            attributes[name] = {"kind": cur["kind"], "sums": sums}
    merged = dict(state)
    merged["users"] = int(state["users"]) + int(other["users"])
    merged["attributes"] = attributes
    return merged


def _delta_oracle(name: str, cur: Mapping, prev: Mapping) -> Dict[str, Any]:
    counts_cur = cur["counts"]
    counts_prev = prev["counts"]
    if len(counts_cur) != len(counts_prev):
        raise StateDeltaError(
            "attribute %r: count widths differ (%d vs %d)"
            % (name, len(counts_cur), len(counts_prev))
        )
    counts = [int(a) - int(b) for a, b in zip(counts_cur, counts_prev)]
    users = int(cur["users"]) - int(prev["users"])
    if users < 0 or any(count < 0 for count in counts):
        raise StateDeltaError(
            "attribute %r: the earlier snapshot is not a prefix of the "
            "newer one" % name
        )
    return {"kind": "oracle-counts", "counts": counts, "users": users}


def _delta_sums(name: str, cur: Mapping, prev: Mapping) -> Dict[str, Any]:
    sums_cur, sums_prev = cur["sums"], prev["sums"]
    for field in ("kind", "width", "scale_bits"):
        if sums_cur.get(field) != sums_prev.get(field):
            raise StateDeltaError(
                "attribute %r: accumulator %s differs (%r vs %r)"
                % (name, field, sums_cur.get(field), sums_prev.get(field))
            )
    acc_cur, acc_prev = sums_cur["sums"], sums_prev["sums"]
    if len(acc_cur) != len(acc_prev):
        raise StateDeltaError(
            "attribute %r: accumulator widths differ (%d vs %d)"
            % (name, len(acc_cur), len(acc_prev))
        )
    rows = int(sums_cur["rows"]) - int(sums_prev["rows"])
    if rows < 0:
        raise StateDeltaError(
            "attribute %r: the earlier snapshot is not a prefix of the "
            "newer one" % name
        )
    return {
        "kind": cur["kind"],
        "sums": {
            "kind": sums_cur["kind"],
            "width": sums_cur["width"],
            "rows": rows,
            "scale_bits": sums_cur["scale_bits"],
            # Column sums may legitimately go negative per column (the
            # perturbed reports are signed); only the row/user counts
            # are monotone.
            "sums": [int(a) - int(b) for a, b in zip(acc_cur, acc_prev)],
        },
    }


_DELTA_BY_KIND = {
    "oracle-counts": _delta_oracle,
    "numeric-sum": _delta_sums,
    "histogram-sum": _delta_sums,
}


def state_dict_delta(
    current: Mapping[str, Any], previous: Mapping[str, Any]
) -> Dict[str, Any]:
    """The exact accumulator growth from ``previous`` to ``current``."""
    try:
        for document in (current, previous):
            if not isinstance(document, Mapping):
                raise StateDeltaError("state snapshots must be mappings")
        for field in ("format", "state_version", "fingerprint"):
            if current.get(field) != previous.get(field):
                raise StateDeltaError(
                    "snapshot %s differs (%r vs %r): not the same round"
                    % (field, current.get(field), previous.get(field))
                )
        if not isinstance(current.get("fingerprint"), str):
            raise StateDeltaError("snapshots carry no contract fingerprint")
        users = int(current["users"]) - int(previous["users"])
        if users < 0:
            raise StateDeltaError(
                "the earlier snapshot covers more users than the newer one"
            )
        attrs_cur, attrs_prev = current["attributes"], previous["attributes"]
        if set(attrs_cur) != set(attrs_prev):
            raise StateDeltaError(
                "snapshot attribute sets differ: %s vs %s"
                % (sorted(attrs_cur), sorted(attrs_prev))
            )
        attributes: Dict[str, Any] = {}
        for name in attrs_cur:
            cur, prev = attrs_cur[name], attrs_prev[name]
            kind = cur.get("kind")
            if kind != prev.get("kind"):
                raise StateDeltaError(
                    "attribute %r changed kind (%r vs %r)"
                    % (name, kind, prev.get("kind"))
                )
            builder = _DELTA_BY_KIND.get(kind)
            if builder is None:
                raise StateDeltaError(
                    "attribute %r: no delta rule for state kind %r"
                    % (name, kind)
                )
            attributes[name] = builder(name, cur, prev)
    except (KeyError, TypeError) as exc:
        raise StateDeltaError("malformed state snapshot: %s" % exc) from None
    return {
        "format": current["format"],
        "state_version": current["state_version"],
        "fingerprint": current["fingerprint"],
        "contract": current.get("contract"),
        "users": users,
        "attributes": attributes,
    }
