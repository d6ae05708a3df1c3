"""Frozen document-level state arithmetic: the oracle for ``SessionState``.

These functions reproduce the state-document code the library shipped
before aggregation state became a value: the server's ``state_dict``
composition and the additive ``merge_state_dict`` — written here over
documents, field for field, as the exact big-integer sum its
per-collector merge computed. ``SessionState.to_document`` and
``merged`` must agree with them byte for byte. Do not edit
these functions to follow a change of the value type: the point is that
they do not move.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

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
