"""A collection round's aggregation state as a value.

The paper's collector keeps one sufficient statistic per attribute: the
exact sum of the perturbed reports and their count. :class:`SessionState`
holds it for a whole schema, with the user count and a shared reference
to the owning server's collectors and contract. The accumulators are
exact, so :meth:`~SessionState.merged` and :meth:`~SessionState.delta`
are exact too (``base.merged(cur.delta(base))`` equals ``cur`` bit for
bit), and :meth:`~SessionState.to_document` is the
:meth:`~repro.session.LDPServer.state_dict` document. Servers, shards
and the federation edge and root fold, merge and diff these values
without building a server.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from ..exceptions import StateDeltaError, WireFormatError
from ..wire.contract import CollectionContract
from .adapters import AttributeCollector

#: Identifier and version of the JSON state documents.
STATE_FORMAT = "repro-ldp-server-state"
STATE_VERSION = 1


class SessionState:
    """Per-attribute additive ``states``, their ``users``, their contract.

    Only :meth:`fold` changes a value in place; every other operation
    returns a new value and leaves its operands untouched.
    """

    __slots__ = ("collectors", "contract", "states", "users")

    def __init__(
        self,
        collectors: Mapping[str, AttributeCollector],
        contract: CollectionContract,
        states: Optional[Dict[str, Any]] = None,
        users: int = 0,
    ) -> None:
        self.collectors = collectors
        self.contract = contract
        self.states = (
            {name: collector.new_state() for name, collector in collectors.items()}
            if states is None
            else states
        )
        self.users = users

    def report_counts(self) -> Dict[str, int]:
        """Reports accumulated per attribute name."""
        return {
            name: collector.reports(self.states[name])
            for name, collector in self.collectors.items()
        }

    # ------------------------------------------------------------ arithmetic

    def fold(self, users: int, canonical: Mapping[str, Any]) -> None:
        """Accumulate one validated batch's canonical payloads in place."""
        for name, payload in canonical.items():
            self.collectors[name].fold(self.states[name], payload)
        self.users += users

    def merged(self, *others: "SessionState") -> "SessionState":
        """A new value: this state plus each of ``others``, exactly.

        Operands of another contract raise
        :class:`~repro.exceptions.ContractMismatchError`.
        """
        for other in others:
            self.contract.require_digest(
                other.contract.digest, "merged session state"
            )
        total = SessionState(self.collectors, self.contract)
        for value in (self, *others):
            for name, collector in self.collectors.items():
                collector.merge_states(total.states[name], value.states[name])
            total.users += value.users
        return total

    def delta(self, base: "SessionState") -> "SessionState":
        """A new value: the exact growth from ``base`` to this state.

        Raises :class:`~repro.exceptions.StateDeltaError` when ``base``
        has another contract or is provably not a prefix of this state
        (a user or report count went down); ship the full state then.
        """
        if base.contract.digest != self.contract.digest:
            raise StateDeltaError(
                "snapshot fingerprint differs (%r vs %r): not the same round"
                % (self.contract.fingerprint, base.contract.fingerprint)
            )
        users = self.users - base.users
        if users < 0:
            raise StateDeltaError(
                "the earlier snapshot covers more users than the newer one"
            )
        states = {
            name: collector.delta_states(self.states[name], base.states[name])
            for name, collector in self.collectors.items()
        }
        return SessionState(self.collectors, self.contract, states, users)

    # ------------------------------------------------------------- documents

    def to_document(self) -> Dict[str, Any]:
        """The JSON state document, stamped with the contract."""
        return {
            "format": STATE_FORMAT,
            "state_version": STATE_VERSION,
            "fingerprint": self.contract.fingerprint,
            "contract": self.contract.describe(),
            "users": self.users,
            "attributes": {
                name: collector.snapshot(self.states[name])
                for name, collector in self.collectors.items()
            },
        }

    @classmethod
    def from_document(
        cls,
        document: Mapping[str, Any],
        collectors: Mapping[str, AttributeCollector],
        contract: CollectionContract,
    ) -> "SessionState":
        """Validate a state document and rebuild its value.

        Damage raises :class:`~repro.exceptions.WireFormatError`, another
        contract :class:`~repro.exceptions.ContractMismatchError`.
        """
        if not isinstance(document, Mapping) or document.get("format") != STATE_FORMAT:
            raise WireFormatError(
                "not a %r document: %r" % (STATE_FORMAT, document)
            )
        if document.get("state_version") != STATE_VERSION:
            raise WireFormatError(
                "unsupported state version %r (this build speaks %d)"
                % (document.get("state_version"), STATE_VERSION)
            )
        fingerprint = document.get("fingerprint")
        try:
            digest = bytes.fromhex(fingerprint)
        except (TypeError, ValueError):
            raise WireFormatError(
                "malformed state fingerprint: %r" % (fingerprint,)
            ) from None
        contract.require_digest(digest, "saved server state")
        attributes = document.get("attributes")
        if not isinstance(attributes, Mapping) or set(attributes) != set(collectors):
            raise WireFormatError(
                "state document covers attributes %s but the contract has %s"
                % (
                    sorted(attributes) if isinstance(attributes, Mapping) else None,
                    sorted(collectors),
                )
            )
        users = document.get("users")
        if not isinstance(users, int) or isinstance(users, bool) or users < 0:
            raise WireFormatError("malformed user count: %r" % (users,))
        states = {
            name: collector.restore(attributes[name])
            for name, collector in collectors.items()
        }
        return cls(collectors, contract, states, users)
