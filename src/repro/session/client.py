"""User-side of the unified collection API.

:class:`LDPClient` perturbs whole typed records: each user samples exactly
``m`` of the schema's ``d`` attributes (the paper's Section III-B sampling
— never more, so the collective budget ``ε`` is spent exactly), perturbs
every sampled attribute with its bound protocol under the per-attribute
budget ``ε/m``, and packages the results as a :class:`ReportBatch` that
:class:`repro.session.LDPServer` can ingest incrementally.

The client is vectorized over users: :meth:`LDPClient.report_batch`
processes an ``(n, d)`` record matrix in one go, and
:meth:`LDPClient.report` is the single-record convenience on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import DimensionError
from ..mechanisms.base import BLOCK_ENTRIES
from ..protocol.budget import BudgetPlan
from ..rng import RngLike, ensure_rng
from ..wire.codec import encode_batch
from ..wire.contract import CollectionContract
from .adapters import AttributeCollector, CollectionProtocol
from .schema import Schema

#: Spec for choosing perturbation protocols: a single name/protocol for
#: every attribute, or a per-attribute-name mapping.
ProtocolSpec = Union[None, str, CollectionProtocol, Mapping[str, Union[str, CollectionProtocol]]]

#: Protocol used when none is specified (serves numeric and categorical).
DEFAULT_PROTOCOL = "piecewise"


def sample_attribute_mask(
    users: int, dimensions: int, sampled: int, gen: np.random.Generator
) -> np.ndarray:
    """Boolean ``(users, d)`` mask with exactly ``m`` True per row.

    Uniform without-replacement sampling, vectorized via argpartition of
    i.i.d. scores — every size-``m`` subset is equally likely.
    """
    if sampled == dimensions:
        return np.ones((users, dimensions), dtype=bool)
    scores = gen.random((users, dimensions))
    chosen = np.argpartition(scores, sampled - 1, axis=1)[:, :sampled]
    mask = np.zeros((users, dimensions), dtype=bool)
    mask[np.arange(users)[:, None], chosen] = True
    return mask


def resolve_collectors(
    schema: Schema, plan: BudgetPlan, protocols: ProtocolSpec = None
) -> Dict[str, AttributeCollector]:
    """Bind one :class:`AttributeCollector` per schema attribute.

    ``protocols`` may be ``None`` (use :data:`DEFAULT_PROTOCOL`
    everywhere), a single registry name or protocol object applied to all
    attributes, or a mapping from attribute name to name/protocol with
    the default filling the gaps. Client and server must be constructed
    with the same spec — it is part of the collection contract, like the
    schema and the budget plan.
    """
    from ..mechanisms.registry import get_protocol

    if plan.dimensions != schema.dimensions:
        raise DimensionError(
            "budget plan covers %d dimensions, schema has %d"
            % (plan.dimensions, schema.dimensions)
        )

    resolved: Dict[str, CollectionProtocol] = {}

    def _as_protocol(spec: Union[str, CollectionProtocol]) -> CollectionProtocol:
        # One protocol per distinct name: its stateless mechanism serves
        # every attribute that names it.
        if isinstance(spec, str):
            if spec not in resolved:
                resolved[spec] = get_protocol(spec)
            return resolved[spec]
        return spec

    per_attribute: Dict[str, Union[str, CollectionProtocol]] = {}
    if protocols is None or isinstance(protocols, (str, CollectionProtocol)):
        shared = protocols if protocols is not None else DEFAULT_PROTOCOL
        per_attribute = {name: shared for name in schema.names}
    else:
        unknown = set(protocols) - set(schema.names)
        if unknown:
            raise DimensionError(
                "protocol spec names unknown attributes: %s"
                % ", ".join(sorted(unknown))
            )
        per_attribute = {
            name: protocols.get(name, DEFAULT_PROTOCOL) for name in schema.names
        }

    epsilon = plan.epsilon_per_dimension
    collectors: Dict[str, AttributeCollector] = {}
    for attr in schema:
        protocol = _as_protocol(per_attribute[attr.name])
        collector = protocol.bind(attr, epsilon)
        collector.protocol_name = protocol.name
        collectors[attr.name] = collector
    return collectors


@dataclass(frozen=True)
class ReportBatch:
    """Perturbed submissions of a batch of users, keyed by attribute.

    Attributes
    ----------
    users:
        Number of users in the batch.
    payloads:
        Protocol-specific report payloads per attribute name; an
        attribute is present only if at least one user sampled it.
    counts:
        Number of contributing users per attribute name (aligned with
        ``payloads``).
    protocols:
        Registry name of the protocol that produced each payload. The
        server refuses payloads whose protocol disagrees with its own —
        mismatched report families can be shape-compatible (e.g. OUE bit
        matrices vs histogram-encoded entries) and would otherwise
        aggregate into silent garbage.
    """

    users: int
    payloads: Mapping[str, Any]
    counts: Mapping[str, int]
    protocols: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if set(self.payloads) != set(self.counts):
            raise DimensionError("payloads and counts disagree on attributes")

    @property
    def total_reports(self) -> int:
        """Total attribute reports in the batch (``≤ users · m``)."""
        return int(sum(self.counts.values()))

    @staticmethod
    def concat(
        batches: Sequence["ReportBatch"],
        collectors: Mapping[str, AttributeCollector],
    ) -> "ReportBatch":
        """Concatenate batches into one (for one-shot ingestion).

        Payload order follows batch order, so ingesting the result is
        equivalent — bit for bit — to ingesting the batches in sequence.
        """
        if not batches:
            raise DimensionError("need at least one batch to concatenate")
        payloads: Dict[str, Any] = {}
        counts: Dict[str, int] = {}
        protocols: Dict[str, str] = {}
        for name, collector in collectors.items():
            parts = [b.payloads[name] for b in batches if name in b.payloads]
            if not parts:
                continue
            payloads[name] = collector.concat_payloads(parts)
            counts[name] = sum(b.counts[name] for b in batches if name in b.counts)
            names = {b.protocols[name] for b in batches if name in b.protocols}
            if len(names) > 1:
                raise DimensionError(
                    "attribute %r: batches mix protocols %s"
                    % (name, ", ".join(sorted(names)))
                )
            if names:
                protocols[name] = names.pop()
        return ReportBatch(
            users=sum(b.users for b in batches),
            payloads=payloads,
            counts=counts,
            protocols=protocols,
        )


class LDPClient:
    """Local perturbation agent for typed records.

    Parameters
    ----------
    schema:
        The record :class:`~repro.session.Schema` shared with the server.
    epsilon:
        Collective per-user privacy budget ``ε``.
    sampled_attributes:
        The ``m`` of the protocol — how many attributes each user
        reports; defaults to all of them.
    protocols:
        Protocol spec (see :func:`resolve_collectors`): one registry name
        for every attribute, or a per-attribute mapping. Mechanism names
        serve both attribute kinds; oracle names (``"grr"``/``"oue"``/
        ``"olh"``) serve categorical attributes only.
    """

    def __init__(
        self,
        schema: Schema,
        epsilon: float,
        sampled_attributes: Optional[int] = None,
        protocols: ProtocolSpec = None,
    ) -> None:
        m = (
            schema.dimensions
            if sampled_attributes is None
            else int(sampled_attributes)
        )
        self.schema = schema
        self.plan = BudgetPlan(
            epsilon=epsilon, dimensions=schema.dimensions, sampled_dimensions=m
        )
        self.collectors = resolve_collectors(schema, self.plan, protocols)
        self.contract = CollectionContract.for_session(
            schema, self.plan, self.collectors
        )
        self._ordered = list(self.collectors.values())
        self._blocks, self._singles = self._plan_blocks()

    def _plan_blocks(self) -> Tuple[List[Tuple[AttributeCollector, np.ndarray]], List[int]]:
        """Group attributes whose collectors share a block key.

        Returns the groups of two or more columns (each with the
        collector that privatizes it) and the columns left on their own.
        """
        columns: Dict[Any, List[int]] = {}
        singles: List[int] = []
        for j, collector in enumerate(self._ordered):
            key = collector.block_key()
            if key is None:
                singles.append(j)
            else:
                columns.setdefault(key, []).append(j)
        blocks = []
        for group in columns.values():
            if len(group) == 1:
                singles.extend(group)
            else:
                blocks.append((self._ordered[group[0]], np.array(group, dtype=np.intp)))
        return blocks, sorted(singles)

    def report_batch(self, records: np.ndarray, rng: RngLike = None) -> ReportBatch:
        """Sample, perturb and package an ``(n, d)`` batch of records.

        Attributes sharing a block key are privatized together: their
        contributing entries are taken in blocks of about
        :data:`~repro.mechanisms.base.BLOCK_ENTRIES`, each block is
        perturbed in one call, and the result is sliced back per
        attribute. The other attributes are privatized one by one. A
        block of adjacent columns reaches ``perturb`` as a transposed
        view of the validated records, so the kernel's own working copy
        is the only copy of each entry when every attribute is sampled.
        """
        gen = ensure_rng(rng)
        matrix = self.schema.validate_matrix(records)
        users, dimensions = matrix.shape
        sampled = self.plan.sampled_dimensions
        mask = sample_attribute_mask(users, dimensions, sampled, gen)
        every = sampled == dimensions
        counts_by_column = (
            np.full(dimensions, users) if every else mask.sum(axis=0)
        )
        parts: List[Any] = [None] * dimensions
        per_block = max(1, BLOCK_ENTRIES * dimensions // max(1, users * sampled))
        for collector, group in self._blocks:
            for start in range(0, group.size, per_block):
                block = group[start : start + per_block]
                first, last = int(block[0]), int(block[-1])
                if last - first + 1 == block.size:
                    columns = slice(first, last + 1)
                    values = matrix[:, columns].T
                else:
                    columns = block
                    values = matrix.T[block]
                if not every:
                    values = values[mask[:, columns].T]
                if not values.size:
                    continue
                perturbed = collector.privatize(values, gen)
                if not every:  # one run of reports per column, back to back
                    ends = np.cumsum(counts_by_column[block][:-1])
                    perturbed = np.split(perturbed, ends)
                for j, reports in zip(block.tolist(), perturbed):
                    parts[j] = reports
        for j in self._singles:
            column = matrix[:, j] if every else matrix[mask[:, j], j]
            if column.size:
                parts[j] = self._ordered[j].privatize(column, gen)
        payloads: Dict[str, Any] = {}
        counts: Dict[str, int] = {}
        protocols: Dict[str, str] = {}
        for j in np.flatnonzero(counts_by_column).tolist():
            name = self.schema.attributes[j].name
            payloads[name] = parts[j]
            counts[name] = int(counts_by_column[j])
            protocols[name] = self._ordered[j].protocol_name
        return ReportBatch(
            users=users, payloads=payloads, counts=counts, protocols=protocols
        )

    def report(self, record: np.ndarray, rng: RngLike = None) -> ReportBatch:
        """Sample, perturb and package one user's record."""
        arr = self.schema.validate_record(record)
        return self.report_batch(arr[None, :], rng)

    def encode(self, batch: ReportBatch) -> bytes:
        """Encode a batch for the wire under this client's contract."""
        return encode_batch(batch, self.contract)

    def report_encoded(self, records: np.ndarray, rng: RngLike = None) -> bytes:
        """Sample, perturb and wire-encode an ``(n, d)`` batch of records.

        The produced frame embeds the client's contract fingerprint; a
        server constructed under the same schema/budget/protocols accepts
        it via :meth:`~repro.session.LDPServer.ingest_encoded`.
        """
        return self.encode(self.report_batch(records, rng))
