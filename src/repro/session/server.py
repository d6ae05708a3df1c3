"""Collector-side of the unified collection API.

:class:`LDPServer` owns one additive aggregation state per schema
attribute and exposes the two verbs real telemetry backends need:

* :meth:`LDPServer.ingest` — fold a :class:`~repro.session.ReportBatch`
  (or several) into the state. Batches can arrive in any split: the
  states are strictly additive and float reductions are batching-
  invariant (see :mod:`repro.session.streaming`), so incremental
  ingestion is *bit-identical* to one-shot ingestion of the concatenated
  reports.
* :meth:`LDPServer.estimate` — read the calibrated estimates out of the
  current state without consuming it; call it as often as you like while
  the stream keeps flowing.

Re-calibration is a composable post-processing step: pass
``estimate(postprocess=Recalibrator(norm="l1"))`` and the server builds
each attribute group's deviation model from its protocol adapter and
re-calibrates — HDR4ME is applied jointly across the numeric attributes
(that is the high-dimensional setting of the paper) and per categorical
attribute over its frequency vector, with no recalibration state threaded
through constructors.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..exceptions import AggregationError, DimensionError
from ..framework.multivariate import MultivariateDeviationModel
from ..protocol.budget import BudgetPlan
from ..telemetry import MetricsRegistry
from ..wire.codec import decode_batch
from ..wire.contract import CollectionContract
from .client import ProtocolSpec, ReportBatch, resolve_collectors
from .schema import Schema
from .state import SessionState

#: A post-processing step: a :class:`~repro.hdr4me.Recalibrator` (anything
#: with a ``recalibrate(theta_hat, model)`` method) or a plain callable
#: ``(theta_hat, model) -> ndarray``.
Postprocessor = Union[Callable[..., Any], Any]


@dataclass(frozen=True)
class AttributeEstimate:
    """One attribute's estimate after a collection round.

    Attributes
    ----------
    name:
        Attribute name from the schema.
    kind:
        ``"numeric"`` or ``"categorical"``.
    raw:
        Calibrated estimate — length-1 vector (mean) for numeric
        attributes, length-``v`` frequency vector for categorical ones.
    enhanced:
        Post-processed (e.g. HDR4ME re-calibrated) estimate, present when
        a postprocessor was supplied to :meth:`LDPServer.estimate`.
    reports:
        Number of user reports this attribute received.
    epsilon:
        Per-attribute budget ``ε/m`` the reports were perturbed with.
    entry_means:
        Uncalibrated encoded-entry means for histogram-encoded
        categorical attributes; ``None`` otherwise.
    """

    name: str
    kind: str
    raw: np.ndarray
    enhanced: Optional[np.ndarray]
    reports: int
    epsilon: float
    entry_means: Optional[np.ndarray] = None

    @property
    def value(self) -> np.ndarray:
        """Best available estimate (enhanced when present, else raw)."""
        return self.enhanced if self.enhanced is not None else self.raw

    @property
    def scalar(self) -> float:
        """The mean as a float (numeric attributes only)."""
        if self.kind != "numeric":
            raise DimensionError(
                "attribute %r is categorical; use the frequency vector"
                % self.name
            )
        return float(self.value[0])


@dataclass(frozen=True)
class SessionEstimate:
    """Everything the server can say after (or during) a collection round.

    Attributes
    ----------
    attributes:
        Per-attribute estimates in schema order.
    users:
        Number of users ingested so far.
    plan:
        The shared budget plan.
    """

    attributes: List[AttributeEstimate]
    users: int
    plan: BudgetPlan

    def __getitem__(self, name: str) -> AttributeEstimate:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(
            "unknown attribute %r; estimates cover: %s"
            % (name, ", ".join(a.name for a in self.attributes))
        )

    def numeric_means(self, enhanced: bool = True) -> np.ndarray:
        """Vector of numeric-attribute means in schema order."""
        return np.array(
            [
                (a.value if enhanced else a.raw)[0]
                for a in self.attributes
                if a.kind == "numeric"
            ]
        )

    def frequencies(self, name: str, enhanced: bool = True) -> np.ndarray:
        """Frequency vector of a categorical attribute."""
        attr = self[name]
        if attr.kind != "categorical":
            raise DimensionError("attribute %r is numeric" % name)
        return attr.value if enhanced else attr.raw


class LDPServer:
    """Streaming collector for typed records.

    Construct it with the *same* schema, budget and protocol spec as the
    :class:`~repro.session.LDPClient` producing the reports — those three
    are the collection contract.

    Parameters
    ----------
    schema:
        The record :class:`~repro.session.Schema`.
    epsilon:
        Collective per-user privacy budget ``ε``.
    sampled_attributes:
        The ``m`` of the protocol; defaults to all attributes.
    protocols:
        Protocol spec, as for :class:`~repro.session.LDPClient`.
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
        #: Bumped on every change of the held value (see ShardedServer.state).
        self._generation = 0
        self._install(SessionState(self.collectors, self.contract))
        self.attach_telemetry(MetricsRegistry())

    def _install(self, state: SessionState) -> None:
        self._state = state
        self._generation += 1

    def attach_telemetry(self, metrics: MetricsRegistry) -> "LDPServer":
        """Instrument this server against a shared telemetry registry.

        Every server starts with a registry of its own; this moves it
        onto ``metrics``, registering batch/user fold counters, a
        wire-decode latency histogram and a decoded-bytes counter there
        (registration is idempotent, so many servers can share one
        registry). Returns ``self`` for chaining. Telemetry never alters
        aggregation.
        """
        self.telemetry = metrics
        self._m_batches_folded = metrics.counter(
            "server_batches_folded_total",
            "Report batches folded into aggregation state",
        )
        self._m_users_folded = metrics.counter(
            "server_users_folded_total",
            "Users folded into aggregation state",
        )
        self._m_decode_seconds = metrics.histogram(
            "server_decode_seconds",
            "Wire-frame decode + contract check in ingest_encoded()",
        )
        self._m_bytes_decoded = metrics.counter(
            "server_bytes_decoded_total",
            "Wire-frame bytes decoded by ingest_encoded()",
        )
        self._m_merges = metrics.counter(
            "server_merges_total",
            "Peer server states merged into this one",
        )
        return self

    # -------------------------------------------------------------- ingest

    @property
    def users(self) -> int:
        """Number of users ingested so far."""
        return self._state.users

    @property
    def state(self) -> SessionState:
        """The live aggregation state (folds change it in place)."""
        return self._state

    def report_counts(self) -> Dict[str, int]:
        """Reports received so far, per attribute name."""
        return self._state.report_counts()

    def _validate_batch(self, batch: ReportBatch) -> Tuple[int, Dict[str, Any]]:
        """Validate every payload of a batch without touching any state.

        Returns ``(users, canonical payloads by attribute name)``;
        raising here leaves the server exactly as it was.
        """
        unknown = set(batch.payloads) - set(self.collectors)
        if unknown:
            raise DimensionError(
                "batch reports unknown attributes: %s"
                % ", ".join(sorted(unknown))
            )
        blocks = (
            (name, batch.protocols.get(name), batch.counts[name], payload)
            for name, payload in batch.payloads.items()
        )
        return int(batch.users), self._validate_blocks(batch.users, blocks)

    def _validate_blocks(
        self, users: int, blocks: Iterable[Any]
    ) -> Dict[str, Any]:
        """Validate attribute blocks, one at a time; the one validation loop.

        ``blocks`` yields ``(name, protocol, count, payload)`` tuples —
        the shape :func:`repro.wire.iter_attribute_blocks` produces, so
        the gateway validates each block the moment it is parsed, without
        materializing a :class:`~repro.session.ReportBatch` first;
        :meth:`_validate_batch` feeds a batch's payloads through here too.
        Returns the canonical payload dict for :meth:`_fold_validated`;
        any raise (from parsing or validation) leaves state untouched
        because nothing is folded until every block has passed.
        """
        users = int(users)
        if users < 0:
            raise DimensionError("batch user count must be >= 0, got %d" % users)
        canonical: Dict[str, Any] = {}
        for name, declared, count, payload in blocks:
            collector = self.collectors.get(name)
            if collector is None:
                raise DimensionError(
                    "batch reports unknown attributes: %s" % name
                )
            if declared is not None and declared != collector.protocol_name:
                raise DimensionError(
                    "attribute %r: batch was produced by protocol %r "
                    "but this server aggregates with %r"
                    % (name, declared, collector.protocol_name)
                )
            count = int(count)
            canonical[name] = collector.check_payload(payload)
            rows = collector.payload_rows(canonical[name])
            if rows != count:
                raise DimensionError(
                    "attribute %r: batch declares %d reports but the "
                    "payload carries %d" % (name, count, rows)
                )
            if count > users:
                raise DimensionError(
                    "attribute %r: %d reports from a batch of %d users "
                    "(each user reports an attribute at most once)"
                    % (name, count, users)
                )
        return canonical

    def _fold_validated(self, users: int, canonical: Mapping[str, Any]) -> None:
        """Accumulate one batch's canonical payloads (validation done)."""
        self._state.fold(users, canonical)
        self._generation += 1
        self._m_batches_folded.inc()
        self._m_users_folded.inc(users)

    def ingest(
        self, reports: Union[ReportBatch, Iterable[ReportBatch]]
    ) -> "LDPServer":
        """Fold one batch — or an iterable of batches — into the state.

        Ingestion is atomic per call: every payload of every batch is
        validated (protocol name, shape, value domain, report counts)
        *before* anything is accumulated, so a malformed attribute can
        never leave earlier attributes' state partially updated.

        Returns ``self`` so streaming loops can chain
        ``server.ingest(batch).estimate()``.
        """
        batches = [reports] if isinstance(reports, ReportBatch) else list(reports)
        validated: List[Tuple[int, Dict[str, Any]]] = [
            self._validate_batch(batch) for batch in batches
        ]
        for users, canonical in validated:
            self._fold_validated(users, canonical)
        return self

    def ingest_encoded(self, data: bytes) -> "LDPServer":
        """Decode one wire frame and fold it into the state.

        The frame's embedded contract fingerprint must match this
        server's :attr:`contract`; mismatches raise
        :class:`~repro.exceptions.ContractMismatchError` and malformed
        bytes raise :class:`~repro.exceptions.WireFormatError`, in both
        cases before any state is touched.
        """
        started = self.telemetry.clock()
        batch = decode_batch(data, contract=self.contract)
        self._m_decode_seconds.observe(self.telemetry.clock() - started)
        self._m_bytes_decoded.inc(len(data))
        return self.ingest(batch)

    def merge(self, other: "LDPServer") -> "LDPServer":
        """Fold another server's accumulated state into this one.

        Both servers must share the collection contract (schema, budget
        and per-attribute protocols). The merge is exact: estimates after
        merging are bit-identical to having ingested the other server's
        batches directly, in any order — which is what makes
        shard-parallel ingestion reproducible.
        """
        if not isinstance(other, LDPServer):
            raise DimensionError(
                "can only merge another LDPServer, got %s" % type(other).__name__
            )
        self._install(self._state.merged(other._state))
        self._m_merges.inc()
        return self

    def reset(self) -> None:
        """Discard all accumulated reports (start a new round)."""
        self._install(SessionState(self.collectors, self.contract))

    # --------------------------------------------------------- checkpoints

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the full aggregation state.

        The document embeds the contract fingerprint (and its readable
        description); :meth:`load_state_dict` refuses snapshots produced
        under a different contract.
        """
        return self._state.to_document()

    def load_state_dict(self, state: Mapping[str, Any]) -> "LDPServer":
        """Replace this server's state with a :meth:`state_dict` snapshot.

        All-or-nothing: the current state is swapped out only after the
        whole snapshot restored cleanly.
        """
        self._install(
            SessionState.from_document(state, self.collectors, self.contract)
        )
        return self

    def save_state(self, path: Union[str, pathlib.Path]) -> None:
        """Checkpoint the aggregation state to a JSON file.

        Delegates to :class:`~repro.storage.JsonFileStore`, whose write
        is atomic (temp file + rename in the same directory): a crash
        mid-checkpoint can never destroy the previous good checkpoint,
        and a failed write removes its scratch file instead of leaving a
        stale partial ``.tmp`` beside the target.
        """
        from ..storage import JsonFileStore

        JsonFileStore(path).save(self.state_dict())

    def load_state(self, path: Union[str, pathlib.Path]) -> "LDPServer":
        """Resume from a :meth:`save_state` checkpoint (exactly).

        A restored server continues the round with estimates
        bit-identical to one that never restarted. A damaged file raises
        :class:`~repro.exceptions.CheckpointCorruptError` (a
        :class:`WireFormatError`); a missing one raises
        :class:`~repro.exceptions.StorageError`.
        """
        from ..storage import JsonFileStore

        return self.load_state_dict(JsonFileStore(path).load_required())

    # ------------------------------------------------------------ estimate

    def estimate(self, postprocess: Optional[Postprocessor] = None) -> SessionEstimate:
        """Calibrated estimates from the current state (non-destructive).

        Parameters
        ----------
        postprocess:
            Optional re-calibration step — typically a
            :class:`~repro.hdr4me.Recalibrator`. Applied jointly over the
            numeric attributes (one high-dimensional mean vector) and per
            categorical attribute (its frequency vector), each with the
            deviation model supplied by the attribute's protocol adapter.

        Raises
        ------
        AggregationError
            If any attribute has received no reports yet.
        """
        if self._state.users == 0:
            raise AggregationError("no reports ingested yet")
        raws: Dict[str, np.ndarray] = {}
        states = self._state.states
        for name, collector in self.collectors.items():
            raws[name] = collector.estimate(states[name])

        enhanced: Dict[str, Optional[np.ndarray]] = {n: None for n in raws}
        if postprocess is not None:
            enhanced.update(self._postprocess(postprocess, raws))

        epsilon = self.plan.epsilon_per_dimension
        attributes = []
        for attr in self.schema:
            collector = self.collectors[attr.name]
            state = states[attr.name]
            attributes.append(
                AttributeEstimate(
                    name=attr.name,
                    kind=attr.kind,
                    raw=raws[attr.name],
                    enhanced=enhanced[attr.name],
                    reports=collector.reports(state),
                    epsilon=epsilon,
                    entry_means=collector.entry_means(state),
                )
            )
        return SessionEstimate(
            attributes=attributes, users=self._state.users, plan=self.plan
        )

    # -------------------------------------------------------------- helpers

    def deviation_model(self, name: str) -> MultivariateDeviationModel:
        """The deviation model of one attribute's current estimate."""
        return self.collectors[name].deviation_model(self._state.states[name])

    def _apply(
        self,
        postprocess: Postprocessor,
        theta_hat: np.ndarray,
        model: MultivariateDeviationModel,
    ) -> np.ndarray:
        recalibrate = getattr(postprocess, "recalibrate", None)
        if recalibrate is not None:
            result = recalibrate(theta_hat, model)
            return np.asarray(result.theta_star, dtype=np.float64)
        return np.asarray(postprocess(theta_hat, model), dtype=np.float64)

    def _postprocess(
        self, postprocess: Postprocessor, raws: Mapping[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Re-calibrate numeric attributes jointly, categorical per attribute."""
        out: Dict[str, np.ndarray] = {}
        numeric = [a for a in self.schema if a.kind == "numeric"]
        if numeric:
            theta_hat = np.array([raws[a.name][0] for a in numeric])
            joint = MultivariateDeviationModel(
                [
                    self.deviation_model(a.name).dimensions[0]
                    for a in numeric
                ]
            )
            theta_star = self._apply(postprocess, theta_hat, joint)
            for idx, attr in enumerate(numeric):
                out[attr.name] = np.array([theta_star[idx]])
        for attr in self.schema:
            if attr.kind != "categorical":
                continue
            model = self.deviation_model(attr.name)
            out[attr.name] = self._apply(postprocess, raws[attr.name], model)
        return out
