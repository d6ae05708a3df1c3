"""Shard-parallel collection: fan a batch stream over worker servers.

:class:`ShardedServer` owns ``N`` independent :class:`~repro.session.
LDPServer` workers constructed under one collection contract and routes
incoming batches round-robin across them — the shape of a real ingestion
tier where frames arrive on parallel consumers. Because every aggregation
state is *exactly* additive (big-integer sums underneath the float
estimates, see :mod:`repro.session.streaming`), the merged estimate is a
pure function of the multiset of ingested reports:

* any shard count, any routing, any merge order yields estimates
  bit-identical to one-shot single-server ingestion;
* shards merge deterministically in shard order anyway, so the operation
  log of a run is reproducible;
* a checkpoint of the merged state restores into a fresh topology (even
  a different shard count) and continues the round without losing an ulp.

In-process the workers are plain objects; across machines each worker
ingests wire frames (:meth:`ShardedServer.ingest_encoded`) and ships its
state for merging — exactly what :meth:`LDPServer.merge`,
:meth:`LDPServer.save_state` and :meth:`LDPServer.load_state` provide.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, Optional, Tuple, Union

from ..exceptions import DimensionError
from ..telemetry import MetricsRegistry
from ..wire.codec import decode_batch
from ..wire.contract import CollectionContract
from .client import ProtocolSpec, ReportBatch
from .schema import Schema
from .server import LDPServer, Postprocessor, SessionEstimate
from .state import SessionState


class ShardedServer:
    """Round-robin fan-out over ``shards`` worker collectors.

    Parameters
    ----------
    schema, epsilon, sampled_attributes, protocols:
        The collection contract, exactly as for :class:`LDPServer`.
    shards:
        Number of worker servers to fan the stream over.
    """

    def __init__(
        self,
        schema: Schema,
        epsilon: float,
        sampled_attributes: Optional[int] = None,
        protocols: ProtocolSpec = None,
        shards: int = 2,
    ) -> None:
        try:
            count = operator.index(shards)
        except TypeError:
            raise DimensionError(
                "shard count must be an integer, got %r" % (shards,)
            ) from None
        if count < 1:
            raise DimensionError("need at least one shard, got %d" % count)
        self._constructor_args = (schema, epsilon, sampled_attributes, protocols)
        self.shards = tuple(
            LDPServer(schema, epsilon, sampled_attributes, protocols)
            for _ in range(count)
        )
        self._cursor = 0
        self._merged: Optional[Tuple[Tuple[int, ...], SessionState]] = None
        self.attach_telemetry(self.shards[0].telemetry)

    def attach_telemetry(self, metrics: MetricsRegistry) -> "ShardedServer":
        """Instrument every shard against one shared telemetry registry.

        The topology starts on its first shard's registry; this moves
        every shard onto ``metrics``. Shards register their instruments
        idempotently, so the fold counters aggregate across the whole
        topology. Returns ``self``.
        """
        self.telemetry = metrics
        for shard in self.shards:
            shard.attach_telemetry(metrics)
        return self

    # ------------------------------------------------------------- routing

    @property
    def n_shards(self) -> int:
        """Number of worker servers."""
        return len(self.shards)

    @property
    def contract(self) -> CollectionContract:
        """The collection contract shared by every shard."""
        return self.shards[0].contract

    @property
    def users(self) -> int:
        """Users ingested so far, across all shards."""
        return sum(shard.users for shard in self.shards)

    def ingest(
        self, reports: Union[ReportBatch, Iterable[ReportBatch]]
    ) -> "ShardedServer":
        """Route one batch — or an iterable of batches — over the shards.

        Atomic per call, like :meth:`LDPServer.ingest`: every batch is
        validated against its target shard before anything is
        accumulated anywhere, so a malformed batch mid-iterable leaves
        the whole topology untouched.
        """
        batches = (
            [reports] if isinstance(reports, ReportBatch) else list(reports)
        )
        cursor = self._cursor
        routed = []
        for batch in batches:
            shard = self.shards[cursor % self.n_shards]
            routed.append((shard,) + shard._validate_batch(batch))
            cursor += 1
        for shard, users, canonical in routed:
            shard._fold_validated(users, canonical)
        self._cursor = cursor
        return self

    def ingest_encoded(self, data: bytes) -> "ShardedServer":
        """Decode one wire frame (verifying the contract) and route it."""
        return self.ingest(decode_batch(data, contract=self.contract))

    def reset(self) -> None:
        """Discard all accumulated reports on every shard."""
        for shard in self.shards:
            shard.reset()
        self._cursor = 0

    # ------------------------------------------------------------ estimate

    @property
    def state(self) -> SessionState:
        """The merged state of every shard, as a read-only value.

        Merged in shard order at most once per fold generation: until a
        shard folds, loads or resets again, every caller (a checkpoint
        and a push on the same trigger, say) gets the same value.
        """
        key = tuple(shard._generation for shard in self.shards)
        if self._merged is None or self._merged[0] != key:
            first, *rest = (shard.state for shard in self.shards)
            self._merged = (key, first.merged(*rest))
        return self._merged[1]

    def merged(self) -> LDPServer:
        """Fold all shard states into one fresh server (shard order).

        The shards themselves are left untouched, so ingestion can keep
        flowing after a mid-round merge.
        """
        target = LDPServer(*self._constructor_args)
        target._install(self.state.merged())
        return target

    def estimate(
        self, postprocess: Optional[Postprocessor] = None
    ) -> SessionEstimate:
        """Merged calibrated estimates across all shards."""
        return self.merged().estimate(postprocess=postprocess)

    def report_counts(self) -> Dict[str, int]:
        """Reports received so far per attribute, across all shards."""
        return self.state.report_counts()

    # --------------------------------------------------------- checkpoints

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the merged aggregation state.

        Same document format as :meth:`LDPServer.state_dict`, so a
        sharded snapshot restores into a single server and vice versa —
        checkpoints are topology-independent.
        """
        return self.state.to_document()

    def load_state_dict(self, state) -> "ShardedServer":
        """Restore a :meth:`state_dict` snapshot (contract-verified).

        The restored state is loaded into shard 0; since aggregation is
        exactly additive this is indistinguishable — bit for bit — from
        having replayed the checkpointed reports through any routing.
        All-or-nothing: existing shard state is discarded only once the
        checkpoint has restored cleanly; a failed load leaves the
        topology untouched.
        """
        self.shards[0].load_state_dict(state)
        for shard in self.shards[1:]:
            shard.reset()
        self._cursor = 0
        return self

    # The JSON-file verbs only go through state_dict / load_state_dict.
    save_state = LDPServer.save_state
    load_state = LDPServer.load_state
