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
import pathlib
from typing import Dict, Iterable, Optional, Union

from ..exceptions import DimensionError
from ..telemetry import MetricsRegistry
from ..wire.codec import decode_batch
from ..wire.contract import CollectionContract
from .client import ProtocolSpec, ReportBatch
from .schema import Schema
from .server import LDPServer, Postprocessor, SessionEstimate


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

    def merged(self) -> LDPServer:
        """Fold all shard states into one fresh server (shard order).

        The shards themselves are left untouched, so ingestion can keep
        flowing after a mid-round merge.
        """
        target = LDPServer(*self._constructor_args)
        for shard in self.shards:
            target.merge(shard)
        return target

    def estimate(
        self, postprocess: Optional[Postprocessor] = None
    ) -> SessionEstimate:
        """Merged calibrated estimates across all shards."""
        return self.merged().estimate(postprocess=postprocess)

    def report_counts(self) -> Dict[str, int]:
        """Reports received so far per attribute, across all shards."""
        totals: Dict[str, int] = {}
        for shard in self.shards:
            for name, count in shard.report_counts().items():
                totals[name] = totals.get(name, 0) + count
        return totals

    # --------------------------------------------------------- checkpoints

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the merged aggregation state.

        Same document format as :meth:`LDPServer.state_dict`, so a
        sharded snapshot restores into a single server and vice versa —
        checkpoints are topology-independent.
        """
        return self.merged().state_dict()

    def load_state_dict(self, state) -> "ShardedServer":
        """Restore a :meth:`state_dict` snapshot (contract-verified).

        The restored state is loaded into shard 0; since aggregation is
        exactly additive this is indistinguishable — bit for bit — from
        having replayed the checkpointed reports through any routing.
        All-or-nothing: existing shard state is discarded only once the
        checkpoint has restored cleanly; a failed load leaves the
        topology untouched.
        """
        restored = LDPServer(*self._constructor_args)
        restored.load_state_dict(state)
        self._install_restored(restored)
        return self

    def merge_state_dict(self, state) -> "ShardedServer":
        """Fold a snapshot *into* the topology (additive, shard 0).

        Delegates to :meth:`LDPServer.merge_state_dict` on shard 0 —
        since aggregation is exactly additive, where the snapshot lands
        is invisible in the merged estimate.
        """
        self.shards[0].merge_state_dict(state)
        return self

    def _install_restored(self, restored: LDPServer) -> None:
        for shard in self.shards[1:]:
            shard.reset()
        restored.attach_telemetry(self.telemetry)
        self.shards = (restored,) + self.shards[1:]
        self._cursor = 0

    def save_state(self, path: Union[str, pathlib.Path]) -> None:
        """Checkpoint the merged state to a JSON file (atomically).

        Delegates to :class:`~repro.storage.JsonFileStore` like
        :meth:`LDPServer.save_state` — temp file + rename, scratch file
        removed on failure.
        """
        from ..storage import JsonFileStore

        JsonFileStore(path).save(self.state_dict())

    def load_state(self, path: Union[str, pathlib.Path]) -> "ShardedServer":
        """Resume a round from a :meth:`save_state` checkpoint file."""
        restored = LDPServer(*self._constructor_args)
        restored.load_state(path)
        self._install_restored(restored)
        return self
