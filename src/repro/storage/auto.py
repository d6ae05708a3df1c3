"""Periodic auto-checkpointing for in-process collection.

:class:`AutoCheckpointer` wraps any server exposing the session state
protocol (``ingest`` / ``ingest_encoded`` / ``state_dict`` /
``load_state_dict`` — both :class:`~repro.session.LDPServer` and
:class:`~repro.session.ShardedServer` qualify) and persists a
:meth:`state_dict` snapshot into a :class:`~repro.storage.CheckpointStore`
every N ingested frames and/or every T seconds. Because the snapshot is
exact (big-integer accumulators, no floats), resuming from *any* of the
periodic checkpoints and re-folding the remaining frames yields estimates
bit-identical to a run that never stopped.

The socket gateway has its own checkpoint path (it must also persist
per-sender watermarks — see :mod:`repro.storage.checkpoint`); this class
is for batch/streaming collection in one process, e.g. the ``collection``
CLI's ``--stream`` mode.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from ..exceptions import StorageError, positive_count, positive_seconds
from ..telemetry import MetricsRegistry, counted, emit, event_logger
from .base import CheckpointStore

_LOG = event_logger("auto_checkpointer")


class AutoCheckpointer:
    """Checkpoint a server's state every N frames and/or T seconds.

    Parameters
    ----------
    server:
        The object to snapshot; must expose ``ingest``,
        ``ingest_encoded``, ``state_dict`` and ``load_state_dict``.
    store:
        Where snapshots go.
    every_frames:
        Checkpoint after this many ingested frames (``>= 1``).
    every_seconds:
        Checkpoint when this much time passed since the last one
        (``> 0``), evaluated after each ingest.
    clock:
        Monotonic time source (injectable for tests).
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry` (one is
        created when omitted) counting and timing checkpoint cuts; the
        store is attached to it too.

    At least one trigger must be given.
    """

    def __init__(
        self,
        server: Any,
        store: CheckpointStore,
        every_frames: Optional[int] = None,
        every_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if every_frames is None and every_seconds is None:
            raise StorageError(
                "an AutoCheckpointer needs at least one trigger "
                "(every_frames and/or every_seconds)"
            )
        if every_frames is not None:
            every_frames = positive_count("every_frames", every_frames, StorageError)
        if every_seconds is not None:
            every_seconds = positive_seconds(
                "every_seconds", every_seconds, StorageError
            )
        self.server = server
        self.store = store
        self.every_frames = every_frames
        self.every_seconds = every_seconds
        self._clock = clock
        self._frames_since_checkpoint = 0
        self._last_checkpoint_at = clock()
        self.telemetry = metrics if metrics is not None else MetricsRegistry()
        self._m_checkpoints = self.telemetry.counter(
            "auto_checkpoints_written_total",
            "Snapshots persisted by the auto-checkpointer",
        )
        self._m_checkpoint_seconds = self.telemetry.histogram(
            "auto_checkpoint_seconds",
            "state_dict() + store.save() per auto-checkpoint",
        )
        store.attach_telemetry(self.telemetry)

    #: Snapshots persisted so far.
    checkpoints_written = counted("_m_checkpoints")

    # ------------------------------------------------------------- ingest

    def ingest(self, *args: Any, **kwargs: Any) -> Any:
        """Forward to the server's ``ingest``, then maybe checkpoint."""
        result = self.server.ingest(*args, **kwargs)
        self._note_frame()
        return result

    def ingest_encoded(self, *args: Any, **kwargs: Any) -> Any:
        """Forward to the server's ``ingest_encoded``, then maybe checkpoint."""
        result = self.server.ingest_encoded(*args, **kwargs)
        self._note_frame()
        return result

    def _note_frame(self) -> None:
        self._frames_since_checkpoint += 1
        if self._due():
            self.checkpoint()

    def _due(self) -> bool:
        if (
            self.every_frames is not None
            and self._frames_since_checkpoint >= self.every_frames
        ):
            return True
        if (
            self.every_seconds is not None
            and self._clock() - self._last_checkpoint_at >= self.every_seconds
        ):
            return True
        return False

    # -------------------------------------------------------- checkpoints

    def checkpoint(self) -> None:
        """Persist a snapshot now, unconditionally."""
        frames = self._frames_since_checkpoint
        started = self._clock()
        self.store.save(self.server.state_dict())
        self._frames_since_checkpoint = 0
        self._last_checkpoint_at = self._clock()
        seconds = self._last_checkpoint_at - started
        self._m_checkpoints.inc()
        self._m_checkpoint_seconds.observe(seconds)
        emit(
            _LOG,
            "checkpoint_cut",
            trigger="auto",
            frames=frames,
            seconds=round(seconds, 6),
        )

    def resume(self) -> bool:
        """Restore the newest intact checkpoint, if the store holds one.

        Returns ``True`` when a snapshot was restored into the server,
        ``False`` when the store was empty. Damage beyond what the
        backend can step past surfaces as
        :class:`~repro.exceptions.CheckpointCorruptError`.
        """
        document = self.store.recover()
        if document is None:
            return False
        self.server.load_state_dict(document)
        emit(
            _LOG,
            "recovery_replayed",
            users=getattr(self.server, "users", None),
            store=self.store.location,
        )
        return True
