"""Tests for the repro.storage subpackage (ISSUE 6 tentpole).

The store contract across both backends: ``save`` is durable and
atomic, ``load`` is strict (damage raises
:class:`~repro.exceptions.CheckpointCorruptError`, never a raw ``json``
exception), ``recover`` steps back to the newest intact checkpoint where
the backend retains history — and after any corruption scenario the
store is still readable at its previous checkpoint. Plus the URI front
door and the document codec.
"""

from __future__ import annotations

import os
import pathlib
import stat

import pytest

from repro.exceptions import (
    CheckpointCorruptError,
    StorageError,
    WireFormatError,
)
from repro.session import (
    CategoricalAttribute,
    LDPServer,
    NumericAttribute,
    Schema,
)
from repro.storage import (
    JsonFileStore,
    SegmentLogStore,
    decode_document,
    encode_document,
    open_store,
    parse_storage_uri,
)
from repro.storage.segments import RECORD_MAGIC

SCHEMA = Schema(
    [NumericAttribute("x"), CategoricalAttribute("c", n_categories=4)]
)
SPEC = {"c": "grr"}
EPSILON = 2.0


def _store_for(backend, tmp_path, **kwargs):
    if backend == "file":
        return JsonFileStore(tmp_path / "ckpt.json", **kwargs)
    return SegmentLogStore(tmp_path / "ckpt-log", **kwargs)


BACKENDS = ["file", "segments"]


class TestStoreContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_store_loads_none(self, backend, tmp_path):
        with _store_for(backend, tmp_path) as store:
            assert store.load() is None
            assert store.recover() is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_newest_document_wins(self, backend, tmp_path):
        with _store_for(backend, tmp_path) as store:
            for n in range(5):
                store.save({"round": n, "nested": {"values": [n, n + 1]}})
            assert store.load()["round"] == 4
            assert store.recover()["round"] == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_save_returns_encoded_document_length(self, backend, tmp_path):
        kwargs = {"compact_every": 2} if backend == "segments" else {}
        with _store_for(backend, tmp_path, **kwargs) as store:
            for n in range(4):  # the segment log compacts on saves 2 and 4
                document = {"round": n, "pad": "x" * (10 * n)}
                assert store.save(document) == len(encode_document(document))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_location_is_a_reopenable_uri(self, backend, tmp_path):
        with _store_for(backend, tmp_path) as store:
            store.save({"round": 7})
            uri = store.location
        with open_store(uri) as reopened:
            assert reopened.load() == {"round": 7}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unserializable_document_refused_before_touching_state(
        self, backend, tmp_path
    ):
        with _store_for(backend, tmp_path) as store:
            store.save({"round": 1})
            with pytest.raises(StorageError):
                store.save({"bad": object()})
            with pytest.raises(StorageError):
                store.save(["not", "a", "mapping"])
            # The refusal left the previous checkpoint untouched.
            assert store.load() == {"round": 1}


class TestCorruptionMatrix:
    """Satellite: garbage bytes, torn tails and schema drift per backend.

    Every scenario must (a) surface as the typed corruption error — a
    :class:`WireFormatError` subclass, so wire-layer guards keep working
    — and (b) leave the store readable at its previous checkpoint where
    the backend retains one.
    """

    def test_jsonfile_garbage_bytes(self, tmp_path):
        store = JsonFileStore(tmp_path / "ckpt.json")
        store.path.write_bytes(b"\xff\xfe not json")
        with pytest.raises(CheckpointCorruptError):
            store.load()
        # Single-document backend: no history, recover raises too.
        with pytest.raises(CheckpointCorruptError):
            store.recover()
        # Wire-layer guards keep catching storage corruption (MRO).
        assert issubclass(CheckpointCorruptError, WireFormatError)

    def test_jsonfile_scalar_document(self, tmp_path):
        store = JsonFileStore(tmp_path / "ckpt.json")
        store.path.write_text("42\n")
        with pytest.raises(CheckpointCorruptError, match="JSON int"):
            store.load()

    def test_segments_torn_tail_recovers_previous(self, tmp_path):
        store = SegmentLogStore(tmp_path / "log")
        store.save({"round": 1})
        store.save({"round": 2})
        # SIGKILL mid-append: a partial record head lands on the tail.
        with open(store.segments()[-1], "ab") as handle:
            handle.write(RECORD_MAGIC + b"\x40")
        with pytest.raises(CheckpointCorruptError, match="torn"):
            store.load()
        assert store.recover() == {"round": 2}

    def test_segments_save_after_torn_tail_is_recoverable(self, tmp_path):
        """A restarted store never appends behind a torn record, where
        its acknowledged saves could not be read back."""
        directory = tmp_path / "log"
        store = SegmentLogStore(directory)
        store.save({"round": 1})
        store.save({"round": 2})
        with open(store.segments()[-1], "ab") as handle:
            handle.write(RECORD_MAGIC + b"\x40")
        restarted = SegmentLogStore(directory)
        assert restarted.recover() == {"round": 2}
        restarted.save({"round": 3})
        assert restarted.recover() == {"round": 3}
        restarted.save({"round": 4})  # appends to the segment it opened
        assert [p.name for p in restarted.segments()] == [
            "00000001.seg", "00000002.seg"
        ]
        assert restarted.recover() == {"round": 4}
        restarted.compact()
        assert restarted.load() == {"round": 4}

    def test_segments_load_reads_the_newest_segment_first(self, tmp_path):
        """A torn record in an older segment does not hide the intact
        newest checkpoint from the strict reader."""
        directory = tmp_path / "log"
        store = SegmentLogStore(directory)
        store.save({"round": 1})
        store.save({"round": 2})
        with open(store.segments()[-1], "ab") as handle:
            handle.write(RECORD_MAGIC + b"\x40")
        restarted = SegmentLogStore(directory)
        restarted.save({"round": 3})
        assert len(restarted.segments()) == 2
        assert restarted.recover() == {"round": 3}
        assert restarted.load() == {"round": 3}
        # The damaged older segment is not even scanned, so not counted.
        shot = restarted.telemetry.snapshot()
        skips = shot["storage_corrupt_records_skipped_total"]["values"]
        assert skips.get("backend=segments", 0) == 0

    def test_segments_recover_steps_past_a_damaged_newest_segment(
        self, tmp_path
    ):
        store = SegmentLogStore(tmp_path / "log")
        store.save({"round": 1})
        damaged = store._segment_path(2)
        damaged.write_bytes(b"\x00" * 16)
        with pytest.raises(CheckpointCorruptError, match="magic"):
            store.load()
        assert store.recover() == {"round": 1}
        shot = store.telemetry.snapshot()
        skips = shot["storage_corrupt_records_skipped_total"]["values"]
        assert skips["backend=segments"] == 1

    def test_segments_restart_over_intact_log_appends(self, tmp_path):
        directory = tmp_path / "log"
        SegmentLogStore(directory).save({"round": 1})
        restarted = SegmentLogStore(directory)
        restarted.save({"round": 2})
        assert [p.name for p in restarted.segments()] == ["00000001.seg"]
        assert restarted.load() == {"round": 2}

    def test_segments_corrupt_crc_recovers_previous(self, tmp_path):
        store = SegmentLogStore(tmp_path / "log")
        store.save({"round": 1})
        store.save({"round": 2})
        path = store.segments()[-1]
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte of the newest record
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="CRC"):
            store.load()
        assert store.recover() == {"round": 1}

    def test_segments_all_records_damaged(self, tmp_path):
        store = SegmentLogStore(tmp_path / "log")
        store.save({"round": 1})
        path = store.segments()[-1]
        path.write_bytes(b"\x00" * path.stat().st_size)
        with pytest.raises(CheckpointCorruptError, match="not one is intact"):
            store.recover()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_schema_drifted_document_rejected_by_restore(
        self, backend, tmp_path
    ):
        """A well-stored but drifted document fails *typed* at restore."""
        with _store_for(backend, tmp_path) as store:
            store.save({"format": "somebody-elses-state", "state_version": 99})
            drifted = store.load()  # the store itself is fine with it
        server = LDPServer(SCHEMA, EPSILON, protocols=SPEC)
        with pytest.raises(WireFormatError):
            server.load_state_dict(drifted)


class TestSegmentLog:
    def test_segments_roll_at_size_limit(self, tmp_path):
        store = SegmentLogStore(
            tmp_path / "log", segment_max_bytes=64, compact_every=1000
        )
        for n in range(8):
            store.save({"round": n})
        assert len(store.segments()) > 1
        assert store.load() == {"round": 7}

    def test_compaction_keeps_newest_and_drops_history(self, tmp_path):
        store = SegmentLogStore(
            tmp_path / "log", segment_max_bytes=64, compact_every=1000
        )
        for n in range(10):
            store.save({"round": n})
        before = store.log_bytes()
        store.compact()
        assert len(store.segments()) == 1
        assert store.log_bytes() < before
        assert store.load() == {"round": 9}

    def test_auto_compaction_bounds_the_log(self, tmp_path):
        store = SegmentLogStore(tmp_path / "log", compact_every=4)
        for n in range(12):
            store.save({"round": n})
        # Compacted every 4 saves: never more than one compacted record
        # plus compact_every appended ones.
        assert len(store.segments()) == 1
        assert store.load() == {"round": 11}

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(StorageError):
            SegmentLogStore(tmp_path / "log", segment_max_bytes=0)
        with pytest.raises(StorageError):
            SegmentLogStore(tmp_path / "log", compact_every=0)


def _record_durability_events(monkeypatch, directory):
    """Log every ``os.fsync`` (by file name, or "dir" for ``directory``)
    and every ``Path.unlink`` (by file name), in call order."""
    events = []
    real_fsync, real_unlink = os.fsync, pathlib.Path.unlink

    def fsync(fd):
        synced = os.fstat(fd)
        if stat.S_ISDIR(synced.st_mode):
            if os.path.samestat(synced, os.stat(directory.parent)):
                events.append("fsync parent")
            else:
                assert os.path.samestat(synced, os.stat(directory))
                events.append("fsync dir")
        else:
            names = [
                path.name for path in directory.iterdir()
                if os.path.samestat(synced, os.stat(path))
            ]
            events.append("fsync %s" % names[0])
        real_fsync(fd)

    def unlink(path, *args, **kwargs):
        events.append("unlink %s" % path.name)
        real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(pathlib.Path, "unlink", unlink)
    return events


@pytest.mark.skipif(
    not hasattr(os, "O_DIRECTORY"), reason="no directory fsync on this platform"
)
class TestSegmentLogDurability:
    """``save`` is durable on return (ack ⇒ durable): a segment file it
    creates reaches the directory too, and a compaction's new segment is
    durable before any stale segment is unlinked."""

    def test_new_segment_syncs_the_directory(self, tmp_path, monkeypatch):
        directory = tmp_path / "log"
        store = SegmentLogStore(directory, segment_max_bytes=64, compact_every=1000)
        events = _record_durability_events(monkeypatch, directory)
        store.save({"round": 1})  # creates the log directory too
        assert events == ["fsync parent", "fsync 00000001.seg", "fsync dir"]
        del events[:]
        store.save({"r": 2})  # still fits: an append to an existing file
        assert events == ["fsync 00000001.seg"]
        del events[:]
        store.save({"round": 3, "pad": "x" * 64})  # rolls to a new segment
        assert events == ["fsync 00000002.seg", "fsync dir"]
        assert store.load()["round"] == 3

    def test_compaction_syncs_the_directory_before_unlinking(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "log"
        store = SegmentLogStore(directory, segment_max_bytes=64, compact_every=1000)
        for n in range(3):
            store.save({"round": n, "pad": "x" * 40})
        assert [p.name for p in store.segments()] == [
            "00000001.seg", "00000002.seg", "00000003.seg"
        ]
        events = _record_durability_events(monkeypatch, directory)
        store.compact()
        assert events == [
            "fsync 00000004.seg",
            "fsync dir",
            "unlink 00000001.seg",
            "unlink 00000002.seg",
            "unlink 00000003.seg",
        ]
        assert store.load() == {"round": 2, "pad": "x" * 40}

    def test_save_compacts_from_the_record_it_appended(
        self, tmp_path, monkeypatch
    ):
        """A save-triggered compaction reuses the payload it just wrote
        instead of re-reading and CRC-scanning the whole log."""
        directory = tmp_path / "log"
        store = SegmentLogStore(directory, compact_every=3)
        store.save({"round": 1})
        store.save({"round": 2})
        events = _record_durability_events(monkeypatch, directory)

        def no_rescan(*args, **kwargs):
            raise AssertionError("save re-read the log to compact it")

        monkeypatch.setattr(SegmentLogStore, "_scan_segment", no_rescan)
        store.save({"round": 3})
        assert events == [
            "fsync 00000001.seg",
            "fsync 00000002.seg",
            "fsync dir",
            "unlink 00000001.seg",
        ]
        monkeypatch.undo()
        assert [p.name for p in store.segments()] == ["00000002.seg"]
        assert store.load() == {"round": 3}


class TestJsonFileAtomicity:
    def test_failed_write_cleans_scratch(self, tmp_path, monkeypatch):
        import pathlib

        store = JsonFileStore(tmp_path / "ckpt.json")
        store.save({"round": 1})
        real_write = pathlib.Path.write_text

        def broken(self, text, *args, **kwargs):
            real_write(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(pathlib.Path, "write_text", broken)
        with pytest.raises(OSError, match="disk full"):
            store.save({"round": 2})
        monkeypatch.undo()
        # No scratch litter, and the previous checkpoint survived.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]
        assert store.load() == {"round": 1}

    def test_scratch_file_is_synced_before_the_rename(
        self, tmp_path, monkeypatch
    ):
        """``save`` is durable on return: the scratch file's own fd is
        fsynced before ``os.replace`` publishes it, and the directory
        holding the rename after it."""
        store = JsonFileStore(tmp_path / "ckpt.json")
        scratch = tmp_path / "ckpt.json.tmp"
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            synced = os.fstat(fd)
            if scratch.exists() and os.path.samestat(synced, os.stat(scratch)):
                events.append("fsync scratch")
            elif os.path.samestat(synced, os.stat(tmp_path)):
                events.append("fsync directory")
            real_fsync(fd)

        def replace(source, target):
            events.append("replace")
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store.save({"round": 1})
        expected = ["fsync scratch", "replace"]
        if hasattr(os, "O_DIRECTORY"):
            expected.append("fsync directory")
        assert events == expected
        assert store.load() == {"round": 1}

    def test_load_required_raises_on_missing(self, tmp_path):
        with pytest.raises(StorageError, match="no checkpoint"):
            JsonFileStore(tmp_path / "absent.json").load_required()


class TestUri:
    def test_bare_path_means_json_file(self, tmp_path):
        scheme, path = parse_storage_uri(str(tmp_path / "state.json"))
        assert scheme == "file"
        store = open_store(str(tmp_path / "state.json"))
        assert isinstance(store, JsonFileStore)

    @pytest.mark.parametrize(
        "scheme,cls",
        [("file", JsonFileStore), ("segments", SegmentLogStore)],
    )
    def test_schemes_resolve(self, scheme, cls, tmp_path):
        store = open_store("%s://%s" % (scheme, tmp_path / "target"))
        assert isinstance(store, cls)
        assert store.scheme == scheme

    def test_unknown_scheme_lists_known_ones(self, tmp_path):
        for uri in ("redis://somewhere", "sqlite://%s" % (tmp_path / "round.db")):
            with pytest.raises(StorageError, match=r"\(known: file, segments\)"):
                open_store(uri)

    def test_empty_inputs_rejected(self):
        with pytest.raises(StorageError):
            parse_storage_uri("")
        with pytest.raises(StorageError):
            parse_storage_uri("file://")


class TestDocumentCodec:
    def test_canonical_encoding_round_trips(self):
        blob = encode_document({"b": 2, "a": [1, {"z": None}]})
        assert blob == encode_document({"a": [1, {"z": None}], "b": 2})
        assert decode_document(blob, "test") == {"a": [1, {"z": None}], "b": 2}

    def test_decode_rejects_garbage_and_non_objects(self):
        with pytest.raises(CheckpointCorruptError):
            decode_document(b"\xff\xff", "test")
        with pytest.raises(CheckpointCorruptError):
            decode_document(b"[1, 2]", "test")
