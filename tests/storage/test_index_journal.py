"""Tests for the fingerprint-index journal (storage/index.py).

Covers the segment/checkpoint life cycle, the O(delta) cost of a flush,
the write-amplification bound, crash consistency under any cut of the
log (hypothesis), and what a store written before the journal boots to.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.storage.backend import MemoryBackend
from repro.storage.datastore import DataStore
from repro.storage.fsck import fsck
from repro.storage.gc import CompactionGC
from repro.storage.index import CHECKPOINT_BLOB, SEGMENT_PREFIX
from repro.util.errors import CorruptionError, StorageError


def chunk(tag: int, i: int, size: int = 64) -> tuple[bytes, bytes]:
    data = (tag.to_bytes(2, "big") + i.to_bytes(4, "big")) * (size // 6 + 1)
    data = data[:size]
    return fingerprint(data), data


def new_store(backend=None, container_bytes=256) -> DataStore:
    return DataStore(
        backend if backend is not None else MemoryBackend(),
        container_bytes=container_bytes,
        metrics=MetricsRegistry(),
    )


def segments(backend) -> list[str]:
    return list(backend.list(SEGMENT_PREFIX))


class CountingBackend(MemoryBackend):
    """Counts bytes put per blob-name prefix."""

    def __init__(self) -> None:
        super().__init__()
        self.put_bytes: dict[str, int] = {}

    def put(self, name: str, data: bytes) -> None:
        for prefix in (SEGMENT_PREFIX, CHECKPOINT_BLOB):
            if name.startswith(prefix):
                self.put_bytes[prefix] = self.put_bytes.get(prefix, 0) + len(data)
        super().put(name, data)


class TestLifecycle:
    def test_first_flush_checkpoints_then_segments_accumulate(self):
        store = new_store()
        for i in range(20):
            store.put_chunk(*chunk(0, i))
        store.flush()
        # An empty checkpoint is outgrown by the first segment at once.
        assert store.backend.exists(CHECKPOINT_BLOB)
        assert segments(store.backend) == []
        store.put_chunk(*chunk(1, 0))
        store.flush()
        assert len(segments(store.backend)) == 1
        assert store.metrics.value("index_log_segments_total") == 2
        assert store.metrics.value("index_checkpoints_total") == 1

    def test_flush_without_changes_writes_nothing(self):
        store = new_store()
        store.put_chunk(*chunk(0, 0))
        store.flush()
        written = store.metrics.value("index_log_bytes_total")
        store.flush()
        store.get_chunk(chunk(0, 0)[0])
        store.flush()
        assert store.metrics.value("index_log_bytes_total") == written

    def test_reboot_replays_every_kind_of_update(self):
        store = new_store(container_bytes=128)
        pairs = [chunk(0, i, size=32) for i in range(16)]
        for fp, data in pairs:
            store.put_chunk(fp, data)
        store.flush()  # checkpoint
        store.addref_many([(pairs[0][0], 2)])
        for fp, _ in pairs[1:12:2]:
            store.release_chunk(fp)
        store.flush()
        CompactionGC(store, threshold=0.25, metrics=store.metrics).run_once()
        store.put_chunk(*pairs[1])  # released, then stored again
        store.flush()
        assert segments(store.backend)  # the tail is replayed, not checkpointed
        rebooted = new_store(store.backend, container_bytes=128)
        assert rebooted.index.snapshot() == store.index.snapshot()
        assert rebooted.dead_space() == store.dead_space()
        for fp, data in pairs:
            if store.has_chunk(fp):
                assert rebooted.get_chunk(fp) == data


class TestFlushCost:
    def _preloaded(self, entries: int) -> DataStore:
        store = new_store(container_bytes=256)
        for i in range(entries):
            store.put_chunk(*chunk(1, i))
        store.flush()
        return store

    def test_flush_writes_the_same_bytes_whatever_the_index_size(self):
        written = []
        for entries in (1_000, 10_000):
            store = self._preloaded(entries)
            checkpoints = store.metrics.value("index_checkpoints_total")
            before = store.metrics.value("index_log_bytes_total")
            for i in range(24):
                store.put_chunk(*chunk(2, i))
            store.addref_many([(chunk(1, 7)[0], 1)])
            store.release_chunk(chunk(1, 9)[0])
            store.flush()
            assert store.metrics.value("index_checkpoints_total") == checkpoints
            written.append(store.metrics.value("index_log_bytes_total") - before)
        assert written[0] == written[1] > 0

    def test_total_index_bytes_within_twice_log_plus_final_checkpoint(self):
        backend = CountingBackend()
        store = new_store(backend, container_bytes=1024)
        live = []
        for step in range(400):
            for i in range(6):
                fp, data = chunk(3, step * 6 + i)
                store.put_chunk(fp, data)
                live.append(fp)
            if step % 3 == 0:
                store.release_chunk(live.pop(0))
            store.flush()
        log = backend.put_bytes[SEGMENT_PREFIX]
        checkpoints = backend.put_bytes[CHECKPOINT_BLOB]
        final = backend.size(CHECKPOINT_BLOB)
        assert store.metrics.value("index_checkpoints_total") > 3
        assert log + checkpoints <= 2 * (log + final)
        # A reboot replays at most one checkpoint's worth of log.
        assert sum(backend.size(name) for name in segments(backend)) <= final
        rebooted = new_store(backend, container_bytes=1024)
        assert rebooted.index.snapshot() == store.index.snapshot()


# -- crash consistency ------------------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "release", "addref", "flush", "flush", "gc"]),
        st.integers(0, 49),
    ),
    min_size=1,
    max_size=60,
)


def _target(n: int) -> tuple[bytes, bytes]:
    """Op operand ``n``: a fresh-size chunk below 25, a preloaded one above."""
    return chunk(4, n, size=8 + n) if n < 25 else chunk(10, n - 25, size=40)


def _referenced(snapshot) -> set[int]:
    return {location.container_id for location, _ in snapshot.values()}


@settings(max_examples=120, deadline=None)
@given(ops=OPS, data=st.data())
def test_reboot_after_any_cut_equals_the_acknowledged_prefix(ops, data):
    backend = MemoryBackend()
    store = new_store(backend, container_bytes=96)
    # A preloaded checkpoint is large next to one flush's segment, so the
    # log grows a tail of several segments before the next checkpoint.
    for i in range(80):
        store.put_chunk(*chunk(10, i, size=40))
    store.flush()
    acked = {1: store.index.snapshot()}

    def acknowledge():
        # Segment numbers count the segments written by this store.
        seq = int(store.metrics.value("index_log_segments_total"))
        acked.setdefault(seq, store.index.snapshot())
        return seq

    for op, n in [*ops, ("flush", 0)]:
        fp, payload = _target(n)
        if op == "put":
            store.put_chunk(fp, payload)
        elif op == "release" and store.has_chunk(fp):
            store.release_chunk(fp)
        elif op == "addref" and store.has_chunk(fp):
            store.addref_many([(fp, 1 + n % 3)])
        elif op == "flush":
            store.flush()
            acknowledge()
        elif op == "gc":
            CompactionGC(store, threshold=0.25, metrics=store.metrics).run_once()
            acknowledge()
    last = acknowledge()
    final = acked[last]

    tail = segments(backend)
    kinds = ["drop"] + (["truncate", "flip"] if tail else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "drop":
        dropped = data.draw(st.integers(0, len(tail)), label="dropped")
        for name in tail[len(tail) - dropped:]:
            backend.delete(name)
        expected = last - dropped
    else:
        blob = bytearray(backend.get(tail[-1]))
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        if kind == "truncate":
            del blob[at:]
        else:
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
        backend.put(tail[-1], bytes(blob))
        expected = last - 1

    rebooted = new_store(backend, container_bytes=96)
    assert rebooted.index.snapshot() == acked[expected]

    report = fsck(rebooted, verify_hashes=False)
    assert not report.checkpoint_mismatch
    assert report.segment_gaps == []
    if kind == "drop":
        assert report.bad_segments == []
        present = {int(name.rsplit("/", 1)[1]) for name in backend.list("container/")}
        # Containers only the lost segments referenced read as orphans;
        # ones they had emptied and deleted read as missing.
        lost = _referenced(final) - _referenced(acked[expected])
        assert lost <= set(report.orphaned_containers)
        gone = (_referenced(acked[expected]) - _referenced(final)) - present
        assert gone <= set(report.missing_containers)
    else:
        assert report.bad_segments == [last]
        assert not report.clean

    # fsck's flush repaired the log: it replays to the same state and
    # checks clean as far as the journal goes.
    again = new_store(backend, container_bytes=96)
    assert again.index.snapshot() == acked[expected]
    second = fsck(again, verify_hashes=False)
    assert (second.bad_segments, second.segment_gaps) == ([], [])
    assert not second.checkpoint_mismatch


class TestDamagedLog:
    def _store_with_tail(self, backend):
        store = new_store(backend)
        for i in range(40):
            store.put_chunk(*chunk(5, i))
        store.flush()  # checkpoint
        for i in range(4):
            store.put_chunk(*chunk(6, i))
            store.flush()
        return store

    def test_segments_past_the_damage_are_never_replayed(self):
        backend = MemoryBackend()
        self._store_with_tail(backend)
        tail = segments(backend)
        assert len(tail) == 4
        blob = bytearray(backend.get(tail[1]))
        blob[-1] ^= 0xFF
        backend.put(tail[1], bytes(blob))

        rebooted = new_store(backend)
        assert rebooted.has_chunk(chunk(6, 0)[0])
        assert not any(rebooted.has_chunk(chunk(6, i)[0]) for i in (1, 2, 3))
        # New work after the reboot must not be followed by the stale
        # segments 3 and 4 of the previous run on the next reboot.
        rebooted.put_chunk(*chunk(7, 0))
        rebooted.flush()
        again = new_store(backend)
        assert again.index.snapshot() == rebooted.index.snapshot()
        assert not again.has_chunk(chunk(6, 3)[0])

    def test_damaged_checkpoint_fails_the_boot(self):
        backend = MemoryBackend()
        self._store_with_tail(backend)
        blob = bytearray(backend.get(CHECKPOINT_BLOB))
        blob[30] ^= 0x10
        backend.put(CHECKPOINT_BLOB, bytes(blob))
        with pytest.raises(CorruptionError):
            new_store(backend)

    def test_gap_stops_replay_and_is_reported(self):
        backend = MemoryBackend()
        self._store_with_tail(backend)
        tail = segments(backend)
        backend.delete(tail[2])
        rebooted = new_store(backend)
        assert rebooted.has_chunk(chunk(6, 1)[0])
        assert not rebooted.has_chunk(chunk(6, 3)[0])
        report = fsck(rebooted, verify_hashes=False)
        assert report.segment_gaps == [int(tail[2].rsplit("/", 1)[1])]
        assert not report.clean


class TestFailedWrite:
    def test_changes_of_a_failed_flush_reach_the_next_one(self):
        class FlakyBackend(MemoryBackend):
            fail_next_segment = False

            def put(self, name, data):
                if self.fail_next_segment and name.startswith(SEGMENT_PREFIX):
                    self.fail_next_segment = False
                    raise StorageError("disk full")
                super().put(name, data)

        backend = FlakyBackend()
        store = new_store(backend)
        for i in range(40):
            store.put_chunk(*chunk(11, i))
        store.flush()
        store.put_chunk(*chunk(12, 0))
        backend.fail_next_segment = True
        with pytest.raises(StorageError):
            store.flush()
        store.flush()
        assert new_store(backend).index.snapshot() == store.index.snapshot()


def pre_journal_backend() -> MemoryBackend:
    """Containers plus the whole-index snapshot blob of a store that
    predates the journal, and no checkpoint or segment."""
    store = new_store(container_bytes=128)
    for i in range(24):
        store.put_chunk(*chunk(8, i, size=32))
    store.flush()
    old = MemoryBackend()
    for name in store.backend.list("container/"):
        old.put(name, store.backend.get(name))
    old.put("meta/fingerprint-index", store.index.encode())
    return old


class TestPreJournalSnapshot:
    def test_boots_empty_and_fsck_names_its_containers(self):
        """The pre-journal blob is not read, so the store boots empty, and
        fsck names every container as orphaned rather than letting the
        data disappear silently."""
        old = pre_journal_backend()
        rebooted = new_store(old, container_bytes=128)
        assert len(rebooted.index) == 0
        report = fsck(rebooted)
        containers = sorted(
            int(name.rsplit("/", 1)[1]) for name in old.list("container/")
        )
        assert containers
        assert report.orphaned_containers == containers
        assert not report.clean

    def test_first_checkpoint_keeps_the_pre_journal_blob(self):
        """The store's first checkpoint neither reads nor deletes the
        pre-journal blob, so it stays on the backend for recovery."""
        old = pre_journal_backend()
        blob = old.get("meta/fingerprint-index")
        rebooted = new_store(old, container_bytes=128)
        rebooted.put_chunk(*chunk(9, 0, size=32))
        rebooted.flush()
        assert old.exists(CHECKPOINT_BLOB)
        assert old.get("meta/fingerprint-index") == blob
        assert len(new_store(old, container_bytes=128).index) == 1
