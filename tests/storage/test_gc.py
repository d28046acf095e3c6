"""Tests for the background compaction GC (storage/gc.py)."""

import threading
import time

import pytest

from repro.core.server import REEDServer
from repro.crypto.hashing import fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.storage.backend import DirectoryBackend, MemoryBackend
from repro.storage.datastore import DataStore
from repro.storage.gc import CompactionDaemon, CompactionGC
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import ConfigurationError


def put(store, data):
    fp = fingerprint(data)
    store.put_chunk(fp, data)
    return fp


def fill(store, chunks=8, size=32, tag=0):
    """Store ``chunks`` unique chunks; returns (fingerprint, data) pairs."""
    out = []
    for i in range(chunks):
        data = bytes([tag, i]) * (size // 2)
        out.append((put(store, data), data))
    store.flush()
    return out


class TestConfiguration:
    def test_threshold_must_be_in_unit_interval(self):
        store = DataStore()
        with pytest.raises(ConfigurationError):
            CompactionGC(store, threshold=0.0)
        with pytest.raises(ConfigurationError):
            CompactionGC(store, threshold=1.5)

    def test_run_once_threshold_validated(self):
        gc = CompactionGC(DataStore())
        with pytest.raises(ConfigurationError):
            gc.run_once(threshold=0.0)

    def test_daemon_interval_validated(self):
        gc = CompactionGC(DataStore())
        with pytest.raises(ConfigurationError):
            CompactionDaemon(gc, interval=0.0)


class TestCandidates:
    def test_no_dead_space_no_candidates(self):
        store = DataStore(container_bytes=64)
        fill(store)
        gc = CompactionGC(store)
        assert gc.candidate_containers() == 0
        assert gc.dead_space() == (256, 0, 0.0)

    def test_open_container_never_a_candidate(self):
        store = DataStore(container_bytes=1024)
        fp = put(store, b"a" * 32)
        put(store, b"b" * 32)
        store.release_chunk(fp)  # dead bytes in the *open* container
        gc = CompactionGC(store, threshold=0.1)
        assert gc.candidate_containers() == 0
        assert gc.run_once().compacted_containers == 0

    def test_candidates_respect_threshold(self):
        store = DataStore(container_bytes=128)
        pairs = fill(store, chunks=4, size=32)  # one sealed container
        store.release_chunk(pairs[0][0])  # dead ratio 0.25
        gc = CompactionGC(store, threshold=0.5)
        assert gc.candidate_containers() == 0
        assert gc.candidate_containers(threshold=0.25) == 1
        # A one-off threshold on run_once overrides the configured one.
        assert gc.run_once(threshold=0.25).compacted_containers == 1


class TestCompaction:
    def test_reclaims_dead_bytes_and_preserves_survivors(self):
        registry = MetricsRegistry()
        store = DataStore(container_bytes=128, metrics=registry)
        pairs = fill(store, chunks=8, size=32)  # 2 sealed containers
        # Release half of each container: dead ratio 0.5 everywhere.
        for fp, _ in pairs[0:2] + pairs[4:6]:
            store.release_chunk(fp)
        survivors = pairs[2:4] + pairs[6:8]
        _live, dead_before, ratio_before = store.dead_space()
        assert ratio_before == pytest.approx(0.5)

        gc = CompactionGC(store, threshold=0.5, metrics=registry)
        report = gc.run_once()
        assert report.candidates == 2
        assert report.compacted_containers == 2
        assert report.relocated_chunks == 4
        # >= 90% of the dead bytes actually came back.
        assert report.reclaimed_bytes >= 0.9 * dead_before
        assert report.dead_ratio_after < report.dead_ratio_before
        assert store.dead_space()[2] == pytest.approx(0.0)

        # Every surviving chunk is bit-identical after relocation.
        for fp, data in survivors:
            assert store.get_chunk(fp) == data
        assert store.get_many([fp for fp, _ in survivors]) == [
            data for _, data in survivors
        ]
        # The lifetime counters advertise the work.
        assert registry.value("gc_passes_total") == 1
        assert registry.value("gc_bytes_reclaimed_total") >= 0.9 * dead_before
        assert registry.value("gc_containers_compacted_total") == 2
        assert registry.value("gc_chunks_relocated_total") == 4

    def test_backend_bytes_shrink(self):
        store = DataStore(container_bytes=128)
        pairs = fill(store, chunks=8, size=32)
        before = store.backend.total_bytes("container/")
        for fp, _ in pairs[::2]:
            store.release_chunk(fp)
        CompactionGC(store, threshold=0.5).run_once()
        store.flush()
        assert store.backend.total_bytes("container/") < before

    def test_refcounts_survive_relocation(self):
        store = DataStore(container_bytes=64)
        keeper = b"a" * 32
        put(store, keeper)
        put(store, keeper)  # refcount 2
        victim = put(store, b"b" * 32)  # seals the container
        store.flush()
        store.release_chunk(victim)
        CompactionGC(store, threshold=0.5).run_once()
        fp = fingerprint(keeper)
        assert store.refcount_many([fp]) == [2]
        store.release_chunk(fp)
        assert store.get_chunk(fp) == keeper  # one reference left

    def test_below_threshold_untouched(self):
        store = DataStore(container_bytes=128)
        pairs = fill(store, chunks=4, size=32)
        store.release_chunk(pairs[0][0])  # ratio 0.25 < 0.5
        report = CompactionGC(store, threshold=0.5).run_once()
        assert report.candidates == 0
        assert report.compacted_containers == 0
        assert store.dead_space()[1] == 32  # dead bytes remain

    def test_orphan_container_reclaimed_after_restart(self, tmp_path):
        # Chunks sealed after the last index journal write are fully dead on
        # reboot; the boot reconciliation accounts them and a GC pass
        # drops the whole container without a rewrite.
        backend = DirectoryBackend(str(tmp_path))
        store = DataStore(backend, container_bytes=256)
        fill(store, tag=1)  # flush() journals the index
        for i in range(4):
            data = bytes([9, i]) * 50
            store.put_chunk(fingerprint(data), data)
        store.containers.flush()  # sealed, but no snapshot (crash window)

        reopened = DataStore(DirectoryBackend(str(tmp_path)), container_bytes=256)
        _live, dead, _ratio = reopened.dead_space()
        assert dead == 400  # two orphaned containers, 200 B each
        report = CompactionGC(reopened, threshold=0.5).run_once()
        assert report.compacted_containers == 2
        assert report.relocated_chunks == 0  # dropped, not rewritten
        assert report.reclaimed_bytes == 400
        assert reopened.dead_space()[1] == 0
        # The snapshotted generation is intact.
        for i in range(8):
            data = bytes([1, i]) * 16
            assert reopened.get_chunk(fingerprint(data)) == data

    def test_crash_at_first_old_container_delete_keeps_survivors(self):
        # The crash point is right after compaction deletes its first old
        # container.  Deleting before the copies are sealed and their
        # relocations journaled lost every survivor of that container.
        store = DataStore(MemoryBackend(), container_bytes=128)
        pairs = fill(store, chunks=8, size=32)
        for fp, _ in pairs[::2]:
            store.release_chunk(fp)
        store.flush()
        crashed = []
        real_delete = store.containers.delete_container

        def delete_then_crash(cid):
            real_delete(cid)
            if not crashed:
                image = MemoryBackend()
                for name in store.backend.list():
                    image.put(name, store.backend.get(name))
                crashed.append(image)

        store.containers.delete_container = delete_then_crash
        assert CompactionGC(store, threshold=0.5).run_once().compacted_containers == 2
        rebooted = DataStore(crashed[0], container_bytes=128)
        for fp, data in pairs[1::2]:
            assert rebooted.get_chunk(fp) == data

    def test_compaction_survives_restart(self, tmp_path):
        backend = DirectoryBackend(str(tmp_path))
        store = DataStore(backend, container_bytes=128)
        pairs = fill(store, chunks=8, size=32)
        for fp, _ in pairs[::2]:
            store.release_chunk(fp)
        CompactionGC(store, threshold=0.5).run_once()
        # run_once flushed: the snapshot carries the new locations.
        reopened = DataStore(DirectoryBackend(str(tmp_path)), container_bytes=128)
        for fp, data in pairs[1::2]:
            assert reopened.get_chunk(fp) == data


class TestConcurrency:
    def test_downloads_stay_bit_identical_during_compaction(self):
        store = DataStore(container_bytes=256, metrics=MetricsRegistry())
        pairs = fill(store, chunks=64, size=32)
        survivors = pairs[1::2]
        survivor_fps = [fp for fp, _ in survivors]
        survivor_data = [data for _, data in survivors]
        gc = CompactionGC(store, threshold=0.05, metrics=store.metrics)

        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    if store.get_many(survivor_fps) != survivor_data:
                        errors.append("corrupt batch read")
                        return
                except Exception as exc:  # pragma: no cover
                    errors.append(repr(exc))
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            # Release garbage while readers run, compacting after each
            # wave so relocations race the in-flight batch reads.
            for fp, _ in pairs[::2]:
                store.release_chunk(fp)
                gc.run_once()
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors
        assert store.dead_space()[1] == 0
        for fp, data in survivors:
            assert store.get_chunk(fp) == data

    def test_release_racing_relocation_not_resurrected(self):
        # A chunk released between the GC's copy and its index CAS must
        # not come back from the dead: relocate_many skips the move and
        # accounts the copy as dead bytes in the new container.
        store = DataStore(container_bytes=128)
        pairs = fill(store, chunks=4, size=32)
        store.release_chunk(pairs[0][0])
        cid = store.index.lookup(pairs[1][0]).container_id

        survivors = store.index.entries_in_container(cid)
        chunks = store.containers.read_many([loc for _, loc in survivors])
        moves = []
        for (fp, old), data in zip(survivors, chunks):
            moves.append((fp, old, store.containers.append(data)))
        # The race: one survivor is fully released mid-compaction.
        store.release_chunk(pairs[1][0])
        applied = store.index.relocate_many(moves)
        assert applied == len(moves) - 1
        assert not store.has_chunk(pairs[1][0])
        # Its stranded copy is dead space a later pass can reclaim.
        new_cid = moves[0][2].container_id
        assert store.index.usage_for(new_cid).dead_bytes == 32


class TestSharded:
    def test_compacts_every_shard(self):
        stores = [
            DataStore(container_bytes=128, metrics=MetricsRegistry())
            for _ in range(3)
        ]
        sharded = ShardedStorageService([REEDServer(store) for store in stores])
        pairs = []
        for i in range(48):
            data = bytes([i, 255 - i]) * 16
            fp = fingerprint(data)
            sharded.chunk_put_many([(fp, data)])
            pairs.append((fp, data))
        sharded.flush()
        sharded.chunk_release_batch([fp for fp, _ in pairs[::2]])

        dead_before = sharded.gc_status()["dead_bytes"]
        assert dead_before > 0
        assert all(store.dead_space()[1] > 0 for store in stores)
        status = sharded.gc_run(0.1)
        assert status["containers_compacted_total"] > 0
        assert status["last_reclaimed_bytes"] >= 0.9 * dead_before
        # Every node compacted its own containers in the one fan-out.
        assert all(store.dead_space()[1] == 0 for store in stores)
        assert sharded.chunk_get_batch([fp for fp, _ in pairs[1::2]]) == [
            data for _, data in pairs[1::2]
        ]


class TestStatus:
    def test_status_snapshot(self):
        registry = MetricsRegistry()
        store = DataStore(container_bytes=128, metrics=registry)
        pairs = fill(store, chunks=8, size=32)
        for fp, _ in pairs[::2]:
            store.release_chunk(fp)
        gc = CompactionGC(store, threshold=0.5, metrics=registry)
        status = gc.status()
        assert status["threshold"] == 0.5
        assert status["live_bytes"] == 128
        assert status["dead_bytes"] == 128
        assert status["dead_space_ratio"] == pytest.approx(0.5)
        assert status["candidates"] == 2
        assert status["passes"] == 0
        gc.run_once()
        status = gc.status()
        assert status["passes"] == 1
        assert status["bytes_reclaimed_total"] >= 115
        assert status["candidates"] == 0
        assert status["last_relocated_chunks"] == 4


class TestDaemon:
    def test_background_passes_reclaim_dead_space(self):
        registry = MetricsRegistry()
        store = DataStore(container_bytes=128, metrics=registry)
        pairs = fill(store, chunks=8, size=32)
        for fp, _ in pairs[::2]:
            store.release_chunk(fp)
        gc = CompactionGC(store, threshold=0.5, metrics=registry)
        with CompactionDaemon(gc, interval=0.01) as daemon:
            deadline = time.monotonic() + 10
            while daemon.passes < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert daemon.passes >= 2
            assert daemon.last_error is None
        assert store.dead_space()[1] == 0
        for fp, data in pairs[1::2]:
            assert store.get_chunk(fp) == data

    def test_failing_pass_keeps_thread_alive(self):
        registry = MetricsRegistry()
        gc = CompactionGC(DataStore(metrics=registry), metrics=registry)
        boom = RuntimeError("pass exploded")
        calls = {"n": 0}

        def flaky(threshold=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise boom
            return real_run_once(threshold)

        real_run_once, gc.run_once = gc.run_once, flaky
        daemon = CompactionDaemon(gc, interval=0.01)
        daemon.start()
        try:
            deadline = time.monotonic() + 10
            while daemon.passes < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            daemon.stop()
        assert daemon.failed_passes == 1
        assert daemon.passes >= 1  # recovered after the failure
        assert daemon.last_error is None  # cleared by the good pass
        assert registry.value("gc_pass_failures_total") == 1

    def test_run_now_forces_a_pass(self):
        store = DataStore(container_bytes=128)
        pairs = fill(store, chunks=4, size=32)
        for fp, _ in pairs[:2]:
            store.release_chunk(fp)
        daemon = CompactionDaemon(CompactionGC(store, threshold=0.5))
        report = daemon.run_now()
        assert report.compacted_containers == 1
        assert daemon.passes == 1
        assert daemon.last_report is report

    def test_stop_idempotent(self):
        daemon = CompactionDaemon(CompactionGC(DataStore()), interval=0.05)
        daemon.stop()  # never started
        daemon.start()
        daemon.start()  # second start is a no-op
        daemon.stop()
        daemon.stop()


class TestEngineOverMemoryBackend:
    def test_gc_idempotent_when_clean(self):
        store = DataStore(MemoryBackend(), container_bytes=128)
        pairs = fill(store)
        gc = CompactionGC(store, threshold=0.25)
        first = gc.run_once()
        second = gc.run_once()
        assert first.compacted_containers == 0
        assert second.compacted_containers == 0
        for fp, data in pairs:
            assert store.get_chunk(fp) == data
