"""Tests for the data store (dedup accounting, recipes, stubs, GC)."""

import sys
import threading

import pytest

from repro.crypto.hashing import fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.storage.backend import MemoryBackend
from repro.storage.container import _HEADER
from repro.storage.datastore import DataStore
from repro.util.errors import NotFoundError, StorageError


def put(store, data):
    return store.put_chunk(fingerprint(data), data)


class _GatedBackend(MemoryBackend):
    """Holds every read of the blob named ``gated`` until ``release``."""

    def __init__(self):
        super().__init__()
        self.gated = None
        self.entered = threading.Event()
        self.release = threading.Event()

    def get(self, name):
        if name == self.gated:
            self.entered.set()
            assert self.release.wait(10)
        return super().get(name)


class TestDeduplication:
    def test_first_put_stores(self):
        store = DataStore()
        assert put(store, b"chunk") is True
        assert store.get_chunk(fingerprint(b"chunk")) == b"chunk"

    def test_duplicate_put_dedups(self):
        store = DataStore()
        assert put(store, b"chunk") is True
        assert put(store, b"chunk") is False
        stats = store.stats
        assert stats.chunks_received == 2
        assert stats.chunks_stored == 1
        assert stats.logical_bytes == 10
        assert stats.physical_bytes == 5

    def test_savings_accounting(self):
        store = DataStore()
        for _ in range(4):
            put(store, b"x" * 100)
        assert store.stats.dedup_saving == pytest.approx(0.75)

    def test_distinct_chunks_both_stored(self):
        store = DataStore()
        put(store, b"aaa")
        put(store, b"bbb")
        assert store.stats.chunks_stored == 2

    def test_missing_chunk(self):
        with pytest.raises(NotFoundError):
            DataStore().get_chunk(b"\x00" * 32)


class TestGarbageCollection:
    def test_release_reclaims_container(self):
        store = DataStore(container_bytes=64)
        data = b"a" * 64  # fills one container exactly
        put(store, data)
        store.flush()
        store.release_chunk(fingerprint(data))
        assert store.stats.physical_bytes == 0
        with pytest.raises(NotFoundError):
            store.get_chunk(fingerprint(data))
        # Container blob itself is gone.
        assert store.backend.total_bytes("container/") == 0

    def test_release_respects_refcounts(self):
        store = DataStore()
        put(store, b"shared")
        put(store, b"shared")  # refcount 2
        store.release_chunk(fingerprint(b"shared"))
        assert store.get_chunk(fingerprint(b"shared")) == b"shared"

    def test_container_survives_while_any_chunk_live(self):
        store = DataStore(container_bytes=1024)
        put(store, b"one")
        put(store, b"two")
        store.flush()
        store.release_chunk(fingerprint(b"one"))
        assert store.get_chunk(fingerprint(b"two")) == b"two"
        store.release_chunk(fingerprint(b"two"))
        assert store.backend.total_bytes("container/") == 0


class TestRecipesAndStubs:
    def test_recipe_lifecycle(self):
        store = DataStore()
        store.put_recipe("file1", b"recipe-bytes")
        assert store.has_recipe("file1")
        assert store.get_recipe("file1") == b"recipe-bytes"
        assert store.list_recipes() == ["file1"]
        store.delete_recipe("file1")
        assert not store.has_recipe("file1")

    def test_stub_lifecycle_and_accounting(self):
        store = DataStore()
        store.put_stub_file("file1", b"s" * 100)
        assert store.stats.stub_bytes == 100
        store.put_stub_file("file1", b"s" * 40)  # rekey replaces it
        assert store.stats.stub_bytes == 40
        assert store.get_stub_file("file1") == b"s" * 40
        store.delete_stub_file("file1")
        assert store.stats.stub_bytes == 0
        with pytest.raises(NotFoundError):
            store.delete_stub_file("file1")

    def test_total_saving_counts_stub_overhead(self):
        store = DataStore()
        for _ in range(10):
            put(store, b"y" * 1000)
        store.put_stub_file("f", b"z" * 100)
        # logical 10000, physical 1000, stub 100 -> saving 0.89
        assert store.stats.total_saving == pytest.approx(0.89)


class TestBatchReads:
    def _fill(self, store, chunks=8, size=32):
        datas = [bytes([i]) * size for i in range(chunks)]
        for data in datas:
            put(store, data)
        store.flush()
        return datas

    def test_get_many_coalesces_container_fetches(self):
        registry = MetricsRegistry()
        store = DataStore(container_bytes=64, metrics=registry)
        datas = self._fill(store)  # 8 x 32 B -> 4 sealed containers
        fps = [fingerprint(data) for data in datas]
        assert store.get_many(fps) == datas
        # One cold fetch per container, not per chunk.
        assert registry.value("container_fetch_total") == 4
        assert registry.value("container_read_amplification") == pytest.approx(
            4 / 8
        )

    def test_read_amplification_counts_only_the_calls_own_fetches(self):
        backend = _GatedBackend()
        registry = MetricsRegistry()
        store = DataStore(backend, container_bytes=64, metrics=registry)
        datas = self._fill(store)  # 4 containers of 2 chunks each
        fps = [fingerprint(data) for data in datas]
        backend.gated = f"container/{store.index.lookup(fps[0]).container_id:012d}"
        restored = []
        slow = threading.Thread(target=lambda: restored.append(store.get_many(fps[:2])))
        slow.start()
        try:
            assert backend.entered.wait(10)
            # While the first call waits on its one fetch, a second call
            # fetches the other three containers.
            assert store.get_many(fps[2:]) == datas[2:]
            assert registry.value("container_read_amplification") == pytest.approx(3 / 6)
        finally:
            backend.release.set()
            slow.join(10)
        assert restored == [datas[:2]]
        assert registry.value("container_fetch_total") == 4
        assert registry.value("container_read_amplification") == pytest.approx(1 / 2)

    def test_get_many_warm_cache_zero_amplification(self):
        registry = MetricsRegistry()
        store = DataStore(container_bytes=64, metrics=registry)
        datas = self._fill(store)
        fps = [fingerprint(data) for data in datas]
        store.get_many(fps)
        assert store.get_many(fps) == datas
        assert registry.value("container_read_amplification") == 0.0

    def test_get_many_empty(self):
        assert DataStore().get_many([]) == []

    def test_get_many_missing_raises(self):
        store = DataStore()
        put(store, b"present")
        with pytest.raises(NotFoundError):
            store.get_many([fingerprint(b"present"), fingerprint(b"absent")])

    def test_compression_reported_in_stats(self):
        registry = MetricsRegistry()
        store = DataStore(container_bytes=4096, metrics=registry)
        put(store, b"abcd" * 1024)
        store.flush()
        assert registry.value("container_payload_bytes") == 4096
        # Compressible or not, the payload is stored raw behind its frame.
        assert registry.value("container_compressed_bytes") == 4096 + _HEADER.size


class TestFlushSnapshot:
    def test_put_racing_flush_is_not_snapshotted_into_an_unsealed_container(self):
        store = DataStore(container_bytes=1024)
        put(store, b"a" * 32)
        racer = b"r" * 32
        real_flush = store.containers.flush
        threads = []

        def flush_then_race():
            real_flush()
            # A concurrent upload's put lands right after the seal.  The
            # timeout lets the snapshot proceed when the put is blocked.
            thread = threading.Thread(target=put, args=(store, racer))
            thread.start()
            thread.join(timeout=0.5)
            threads.append(thread)

        store.containers.flush = flush_then_race
        store.flush()
        threads[0].join(timeout=5)
        assert not threads[0].is_alive()
        # Crash before the next flush: the racer's open container is lost
        # and the rebooted store reuses its id for different bytes.
        rebooted = DataStore(backend=store.backend, container_bytes=1024)
        other = b"o" * 32
        put(rebooted, other)
        assert not rebooted.has_chunk(fingerprint(racer))
        assert rebooted.get_chunk(fingerprint(other)) == other
        assert rebooted.get_chunk(fingerprint(b"a" * 32)) == b"a" * 32

    def test_every_snapshot_entry_is_sealed_under_concurrent_puts(self):
        store = DataStore(container_bytes=4096)
        stop = threading.Event()
        dangling = []
        errors = []
        checked = []

        def putter(worker):
            for i in range(300):
                put(store, f"{worker}:{i}".encode() * 8)

        def flusher():
            try:
                while not stop.is_set():
                    store.flush()
                    # Exactly what a reboot would load at this instant.
                    journaled = store.scan_journal().index.snapshot()
                    for location, _refcount in journaled.values():
                        cid = location.container_id
                        if not store.backend.exists(f"container/{cid:012d}"):
                            dangling.append(cid)
                    checked.append(len(journaled))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            putters = [threading.Thread(target=putter, args=(w,)) for w in range(4)]
            flush_thread = threading.Thread(target=flusher)
            flush_thread.start()
            for thread in putters:
                thread.start()
            for thread in putters:
                thread.join(timeout=30)
            stop.set()
            flush_thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in [*putters, flush_thread])
        assert errors == []
        assert checked, "the flusher never completed a flush-and-check pass"
        assert dangling == []
        store.flush()
        rebooted = DataStore(backend=store.backend, container_bytes=4096)
        assert rebooted.index.snapshot() == store.index.snapshot()
        assert len(rebooted.index) == 4 * 300


class TestAddrefContract:
    def test_zero_count_rejected(self):
        store = DataStore()
        put(store, b"chunk")
        with pytest.raises(StorageError):
            store.addref_many([(fingerprint(b"chunk"), 0)])

    def test_negative_count_rejected(self):
        store = DataStore()
        put(store, b"chunk")
        with pytest.raises(StorageError):
            store.addref_many([(fingerprint(b"chunk"), -2)])

    def test_unknown_fingerprint_rejected(self):
        with pytest.raises(NotFoundError):
            DataStore().addref_many([(fingerprint(b"ghost"), 1)])

    def test_positive_counts_applied(self):
        store = DataStore()
        put(store, b"chunk")
        store.addref_many([(fingerprint(b"chunk"), 3)])
        assert store.refcount_many([fingerprint(b"chunk")]) == [4]


class TestOversizedChunks:
    def test_chunk_larger_than_container_round_trips(self):
        store = DataStore(container_bytes=100)
        data = bytes(range(256)) * 4  # 1 KiB >> 100 B containers
        put(store, data)
        assert store.get_chunk(fingerprint(data)) == data
        store.flush()
        assert store.get_chunk(fingerprint(data)) == data

    def test_oversized_chunk_release_reclaims(self):
        store = DataStore(container_bytes=100)
        data = b"huge" * 200
        put(store, data)
        store.flush()
        store.release_chunk(fingerprint(data))
        assert store.backend.total_bytes("container/") == 0
        assert store.stats.physical_bytes == 0


class TestDeadSpaceAccounting:
    def test_partial_release_accrues_dead_bytes(self):
        store = DataStore(container_bytes=64, metrics=MetricsRegistry())
        put(store, b"a" * 32)
        put(store, b"b" * 32)  # seals the container
        store.release_chunk(fingerprint(b"a" * 32))
        live, dead, ratio = store.dead_space()
        assert (live, dead) == (32, 32)
        assert ratio == pytest.approx(0.5)
        # The container still holds a live chunk, so it survives.
        assert store.backend.total_bytes("container/") > 0
        assert store.metrics.value("dead_space_ratio") == pytest.approx(0.5)

    def test_release_batch_publishes_dead_space_once(self):
        def filled():
            store = DataStore(container_bytes=64, metrics=MetricsRegistry())
            for i in range(12):
                put(store, bytes([i]) * 16)
            store.flush()
            return store

        doomed = [fingerprint(bytes([i]) * 16) for i in (0, 1, 2, 5, 9)]
        reference = filled()
        for fp in doomed:
            reference.release_chunk(fp)
        batched = filled()
        published = []
        real_dead_space = batched.dead_space
        batched.dead_space = lambda: published.append(1) or real_dead_space()
        batched.release_many([*doomed, fingerprint(b"never stored")])
        assert len(published) == 1
        ratio = batched.metrics.value("dead_space_ratio")
        assert ratio == reference.metrics.value("dead_space_ratio") > 0
        assert batched.index.snapshot() == reference.index.snapshot()
        assert batched.stats.physical_bytes == reference.stats.physical_bytes

    def test_full_release_clears_accounting(self):
        store = DataStore(container_bytes=64)
        put(store, b"a" * 32)
        put(store, b"b" * 32)
        store.release_chunk(fingerprint(b"a" * 32))
        store.release_chunk(fingerprint(b"b" * 32))
        assert store.backend.total_bytes("container/") == 0
        assert store.dead_space() == (0, 0, 0.0)
