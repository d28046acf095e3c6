"""Tests for container batching, compression, and coalesced reads."""

import hashlib
import threading
import time
import zlib

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.storage import container as container_module
from repro.storage.backend import MemoryBackend
from repro.storage.container import (
    _HEADER,
    _MAGIC,
    _SAMPLE_BYTES,
    CODEC_STORED,
    CODEC_ZLIB,
    ContainerStore,
)
from repro.storage.index import ChunkLocation
from repro.util.errors import ConfigurationError, NotFoundError, StorageError
from repro.util.units import MiB


@pytest.fixture()
def backend():
    return MemoryBackend()


def incompressible(nbytes: int, seed: int = 0) -> bytes:
    """Deterministic pseudorandom bytes zlib cannot shrink."""
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        out.extend(hashlib.sha256(f"{seed}:{counter}".encode()).digest())
        counter += 1
    return bytes(out[:nbytes])


class TestAppendRead:
    def test_read_from_open_container(self, backend):
        store = ContainerStore(backend, container_bytes=1024)
        loc = store.append(b"chunk-one")
        assert store.read(loc) == b"chunk-one"
        assert store.sealed_containers == 0  # still buffered

    def test_read_after_seal(self, backend):
        store = ContainerStore(backend, container_bytes=1024)
        loc = store.append(b"chunk-one")
        store.flush()
        assert store.sealed_containers == 1
        assert store.read(loc) == b"chunk-one"

    def test_locations_within_container(self, backend):
        store = ContainerStore(backend, container_bytes=1024)
        a = store.append(b"aaa")
        b = store.append(b"bbbb")
        assert a.container_id == b.container_id
        assert b.offset == 3
        store.flush()
        assert store.read(a) == b"aaa"
        assert store.read(b) == b"bbbb"

    def test_seal_on_capacity(self, backend):
        store = ContainerStore(backend, container_bytes=100)
        first = store.append(b"x" * 60)
        second = store.append(b"y" * 60)  # would exceed 100 -> new container
        assert second.container_id == first.container_id + 1
        assert store.sealed_containers == 1
        assert store.read(first) == b"x" * 60
        assert store.read(second) == b"y" * 60

    def test_chunk_larger_than_capacity_gets_own_container(self, backend):
        store = ContainerStore(backend, container_bytes=100)
        loc = store.append(b"z" * 250)
        store.flush()
        assert store.read(loc) == b"z" * 250

    def test_empty_chunk_rejected(self, backend):
        with pytest.raises(ConfigurationError):
            ContainerStore(backend).append(b"")

    def test_flush_idempotent(self, backend):
        store = ContainerStore(backend, container_bytes=100)
        store.append(b"data")
        store.flush()
        store.flush()
        assert store.sealed_containers == 1


class TestReadCache:
    def test_cache_avoids_refetch(self, backend):
        store = ContainerStore(backend, container_bytes=64)
        locs = [store.append(bytes([i]) * 32) for i in range(4)]
        store.flush()
        for loc in locs:
            store.read(loc)
        fetches = store.container_fetches
        for loc in locs:
            store.read(loc)
        assert store.container_fetches == fetches  # served from cache

    def test_out_of_range_read(self, backend):
        from repro.storage.index import ChunkLocation

        store = ContainerStore(backend, container_bytes=64)
        store.append(b"small")
        store.flush()
        with pytest.raises(NotFoundError):
            store.read(ChunkLocation(container_id=0, offset=0, length=999))


class TestLifecycle:
    def test_delete_container(self, backend):
        store = ContainerStore(backend, container_bytes=32)
        loc = store.append(b"a" * 32)
        store.flush()
        store.delete_container(loc.container_id)
        with pytest.raises(NotFoundError):
            store.read(loc)

    def test_numbering_resumes_after_restart(self, backend):
        store = ContainerStore(backend, container_bytes=32)
        store.append(b"a" * 32)
        store.flush()
        restarted = ContainerStore(backend, container_bytes=32)
        loc = restarted.append(b"b" * 32)
        assert loc.container_id == 1

    def test_stored_bytes(self, backend):
        store = ContainerStore(backend, container_bytes=64)
        store.append(b"a" * 40)
        store.append(b"b" * 40)  # seals first
        assert store.stored_bytes() == 80

    def test_has_container(self, backend):
        store = ContainerStore(backend, container_bytes=64)
        assert not store.has_container(store.open_container_id)
        loc = store.append(b"a" * 16)
        assert store.has_container(loc.container_id)  # open buffer counts
        store.flush()
        assert store.has_container(loc.container_id)
        store.delete_container(loc.container_id)
        assert not store.has_container(loc.container_id)

    def test_payload_length(self, backend):
        store = ContainerStore(backend, container_bytes=64)
        loc = store.append(b"a" * 40)
        assert store.payload_length(loc.container_id) == 40  # open buffer
        store.flush()
        assert store.payload_length(loc.container_id) == 40
        assert store.payload_length(999) == 0

    def test_payload_length_learned_after_restart(self, backend):
        store = ContainerStore(backend, container_bytes=64)
        loc = store.append(b"a" * 40)
        store.flush()
        restarted = ContainerStore(backend, container_bytes=64)
        # Learned from the framed header without a full fetch.
        assert restarted.payload_length(loc.container_id) == 40
        assert restarted.container_fetches == 0


def _frame_codec(backend, loc) -> int:
    _magic, codec, _len = _HEADER.unpack_from(
        backend.get(f"container/{loc.container_id:012d}")
    )
    return codec


@pytest.fixture()
def compress_spy(monkeypatch):
    """Input lengths of every ``zlib.compress`` call the encoder makes."""
    sizes = []
    real = zlib.compress

    def spy(data, *args, **kwargs):
        sizes.append(len(data))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(container_module.zlib, "compress", spy)
    return sizes


class TestCompression:
    def test_compressible_payload_shrinks_on_disk(self, backend, compress_spy):
        store = ContainerStore(backend, container_bytes=4096)
        loc = store.append(b"abcd" * 1024)  # 4 KiB, highly compressible
        store.flush()
        assert compress_spy == [4096]  # within the sample: one trial only
        on_disk = backend.size(f"container/{loc.container_id:012d}")
        assert on_disk < 4096
        assert store.compressed_bytes() == on_disk
        assert store.sealed_payload_bytes() == 4096
        # Round trip through the compressed frame.
        fresh = ContainerStore(backend, container_bytes=4096)
        assert fresh.read(loc) == b"abcd" * 1024

    def test_incompressible_payload_stored_raw(self, backend):
        store = ContainerStore(backend, container_bytes=1024)
        data = incompressible(1024)
        loc = store.append(data)
        name = f"container/{loc.container_id:012d}"
        blob = backend.get(name)
        magic, codec, payload_len = _HEADER.unpack_from(blob)
        assert magic == _MAGIC
        assert codec == CODEC_STORED
        assert payload_len == 1024
        assert store.read(loc) == data

    def test_legacy_raw_container_readable(self, backend):
        # A headerless blob written before the framed format.
        backend.put("container/000000000000", b"legacy-payload")
        store = ContainerStore(backend, container_bytes=64)
        assert store.read(ChunkLocation(0, 0, 6)) == b"legacy"
        assert store.payload_length(0) == len(b"legacy-payload")
        # Numbering resumed past the legacy container.
        assert store.open_container_id == 1

    def test_header_length_mismatch_rejected(self, backend):
        blob = _HEADER.pack(_MAGIC, CODEC_STORED, 999) + b"short"
        backend.put("container/000000000000", blob)
        store = ContainerStore(backend, container_bytes=64)
        with pytest.raises(StorageError):
            store.read(ChunkLocation(0, 0, 5))

    def test_unknown_codec_rejected(self, backend):
        blob = _HEADER.pack(_MAGIC, 7, 5) + b"12345"
        backend.put("container/000000000000", blob)
        store = ContainerStore(backend, container_bytes=64)
        with pytest.raises(StorageError):
            store.read(ChunkLocation(0, 0, 5))

    def test_truncated_compressed_body_rejected(self, backend):
        store = ContainerStore(backend, container_bytes=256)
        loc = store.append(b"x" * 256)
        name = f"container/{loc.container_id:012d}"
        backend.put(name, backend.get(name)[:-4])
        fresh = ContainerStore(backend, container_bytes=256)
        with pytest.raises(StorageError):
            fresh.read(loc)

    def test_compression_metrics_published(self, backend):
        registry = MetricsRegistry()
        store = ContainerStore(backend, container_bytes=4096, metrics=registry)
        store.append(b"abcd" * 1024)
        store.flush()
        assert registry.value("container_payload_bytes") == 4096
        compressed = registry.value("container_compressed_bytes")
        assert 0 < compressed < 4096
        assert registry.value("container_compression_ratio") == pytest.approx(
            4096 / compressed
        )

    def test_seal_metrics_by_codec(self, backend):
        registry = MetricsRegistry()
        store = ContainerStore(backend, container_bytes=4096, metrics=registry)
        store.append(b"abcd" * 1024)  # fills and seals (zlib)
        store.append(incompressible(1000))
        store.flush()  # stored
        assert registry.value("container_seals_total", codec="zlib") == 1
        assert registry.value("container_seals_total", codec="stored") == 1
        seconds = registry.get("container_seal_seconds").labels()
        assert seconds.count == 2
        assert seconds.sum > 0

    # -- the 64 KiB sample rule for larger payloads ------------------------

    def test_incompressible_payload_only_compresses_the_sample(
        self, backend, compress_spy
    ):
        store = ContainerStore(backend, container_bytes=2 * MiB)
        data = incompressible(MiB)
        loc = store.append(data)
        store.flush()
        assert compress_spy == [_SAMPLE_BYTES]
        assert _frame_codec(backend, loc) == CODEC_STORED
        assert ContainerStore(backend).read(loc) == data

    def test_compressible_payload_still_compressed(self, backend, compress_spy):
        store = ContainerStore(backend, container_bytes=2 * MiB)
        data = b"reed-container" * (MiB // 14 + 1)
        loc = store.append(data)
        store.flush()
        assert compress_spy == [_SAMPLE_BYTES, len(data)]
        assert _frame_codec(backend, loc) == CODEC_ZLIB
        assert store.compressed_bytes() < len(data) // 10
        assert ContainerStore(backend).read(loc) == data

    def test_incompressible_sample_stores_the_whole_payload_raw(self, backend):
        """By design the sample decides: a container whose first 64 KiB is
        ciphertext is stored raw even if the rest would compress well."""
        store = ContainerStore(backend, container_bytes=2 * MiB)
        data = incompressible(_SAMPLE_BYTES) + b"\x00" * MiB
        loc = store.append(data)
        store.flush()
        assert _frame_codec(backend, loc) == CODEC_STORED
        assert backend.size(f"container/{loc.container_id:012d}") == (
            _HEADER.size + len(data)
        )
        assert ContainerStore(backend).read(loc) == data



class _CountingBackend(MemoryBackend):
    """MemoryBackend that counts (and optionally slows) container gets."""

    def __init__(self, delay: float = 0.0):
        super().__init__()
        self.delay = delay
        self.container_gets = 0
        self._get_lock = threading.Lock()

    def get(self, name):
        if name.startswith("container/"):
            with self._get_lock:
                self.container_gets += 1
            if self.delay:
                time.sleep(self.delay)
        return super().get(name)


class TestCoalescedReads:
    def _fill(self, store, chunks=8, size=32):
        locs = [store.append(bytes([i]) * size) for i in range(chunks)]
        store.flush()
        return locs

    def test_read_many_fetches_each_container_once(self):
        backend = _CountingBackend()
        registry = MetricsRegistry()
        store = ContainerStore(backend, container_bytes=64, metrics=registry)
        locs = self._fill(store)  # 8 x 32 B -> 4 sealed containers
        assert store.sealed_containers == 4
        out = store.read_many(locs)
        assert out == [bytes([i]) * 32 for i in range(8)]
        assert store.container_fetches == 4
        assert backend.container_gets == 4
        assert registry.value("container_fetch_total") == 4

    def test_read_many_served_from_cache(self):
        backend = _CountingBackend()
        store = ContainerStore(backend, container_bytes=64)
        locs = self._fill(store)
        store.read_many(locs)
        fetches = store.container_fetches
        assert store.read_many(locs) == [bytes([i]) * 32 for i in range(8)]
        assert store.container_fetches == fetches

    def test_read_many_includes_open_buffer(self):
        store = ContainerStore(MemoryBackend(), container_bytes=1024)
        sealed = store.append(b"a" * 512)
        store.flush()
        buffered = store.append(b"b" * 100)  # still open
        out = store.read_many([sealed, buffered, sealed])
        assert out == [b"a" * 512, b"b" * 100, b"a" * 512]

    def test_read_many_empty(self):
        store = ContainerStore(MemoryBackend(), container_bytes=64)
        assert store.read_many([]) == []

    def test_read_many_missing_container_raises(self):
        store = ContainerStore(MemoryBackend(), container_bytes=64)
        loc = store.append(b"a" * 64)
        store.flush()
        store.delete_container(loc.container_id)
        with pytest.raises(NotFoundError):
            store.read_many([loc])

    def test_fetch_concurrency_validated(self):
        with pytest.raises(ConfigurationError):
            ContainerStore(MemoryBackend(), fetch_concurrency=0)


class TestSingleFlight:
    def test_concurrent_reads_share_one_fetch(self):
        backend = _CountingBackend(delay=0.05)
        store = ContainerStore(backend, container_bytes=64)
        loc = store.append(b"a" * 64)
        store.flush()

        results = []
        errors = []
        barrier = threading.Barrier(8)

        def reader():
            try:
                barrier.wait()
                results.append(store.read(loc))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == [b"a" * 64] * 8
        # All eight readers were served by a single backend fetch.
        assert backend.container_gets == 1
        assert store.container_fetches == 1

    def test_followers_refetch_after_leader_failure(self):
        backend = _CountingBackend(delay=0.02)
        store = ContainerStore(backend, container_bytes=64)
        loc = store.append(b"a" * 64)
        store.flush()
        blob = backend.get(f"container/{loc.container_id:012d}")
        backend.delete(f"container/{loc.container_id:012d}")

        outcomes = []
        barrier = threading.Barrier(4)

        def reader():
            barrier.wait()
            try:
                outcomes.append(store.read(loc))
            except NotFoundError:
                outcomes.append("missing")
                # Restore the blob so stragglers can succeed.
                backend.put(f"container/{loc.container_id:012d}", blob)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Nobody hung: every reader either failed cleanly or read the
        # restored bytes.
        assert len(outcomes) == 4
        assert set(outcomes) <= {"missing", b"a" * 64}
