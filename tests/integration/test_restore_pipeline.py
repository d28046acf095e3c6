"""Restore-pipeline integration tests: scatter-gather, overlap, cache.

The parallel download pipeline must be observationally identical to the
old serial restore: bit-identical plaintext, deterministic abort on any
integrity failure, exact per-download attribution even under concurrent
use, and memory bounded by ``pipeline_depth x fetch_batch_chunks`` when
streaming.  These tests pin each of those invariants.
"""

import threading

import pytest

from repro.chunking.chunker import ChunkingSpec
from repro.core.cluster import TcpCluster
from repro.crypto.drbg import HmacDrbg
from repro.storage.recipes import FileRecipe
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import (
    IntegrityError,
    NotFoundError,
    ReproError,
)
from repro.workloads.synthetic import unique_data


def corrupt_blob(backend, name, position=None):
    blob = bytearray(backend.get(name))
    index = len(blob) // 2 if position is None else position
    blob[index] ^= 0x01
    backend.put(name, bytes(blob))


@pytest.fixture()
def stored(cluster):
    """A 4-shard system with one uploaded file (~1 MB, many windows)."""
    alice = cluster.new_client("alice")
    data = unique_data(1_000_000, seed=17)
    alice.upload("doc", data)
    return cluster, alice, data


class TestPipelineEquivalence:
    def test_pipelined_bit_identical_to_serial(self, stored):
        cluster, _alice, data = stored
        serial = cluster.new_client("alice", owner=False, encryption_workers=1)
        serial.pipeline_depth = 1
        cluster.storage.fetch_workers = 1
        try:
            serial_result = serial.download("doc", fetch_batch_chunks=8)
        finally:
            cluster.storage.fetch_workers = min(len(cluster.servers), 8)
        pipelined = cluster.new_client("alice", owner=False)
        pipelined_result = pipelined.download("doc", fetch_batch_chunks=8)
        assert serial_result.data == data
        assert pipelined_result.data == data
        assert serial_result.chunk_count == pipelined_result.chunk_count
        # Many small windows means the pipeline actually pipelined.
        assert pipelined_result.fetch_batches > 1

    def test_download_iter_streams_in_order(self, stored):
        cluster, _alice, data = stored
        reader = cluster.new_client("alice", owner=False)
        pieces = list(reader.download_iter("doc", fetch_batch_chunks=8))
        assert len(pieces) > 1
        assert b"".join(pieces) == data

    def test_download_iter_early_close_is_clean(self, stored):
        cluster, _alice, data = stored
        reader = cluster.new_client("alice", owner=False)
        iterator = reader.download_iter("doc", fetch_batch_chunks=8)
        first = next(iterator)
        assert data.startswith(first)
        iterator.close()  # must not raise (no size-mismatch complaint)
        # The client remains fully usable after an abandoned restore.
        assert reader.download("doc").data == data


class _CountingStorage:
    """Delegating proxy that counts bytes fetched from storage."""

    def __init__(self, inner):
        self._inner = inner
        self.fetched_bytes = 0
        self.fetch_calls = 0

    def chunk_get_batch(self, fingerprints):
        out = self._inner.chunk_get_batch(fingerprints)
        self.fetch_calls += 1
        self.fetched_bytes += sum(len(data) for data in out)
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _BoundCheckingSink:
    """Sink that asserts fetched-but-unwritten bytes stay bounded."""

    def __init__(self, spy, bound):
        self._spy = spy
        self._bound = bound
        self.written = 0
        self.max_resident = 0

    def write(self, chunk):
        self.written += len(chunk)
        resident = self._spy.fetched_bytes - self.written
        self.max_resident = max(self.max_resident, resident)
        assert resident <= self._bound, (
            f"{resident} bytes resident exceeds the "
            f"pipeline_depth x fetch_batch bound of {self._bound}"
        )


class TestStreamingMemoryBound:
    def test_download_path_memory_bounded(self, stored):
        cluster, _alice, data = stored
        recipe = FileRecipe.decode(cluster.storage.recipe_get("doc"))
        max_len = max(ref.length for ref in recipe.chunks)
        reader = cluster.new_client("alice", owner=False)
        spy = _CountingStorage(reader.storage)
        reader.storage = spy
        fetch_batch = 8
        bound = reader.pipeline_depth * fetch_batch * max_len
        sink = _BoundCheckingSink(spy, bound)
        result = reader.download_to("doc", sink, fetch_batch_chunks=fetch_batch)
        assert result.size == len(data)
        assert result.data == b""
        assert sink.written == len(data)
        # The whole file moved through storage, yet never sat in memory:
        # the high-water mark is a small multiple of the window size.
        assert spy.fetched_bytes >= len(data)
        assert sink.max_resident < len(data) // 2


class TestMissingChunks:
    def test_missing_chunk_names_fingerprint(self, system):
        alice = system.new_client("alice")
        data = unique_data(120_000, seed=23)
        alice.upload("victim", data)
        recipe = FileRecipe.decode(system.storage.recipe_get("victim"))
        lost = recipe.chunks[len(recipe.chunks) // 2].fingerprint
        system.servers[0].store.release_chunk(lost)
        with pytest.raises(NotFoundError) as excinfo:
            alice.download("victim")
        assert lost.hex() in str(excinfo.value)

    def test_short_batch_raises_instead_of_silent_drop(self):
        class _DroppingService:
            def chunk_get_batch(self, fingerprints):
                return []  # a buggy shard silently drops every chunk

        storage = ShardedStorageService([_DroppingService()])
        fingerprint = bytes(range(32))
        with pytest.raises(NotFoundError) as excinfo:
            storage.chunk_get_batch([fingerprint])
        assert fingerprint.hex() in str(excinfo.value)


class TestIntegrityAbort:
    def test_tampered_chunk_aborts_parallel_decrypt(self, system):
        alice = system.new_client("alice")
        data = unique_data(120_000, seed=29)
        alice.upload("victim", data)
        backend = system.servers[0].store.backend
        containers = list(backend.list("container/"))
        assert containers
        for name in containers:
            corrupt_blob(backend, name)
        reader = system.new_client("alice", owner=False)
        # Force the process-pool decrypt path regardless of file size so
        # the error crosses a worker boundary before surfacing.
        reader._transform_pool.min_parallel_bytes = 0
        with pytest.raises(IntegrityError):
            reader.download("victim")
        reader.close()


class TestShardFailure:
    @pytest.mark.slow
    def test_shard_down_aborts_without_partial_file(self, tmp_path):
        chunking = ChunkingSpec(method="fixed", avg_size=4096)
        rng = HmacDrbg(b"restore-shard-down")
        with TcpCluster(
            num_data_servers=2, chunking=chunking, rng=rng
        ) as cluster:
            client = cluster.new_client("carol")
            data = rng.random_bytes(64 * 4096)
            client.upload("doc", data)
            assert client.download("doc").data == data

            cluster.kill_data_server(0)
            out = tmp_path / "restore.bin"
            with pytest.raises((ReproError, OSError)):
                client.download_path("doc", str(out))
            # Deterministic abort, and no partial output left behind.
            assert not out.exists()
            assert not (tmp_path / "restore.bin.part").exists()


class TestDownloadPath:
    def test_download_path_writes_atomically(self, stored, tmp_path):
        cluster, _alice, data = stored
        reader = cluster.new_client("alice", owner=False)
        out = tmp_path / "doc.bin"
        result = reader.download_path("doc", str(out))
        assert out.read_bytes() == data
        assert result.size == len(data)
        assert not (tmp_path / "doc.bin.part").exists()


class TestAttribution:
    def test_concurrent_downloads_attribute_exactly(self, stored):
        cluster, alice, data = stored
        other = unique_data(400_000, seed=31)
        alice.upload("other", other)
        reader = cluster.new_client("alice", owner=False)
        # Serial oracle: per-download counters with nothing else running.
        solo_doc = reader.download("doc", fetch_batch_chunks=16)
        solo_other = reader.download("other", fetch_batch_chunks=16)

        results = {}
        errors = []
        barrier = threading.Barrier(2)

        def run(file_id):
            try:
                barrier.wait(timeout=30)
                results[file_id] = reader.download(
                    file_id, fetch_batch_chunks=16
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(file_id,))
            for file_id in ("doc", "other")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert results["doc"].data == data
        assert results["other"].data == other
        # Attribution is exact per download even when interleaved: each
        # result sees only its own round trips, never its sibling's.
        assert results["doc"].store_round_trips == solo_doc.store_round_trips
        assert (
            results["other"].store_round_trips == solo_other.store_round_trips
        )
        assert results["doc"].fetch_batches == solo_doc.fetch_batches
        assert results["other"].fetch_batches == solo_other.fetch_batches


class TestChunkCache:
    def test_warm_cache_issues_no_chunk_fetches(self, stored):
        cluster, _alice, data = stored
        reader = cluster.new_client(
            "alice", owner=False, chunk_cache_bytes=8 * 1024 * 1024
        )
        cold = reader.download("doc", fetch_batch_chunks=16)
        assert cold.data == data
        assert cold.fetch_batches > 0
        assert cold.chunk_cache_misses == cold.chunk_count
        warm = reader.download("doc", fetch_batch_chunks=16)
        assert warm.data == data
        assert warm.fetch_batches == 0
        assert warm.chunk_cache_hits == warm.chunk_count
        assert warm.chunk_cache_misses == 0
        # Only the recipe and stub round trips remain on a warm restore.
        assert warm.store_round_trips < cold.store_round_trips
