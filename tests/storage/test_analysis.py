"""Tests for fragmentation analysis."""

import pytest

from repro.core.server import REEDServer
from repro.crypto.hashing import fingerprint
from repro.storage.analysis import (
    analyze_file,
    analyze_sharded,
    fragmentation_over_generations,
)
from repro.storage.datastore import DataStore
from repro.storage.recipes import ChunkRef, FileRecipe
from repro.storage.sharding import HashRing, ShardedStorageService


def store_file(store, file_id, chunks):
    refs = []
    for chunk in chunks:
        fp = fingerprint(chunk)
        store.put_chunk(fp, chunk)
        refs.append(ChunkRef(fingerprint=fp, length=len(chunk)))
    store.flush()
    return FileRecipe(
        file_id=file_id,
        pathname="",
        size=sum(len(c) for c in chunks),
        scheme="enhanced",
        key_version=0,
        chunks=tuple(refs),
    )


class TestAnalyzeFile:
    def test_packed_file_has_low_amplification(self):
        store = DataStore(container_bytes=1024)
        chunks = [bytes([i]) * 100 for i in range(10)]  # ~1 container
        recipe = store_file(store, "packed", chunks)
        report = analyze_file(store, recipe)
        assert report.chunk_count == 10
        assert report.containers_touched == 1
        assert report.container_runs == 1
        assert report.read_amplification == pytest.approx(1.0, abs=0.01)

    def test_fragmented_file_has_high_amplification(self):
        """A later generation referencing chunks spread across containers
        written by earlier generations — the Experiment B.2 effect."""
        store = DataStore(container_bytes=400)
        # Four "generations" of mostly-unique data fill many containers.
        generations = []
        for g in range(4):
            chunks = [bytes([g]) + bytes([i]) * 99 for i in range(8)]
            generations.append(store_file(store, f"gen{g}", chunks))
        # A file that cherry-picks one chunk from each generation.
        sparse_chunks = [bytes([g]) + bytes([0]) * 99 for g in range(4)]
        refs = tuple(
            ChunkRef(fingerprint=fingerprint(c), length=len(c))
            for c in sparse_chunks
        )
        sparse = FileRecipe(
            file_id="sparse",
            pathname="",
            size=400,
            scheme="enhanced",
            key_version=0,
            chunks=refs,
        )
        report = analyze_file(store, sparse)
        assert report.containers_touched >= 4
        assert report.read_amplification > 2.0
        assert report.container_runs >= 4

    def test_generation_series_trends(self):
        store = DataStore(container_bytes=512)
        recipes = []
        base = [bytes([i]) * 100 for i in range(12)]
        for g in range(3):
            # Each generation keeps most chunks, replaces a few.
            base = list(base)
            base[g] = bytes([100 + g]) * 100
            recipes.append(store_file(store, f"g{g}", base))
        reports = fragmentation_over_generations(store, recipes)
        assert len(reports) == 3
        # Later generations touch at least as many containers as the first.
        assert reports[-1].containers_touched >= reports[0].containers_touched


class TestAnalyzeSharded:
    def test_sharded_metrics(self):
        shards = [DataStore(container_bytes=512) for _ in range(3)]
        ring = HashRing([f"node-{index}" for index in range(3)])
        chunks = [bytes([i]) * 64 for i in range(24)]
        refs = []
        for chunk in chunks:
            fp = fingerprint(chunk)
            shard = shards[int(ring.primary(fp).rsplit("-", 1)[1])]
            shard.put_chunk(fp, chunk)
            refs.append(ChunkRef(fingerprint=fp, length=len(chunk)))
        for shard in shards:
            shard.flush()
        recipe = FileRecipe(
            file_id="sharded",
            pathname="",
            size=sum(len(c) for c in chunks),
            scheme="enhanced",
            key_version=0,
            chunks=tuple(refs),
        )
        report = analyze_sharded(shards, recipe)
        assert report.chunk_count == 24
        assert report.containers_touched >= 3  # at least one per shard
        assert report.read_amplification >= 1.0

    def test_accepts_store_and_finds_degraded_replicas(self):
        """Passing the replication engine uses its real ring, and a
        chunk that landed only on a non-primary owner is still found."""
        store = ShardedStorageService(
            [REEDServer(DataStore(container_bytes=512)) for _ in range(3)],
            replicas=2,
        )
        chunks = [bytes([i]) * 64 for i in range(16)]
        refs = []
        for chunk in chunks:
            fp = fingerprint(chunk)
            # Degraded write: only the secondary owner got a copy.
            secondary = store.ring.preference(fp, 2)[1]
            store.node_service(secondary).chunk_put_many([(fp, chunk)])
            refs.append(ChunkRef(fingerprint=fp, length=len(chunk)))
        store.flush()
        recipe = FileRecipe(
            file_id="degraded",
            pathname="",
            size=sum(len(c) for c in chunks),
            scheme="enhanced",
            key_version=0,
            chunks=tuple(refs),
        )
        report = analyze_sharded(store, recipe)
        assert report.chunk_count == 16
        assert report.containers_touched >= 1

    def test_custom_node_ids(self):
        """Shards attached under custom node ids must not be
        misattributed to positional ``node-{i}`` placement."""
        store = ShardedStorageService([REEDServer(), REEDServer()])
        store.add_service(REEDServer(), node_id="rack-b-7")
        chunks = [bytes([i]) * 64 for i in range(16)]
        refs = []
        for chunk in chunks:
            fp = fingerprint(chunk)
            store.chunk_put_many([(fp, chunk)])
            refs.append(ChunkRef(fingerprint=fp, length=len(chunk)))
        # Some chunks live only on the custom-id node.
        assert "rack-b-7" in {store.ring.primary(ref.fingerprint) for ref in refs}
        store.flush()
        recipe = FileRecipe(
            file_id="custom-ids",
            pathname="",
            size=sum(len(c) for c in chunks),
            scheme="enhanced",
            key_version=0,
            chunks=tuple(refs),
        )
        report = analyze_sharded(store, recipe)
        assert report.chunk_count == 16
