"""Tests for ring placement through the replication engine."""

import pytest

from repro.core.server import REEDServer
from repro.crypto.hashing import fingerprint
from repro.obs import scope as obs_scope
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import ConfigurationError, NotFoundError


@pytest.fixture()
def sharded():
    return ShardedStorageService([REEDServer() for _ in range(4)])


def put(sharded, data):
    fp = fingerprint(data)
    (status,) = sharded.chunk_put_many([(fp, data)])
    return fp, status


def node_stats(sharded):
    return [sharded.node_service(node).stats for node in sharded.node_ids()]


class TestChunkRouting:
    def test_placement_deterministic(self, sharded):
        fp, _ = put(sharded, b"data")
        twin = ShardedStorageService([REEDServer() for _ in range(4)])
        primary = sharded.ring.primary(fp)
        assert twin.ring.primary(fp) == primary
        holders = [
            node
            for node in sharded.node_ids()
            if sharded.node_service(node).chunk_exists_batch([fp]) == [True]
        ]
        assert holders == [primary]

    def test_dedup_across_uploaders(self, sharded):
        # Two clients' engines over the same servers deduplicate against
        # each other: the second upload of a chunk is a hit.
        other = ShardedStorageService(
            [sharded.node_service(node) for node in sharded.node_ids()]
        )
        fp, first = put(sharded, b"data")
        _, second = put(other, b"data")
        assert (first, second) == (True, False)
        assert other.chunk_get_batch([fp]) == [b"data"]

    def test_chunks_spread_over_shards(self, sharded):
        for i in range(64):
            put(sharded, bytes([i]) * 10)
        populated = sum(1 for s in node_stats(sharded) if s.chunks_stored > 0)
        assert populated == 4  # 64 chunks land on all 4 shards w.h.p.

    def test_release_routes_correctly(self, sharded):
        fp, _ = put(sharded, b"x")
        sharded.chunk_release_batch([fp])
        assert sharded.chunk_exists_batch([fp]) == [False]

    def test_aggregate_stats(self, sharded):
        for i in range(8):
            put(sharded, bytes([i]) * 100)
            put(sharded, bytes([i]) * 100)
        stats = node_stats(sharded)
        assert sum(s.chunks_received for s in stats) == 16
        assert sum(s.chunks_stored for s in stats) == 8
        assert sum(s.logical_bytes for s in stats) == 1600
        assert sum(s.physical_bytes for s in stats) == 800


class TestFileRouting:
    def test_recipes(self, sharded):
        assert sharded.file_commit(
            [("file-a", b"sa", b"ra"), ("file-b", b"sb", b"rb")]
        ) == [None, None]
        assert sharded.recipe_get_many(["file-a"]) == [b"ra"]
        assert sharded.recipe_list() == ["file-a", "file-b"]
        assert sharded.meta_delete_many(["file-a"]) == [None]
        assert sharded.recipe_list() == ["file-b"]
        [missing] = sharded.recipe_get_many(["file-a"])
        assert isinstance(missing, NotFoundError)

    def test_stub_files(self, sharded):
        sharded.file_commit([("file-a", b"stubby", b"ra")])
        assert sharded.file_get_many(["file-a"]) == [(b"stubby", b"ra")]
        owner = sharded.shard_for_file("file-a")
        assert sharded.node_service(owner).stats.stub_bytes == 6
        sharded.meta_delete_many(["file-a"])
        assert sum(s.stub_bytes for s in node_stats(sharded)) == 0

    def test_flush_all(self, sharded):
        for i in range(8):
            put(sharded, bytes([i]) * 10)
        with obs_scope.attribution() as scope:
            sharded.flush()
        assert scope.get_int("store_round_trips") == 4  # one per node


def test_empty_shards_rejected():
    with pytest.raises(ConfigurationError):
        ShardedStorageService([])
