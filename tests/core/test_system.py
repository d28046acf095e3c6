"""Tests for system assembly and client-side sharding."""

import pytest

from repro.core.server import REEDServer
from repro.core.system import build_system
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import fingerprint
from repro.storage.backend import DirectoryBackend
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import ConfigurationError, ProtocolError
from repro.workloads.synthetic import unique_data


class TestShardedStorageService:
    @pytest.fixture()
    def sharded(self):
        return ShardedStorageService([REEDServer() for _ in range(3)])

    def test_chunk_roundtrip_and_order(self, sharded):
        chunks = [bytes([i]) * 50 for i in range(20)]
        payload = [(fingerprint(c), c) for c in chunks]
        assert sharded.chunk_put_many(payload) == [True] * 20
        fetched = sharded.chunk_get_batch([fp for fp, _ in payload])
        assert fetched == chunks

    def test_dedup_preserved_across_shards(self, sharded):
        payload = [(fingerprint(b"dup"), b"dup")]
        assert sharded.chunk_put_many(payload) == [True]
        assert sharded.chunk_put_many(payload) == [False]

    def test_file_data_routing(self, sharded):
        sharded.file_commit([("file-x", b"s", b"r")])
        assert sharded.recipe_get_many(["file-x"]) == [b"r"]
        assert sharded.file_get_many(["file-x"]) == [(b"s", b"r")]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedStorageService([])


class TestReplicatedRelease:
    def test_release_tolerates_under_replicated_chunks(self):
        """A chunk written at quorum while an owner was down must still
        delete cleanly once that owner returns empty-handed."""
        sharded = ShardedStorageService(
            [REEDServer() for _ in range(3)], replicas=2
        )
        down = sharded.node_ids()[0]
        sharded.mark_down(down)
        chunks = [(fingerprint(b"rel-%d" % i), b"rel-%d" % i) for i in range(24)]
        sharded.chunk_put_many(chunks)
        sharded.mark_up(down)
        fps = [fp for fp, _ in chunks]
        sharded.chunk_release_batch(fps)  # must not raise
        for node in sharded.node_ids():
            service = sharded.node_service(node)
            assert service.chunk_exists_batch(fps) == [False] * len(fps)

    def test_release_continues_past_node_failure(self):
        """A node dying mid-delete leaks its references (GC debt) but
        must not abort the releases on the surviving owners."""

        class DeadService:
            def __getattr__(self, name):
                def dead(*args, **kwargs):
                    raise ProtocolError("connection reset")

                return dead

        sharded = ShardedStorageService(
            [REEDServer() for _ in range(3)], replicas=2
        )
        chunks = [(fingerprint(b"dd-%d" % i), b"dd-%d" % i) for i in range(24)]
        sharded.chunk_put_many(chunks)
        victim = sharded.node_ids()[0]
        survivors = {
            node: sharded.node_service(node)
            for node in sharded.node_ids()
            if node != victim
        }
        sharded._services[victim] = DeadService()
        fps = [fp for fp, _ in chunks]
        sharded.chunk_release_batch(fps)  # quorum met on each live owner
        assert not sharded.ring.is_up(victim)
        for service in survivors.values():
            assert service.chunk_exists_batch(fps) == [False] * len(fps)


class TestBuildSystem:
    def test_paper_topology(self, cluster):
        assert len(cluster.servers) == 4

    def test_duplicate_owner_enrollment_rejected(self, system):
        system.new_client("alice")
        with pytest.raises(ConfigurationError):
            system.new_client("alice")

    def test_reader_reenrollment_allowed(self, system):
        system.new_client("alice", owner=False)
        system.new_client("alice", owner=False)  # readers are stateless

    def test_storage_stats_aggregate(self, cluster):
        alice = cluster.new_client("alice")
        data = unique_data(150_000, seed=1)
        alice.upload("f", data)
        stats = cluster.storage_stats
        assert stats.logical_bytes == len(data)
        assert stats.physical_bytes == len(data)
        # Chunks should spread over multiple servers.
        populated = sum(1 for s in cluster.servers if s.stats.chunks_stored)
        assert populated >= 2

    def test_bad_server_count(self):
        with pytest.raises(ConfigurationError):
            build_system(num_data_servers=0)

    def test_directory_backends(self, tmp_path):
        backends = [DirectoryBackend(str(tmp_path / f"s{i}")) for i in range(2)]
        system = build_system(
            num_data_servers=2, backends=backends, rng=HmacDrbg(b"d")
        )
        alice = system.new_client("alice")
        data = unique_data(100_000, seed=2)
        alice.upload("f", data)
        assert alice.download("f").data == data
        # Containers landed on disk.
        assert any((tmp_path / f"s{i}" / "container").exists() for i in range(2))

    def test_backend_count_mismatch(self, tmp_path):
        with pytest.raises(ConfigurationError):
            build_system(num_data_servers=2, backends=[DirectoryBackend(str(tmp_path))])

    def test_scheme_selection(self):
        system = build_system(num_data_servers=1, scheme="basic", rng=HmacDrbg(b"s"))
        client = system.new_client("alice")
        assert client.scheme.name == "basic"
        override = system.new_client("bob", scheme="enhanced")
        assert override.scheme.name == "enhanced"
