"""Tests for system assembly and client-side sharding."""

import pytest

from repro.chunking.chunker import ChunkingSpec
from repro.core.cluster import TcpCluster
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.core.server import REEDServer
from repro.core.system import build_system
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import fingerprint
from repro.storage.backend import DirectoryBackend
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import AccessDeniedError, ConfigurationError, ProtocolError
from repro.workloads.synthetic import unique_data


class CountingDrbg(HmacDrbg):
    """A seeded DRBG that counts its draws."""

    draws = 0

    def random_bytes(self, n: int) -> bytes:
        self.draws += 1
        return super().random_bytes(n)


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


class TestReplicatedUpload:
    def test_r2_ships_every_chunk_to_two_owners(self):
        """R=2 uploads the same chunks as R=1, keeps each on exactly two
        nodes, and pays more store round trips to reach second owners."""
        data = unique_data(24 * 4096, seed=44)
        uploads = {}
        for replicas in (1, 2):
            system = build_system(
                num_data_servers=3,
                chunking=ChunkingSpec(method="fixed", avg_size=4096),
                rng=HmacDrbg(b"replicated-upload"),
                replicas=replicas,
            )
            client = system.new_client("alice")
            uploads[replicas] = client.upload("doc", data)
            assert client.download("doc").data == data
            held = sum(len(server.chunk_list()) for server in system.servers)
            assert held == replicas * uploads[replicas].new_chunks
        assert uploads[1].chunk_count == uploads[2].chunk_count == 24
        assert uploads[2].store_round_trips > uploads[1].store_round_trips


class TestBuildSystem:
    def test_paper_topology(self, cluster):
        assert len(cluster.servers) == 4

    def test_second_owner_client_revokes_first_clients_file(self, system):
        """A re-enrolled owner is a second device on the same keypair: it
        rekeys what the first one uploaded, and the revocation holds."""
        first = system.new_client("alice")
        bob = system.new_client("bob", owner=False)
        data = unique_data(60_000, seed=3)
        first.upload("shared", data, policy=FilePolicy.for_users(["alice", "bob"]))
        assert bob.download("shared").data == data
        second = system.new_client("alice")
        result = second.revoke_users("shared", {"bob"}, RevocationMode.ACTIVE)
        assert result.new_key_version == result.old_key_version + 1
        with pytest.raises(AccessDeniedError):
            bob.download("shared")
        assert first.download("shared").data == data

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


class TestOwnerEnrollment:
    @pytest.fixture(params=["in-process", "tcp"])
    def placement(self, request):
        """The same topology placed in-process and over TCP, both
        drawing from one counted DRBG."""
        rng = CountingDrbg(b"reenroll")
        if request.param == "tcp":
            with TcpCluster(num_data_servers=1, rng=rng) as cluster:
                yield cluster, rng
        else:
            yield build_system(num_data_servers=1, rng=rng), rng

    def test_reenrollment_reuses_keypair_and_draws_nothing(self, placement):
        deployment, rng = placement
        first = deployment.new_client("alice")
        draws = rng.draws
        second = deployment.new_client("alice")
        assert rng.draws == draws
        assert (
            second.keyreg_owner.public_key == first.keyreg_owner.public_key
        )
