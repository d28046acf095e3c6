"""Integration over real TCP: a full REED cluster on localhost sockets.

Mirrors the paper's deployment (Fig. 1): the client reaches the key
manager and every server over the network; nothing is wired in-process.
"""

import pytest

from repro.chunking.chunker import ChunkingSpec
from repro.core.cluster import TcpCluster
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.crypto.drbg import HmacDrbg
from repro.util.errors import AccessDeniedError
from repro.workloads.synthetic import unique_data


@pytest.fixture()
def cluster():
    """Two data servers, a key store, and a key manager, each on its own
    TCP port; clients reach them only through RPC stubs."""
    with TcpCluster(
        num_data_servers=2,
        chunking=ChunkingSpec(method="fixed", avg_size=4096),
        rng=HmacDrbg(b"tcp-cluster"),
    ) as cluster:
        yield cluster


class TestTcpDeployment:
    def test_upload_download_over_sockets(self, cluster):
        alice = cluster.new_client("alice", cache_bytes=1 << 20)
        data = unique_data(150_000, seed=31)
        result = alice.upload("net-file", data)
        assert result.new_chunks == result.chunk_count
        assert alice.download("net-file").data == data
        # Chunks really landed on both remote servers.
        assert all(s.stats.chunks_stored > 0 for s in cluster.servers)

    def test_cross_client_dedup_over_sockets(self, cluster):
        data = unique_data(100_000, seed=32)
        alice = cluster.new_client("alice")
        bob = cluster.new_client("bob")
        alice.upload("a", data)
        assert bob.upload("b", data).new_chunks == 0

    def test_revocation_over_sockets(self, cluster):
        data = unique_data(80_000, seed=33)
        alice = cluster.new_client("alice")
        bob = cluster.new_client("bob", owner=False)
        alice.upload("shared", data, policy=FilePolicy.for_users(["alice", "bob"]))
        assert bob.download("shared").data == data
        alice.revoke_users("shared", {"bob"}, RevocationMode.ACTIVE)
        with pytest.raises(AccessDeniedError):
            bob.download("shared")
        assert alice.download("shared").data == data
