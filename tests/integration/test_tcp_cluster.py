"""Integration over real TCP: a full REED cluster on localhost sockets.

Mirrors the paper's deployment (Fig. 1): the client reaches the key
manager and every server over the network; nothing is wired in-process.
"""

import pytest

from repro.abe.cpabe import AttributeAuthority
from repro.chunking.chunker import ChunkingSpec
from repro.core.client import REEDClient
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.core.server import REEDServer
from repro.core.service import (
    RemoteKeyManagerChannel,
    RemoteKeyStore,
    RemoteStorageService,
    register_key_manager,
    register_keystate_service,
    register_storage_service,
)
from repro.crypto.drbg import HmacDrbg
from repro.keyreg.rsa_keyreg import KeyRegressionOwner
from repro.mle.cache import MLEKeyCache
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import ServerAidedKeyClient
from repro.net.rpc import ServiceRegistry
from repro.net.tcp import TcpConnection, TcpServer
from repro.storage.keystore import KeyStore
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import AccessDeniedError
from repro.workloads.synthetic import unique_data


@pytest.fixture()
def tcp_cluster(rsa_512):
    """Two data servers, a key store, and a key manager, each on its own
    TCP port; yields a factory for fully remote clients."""
    rng = HmacDrbg(b"tcp-cluster")
    authority = AttributeAuthority(rng=rng)
    manager = KeyManager(private_key=rsa_512)
    servers = [REEDServer() for _ in range(2)]
    keystore = KeyStore()

    tcp_servers = []
    connections = []

    def serve(register, obj):
        registry = ServiceRegistry()
        register(registry, obj)
        server = TcpServer(registry)
        server.start()
        tcp_servers.append(server)
        return server.address

    storage_addrs = [serve(register_storage_service, s) for s in servers]
    keystore_addr = serve(register_keystate_service, keystore)
    km_addr = serve(register_key_manager, manager)

    def connect_rpc(addr):
        conn = TcpConnection(*addr)
        connections.append(conn)
        return conn.client()

    owners = {}

    def make_client(user_id, owner=True):
        storage = ShardedStorageService(
            [RemoteStorageService(connect_rpc(addr)) for addr in storage_addrs]
        )
        key_client = ServerAidedKeyClient(
            RemoteKeyManagerChannel(connect_rpc(km_addr)),
            client_id=user_id,
            cache=MLEKeyCache(1 << 20),
            rng=rng,
        )
        keyreg = None
        if owner:
            keyreg = owners.setdefault(
                user_id, KeyRegressionOwner(key_bits=512, rng=rng)
            )
        return REEDClient(
            user_id=user_id,
            key_client=key_client,
            storage=storage,
            keystore=RemoteKeyStore(connect_rpc(keystore_addr)),
            private_access_key=authority.issue_private_key(user_id),
            wrap_keys_provider=authority.wrap_keys_for,
            keyreg_owner=keyreg,
            chunking=ChunkingSpec(method="fixed", avg_size=4096),
            rng=rng,
        )

    yield make_client, servers
    for conn in connections:
        conn.close()
    for server in tcp_servers:
        server.stop()


class TestTcpDeployment:
    def test_upload_download_over_sockets(self, tcp_cluster):
        make_client, servers = tcp_cluster
        alice = make_client("alice")
        data = unique_data(150_000, seed=31)
        result = alice.upload("net-file", data)
        assert result.new_chunks == result.chunk_count
        assert alice.download("net-file").data == data
        # Chunks really landed on both remote servers.
        assert all(s.stats.chunks_stored > 0 for s in servers)

    def test_cross_client_dedup_over_sockets(self, tcp_cluster):
        make_client, _servers = tcp_cluster
        data = unique_data(100_000, seed=32)
        alice = make_client("alice")
        bob = make_client("bob")
        alice.upload("a", data)
        assert bob.upload("b", data).new_chunks == 0

    def test_revocation_over_sockets(self, tcp_cluster):
        make_client, _servers = tcp_cluster
        data = unique_data(80_000, seed=33)
        alice = make_client("alice")
        bob = make_client("bob", owner=False)
        alice.upload("shared", data, policy=FilePolicy.for_users(["alice", "bob"]))
        assert bob.download("shared").data == data
        alice.revoke_users("shared", {"bob"}, RevocationMode.ACTIVE)
        with pytest.raises(AccessDeniedError):
            bob.download("shared")
        assert alice.download("shared").data == data
