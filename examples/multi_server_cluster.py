#!/usr/bin/env python3
"""A REED cluster over real TCP sockets (the paper's Fig. 1 topology).

Starts, each on its own localhost port:

* two data-store servers (the paper uses four; two keeps the demo quick),
* one key-store server, and
* one key manager (1024-bit blind-RSA OPRF, as in the paper),

then wires two clients to them purely through RPC stubs — the same
client code the in-process examples use, pointed at sockets instead.

Run:  python examples/multi_server_cluster.py
"""

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
from repro.keyreg.rsa_keyreg import KeyRegressionOwner
from repro.mle.cache import MLEKeyCache
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import ServerAidedKeyClient
from repro.net.rpc import ServiceRegistry
from repro.net.tcp import TcpConnection, TcpServer
from repro.storage.keystore import KeyStore
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import AccessDeniedError
from repro.util.units import MiB
from repro.workloads.synthetic import unique_data


def start_service(register, obj):
    registry = ServiceRegistry()
    register(registry, obj)
    server = TcpServer(registry)
    server.start()
    return server


def main() -> None:
    print("Starting cluster services on localhost...")
    authority = AttributeAuthority()
    data_servers = [REEDServer() for _ in range(2)]
    storage_tcp = [start_service(register_storage_service, s) for s in data_servers]
    keystore_tcp = start_service(register_keystate_service, KeyStore())
    km = KeyManager(key_bits=1024)
    km_tcp = start_service(register_key_manager, km)
    for name, srv in [("data-0", storage_tcp[0]), ("data-1", storage_tcp[1]),
                      ("keystore", keystore_tcp), ("key-manager", km_tcp)]:
        print(f"  {name:12s} listening on {srv.address[0]}:{srv.address[1]}")

    connections = []

    def rpc(server):
        conn = TcpConnection(*server.address)
        connections.append(conn)
        return conn.client()

    owners = {}

    def make_client(user_id, owner=True):
        return REEDClient(
            user_id=user_id,
            key_client=ServerAidedKeyClient(
                RemoteKeyManagerChannel(rpc(km_tcp)),
                client_id=user_id,
                cache=MLEKeyCache(64 * MiB),
            ),
            storage=ShardedStorageService(
                [RemoteStorageService(rpc(s)) for s in storage_tcp]
            ),
            keystore=RemoteKeyStore(rpc(keystore_tcp)),
            private_access_key=authority.issue_private_key(user_id),
            wrap_keys_provider=authority.wrap_keys_for,
            keyreg_owner=(
                owners.setdefault(user_id, KeyRegressionOwner(key_bits=1024))
                if owner
                else None
            ),
            chunking=ChunkingSpec(method="fixed", avg_size=8192),
        )

    alice = make_client("alice")
    bob = make_client("bob", owner=False)

    data = unique_data(1 * MiB, seed=1)
    print(f"\nAlice uploads {len(data):,} bytes over TCP...")
    result = alice.upload(
        "tcp-file", data, policy=FilePolicy.for_users(["alice", "bob"])
    )
    print(
        f"  {result.chunk_count} chunks striped over "
        f"{sum(1 for s in data_servers if s.stats.chunks_stored)} data servers: "
        + ", ".join(f"{s.stats.chunks_stored} chunks" for s in data_servers)
    )

    print("Bob downloads over TCP...")
    assert bob.download("tcp-file").data == data
    print("  content verified")

    print("Alice revokes Bob (active) over TCP...")
    alice.revoke_users("tcp-file", {"bob"}, RevocationMode.ACTIVE)
    try:
        bob.download("tcp-file")
    except AccessDeniedError:
        print("  Bob is locked out; Alice still reads fine")
    assert alice.download("tcp-file").data == data

    print(f"\nKey manager served {km.stats.signatures} OPRF signatures in "
          f"{km.stats.batches} batches.")
    for conn in connections:
        conn.close()
    for srv in storage_tcp + [keystore_tcp, km_tcp]:
        srv.stop()
    print("Cluster stopped. Done.")


if __name__ == "__main__":
    main()
