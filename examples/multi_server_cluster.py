#!/usr/bin/env python3
"""A REED cluster over real TCP sockets (the paper's Fig. 1 topology).

Starts, each on its own localhost port:

* two data-store servers (the paper uses four; two keeps the demo quick),
* one key-store server, and
* one key manager (1024-bit blind-RSA OPRF, as in the paper),

then builds two clients that reach them purely through RPC stubs — the
same client code the in-process examples use, pointed at sockets
instead.  ``TcpCluster`` does the wiring with the same node server as
``reed serve`` and the same client builder as ``build_system``.

Run:  python examples/multi_server_cluster.py
"""

from repro.chunking.chunker import ChunkingSpec
from repro.core.cluster import TcpCluster
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.util.errors import AccessDeniedError
from repro.util.units import MiB
from repro.workloads.synthetic import unique_data


def main() -> None:
    print("Starting cluster services on localhost...")
    with TcpCluster(
        num_data_servers=2,
        key_bits=1024,
        chunking=ChunkingSpec(method="fixed", avg_size=8192),
    ) as cluster:
        for node, (host, port) in cluster.node_addresses().items():
            print(f"  {node:12s} listening on {host}:{port}")

        alice = cluster.new_client("alice", cache_bytes=64 * MiB)
        bob = cluster.new_client("bob", owner=False, cache_bytes=64 * MiB)

        data = unique_data(1 * MiB, seed=1)
        print(f"\nAlice uploads {len(data):,} bytes over TCP...")
        result = alice.upload(
            "tcp-file", data, policy=FilePolicy.for_users(["alice", "bob"])
        )
        servers = cluster.servers
        print(
            f"  {result.chunk_count} chunks striped over "
            f"{sum(1 for s in servers if s.stats.chunks_stored)} data servers: "
            + ", ".join(f"{s.stats.chunks_stored} chunks" for s in servers)
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

        km = cluster.node_metrics["key-manager"]
        print(f"\nKey manager served {km.value('km_signatures_total'):.0f} OPRF "
              f"signatures in {km.value('km_sign_batches_total'):.0f} batches.")
    print("Cluster stopped. Done.")


if __name__ == "__main__":
    main()
