"""The rig every workload runs on: one in-process ``TcpCluster``.

Identical for all workloads and recorded in the output (:data:`RIG`).
The cluster, its servers and the load generator share one process;
clients reach every node over real localhost sockets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.client import REEDClient
from repro.core.cluster import TcpCluster
from repro.crypto.drbg import HmacDrbg
from repro.obs.expo import parse_prometheus, render_prometheus
from repro.obs.metrics import default_registry
from repro.storage.fsck import FsckReport, fsck

from benchmarks.e2e.record import Recorder
from benchmarks.e2e.tracing import ClientProbe

DATA_SERVERS = 4
REPLICAS = 2
KEY_BITS = 1024
#: Node names of the data servers in ``TcpCluster`` start with this.
DATA_NODE_PREFIX = "storage-"

RIG = {
    "cluster": "one in-process TcpCluster, aio transport, localhost sockets",
    "data_servers": DATA_SERVERS,
    "replicas": REPLICAS,
    "key_bits": KEY_BITS,
    "scheme": "enhanced",
    "cipher": "hashctr (shipped default)",
    "chunking": "rabin, 8 KiB average (default ChunkingSpec)",
    "backend": "MemoryBackend, no fsync",
    "background_work": "none (gc_interval=None, no repair daemon)",
    "clients": "cluster.new_client defaults: pipeline_depth=2, "
    "encryption_workers=cpu count",
    "loop": "closed; client threads never exceed nproc",
}

#: Series sums keep RPCs of the benchmark's own scrapes out.
_OWN_METHODS = ("metrics", "traces")

Series = dict[tuple[str, frozenset], float]


@dataclass
class BenchClient:
    """A ``REEDClient`` plus what the recorder needs to know about it."""

    user: str
    reed: REEDClient
    probe: ClientProbe | None


@dataclass(frozen=True)
class Snapshot:
    """Every series the nodes and the client side serve, at one instant."""

    nodes: dict[str, Series]
    client: Series

    def total(
        self, name: str, node_prefix: str | None = None, method_prefix: str = ""
    ) -> float:
        """Sum of one series: over the client-side registry when
        ``node_prefix`` is ``None``, else over the nodes whose name
        starts with it; ``method_prefix`` filters the ``method`` label."""
        if node_prefix is None:
            sources = [self.client]
        else:
            sources = [
                series
                for node, series in self.nodes.items()
                if node.startswith(node_prefix)
            ]
        total = 0.0
        for series in sources:
            for (series_name, labels), value in series.items():
                if series_name != name:
                    continue
                method = dict(labels).get("method", "")
                if method in _OWN_METHODS or not method.startswith(method_prefix):
                    continue
                total += value
        return total


class Rig:
    """Boots the cluster, hands out clients, and reads state from outside."""

    def __init__(self, workload: str, seed: int, rec: Recorder) -> None:
        self.rec = rec
        self.cluster = TcpCluster(
            num_data_servers=DATA_SERVERS,
            replicas=REPLICAS,
            key_bits=KEY_BITS,
            rng=HmacDrbg(f"e2e/{workload}/{seed}".encode()),
        )
        self._clients: list[BenchClient] = []

    def new_client(
        self, user: str, owner: bool = True, cache_bytes: int | None = None
    ) -> BenchClient:
        reed = self.cluster.new_client(user, owner=owner, cache_bytes=cache_bytes)
        probe = ClientProbe(reed, self.rec.log) if self.rec.trace else None
        client = BenchClient(user=user, reed=reed, probe=probe)
        self._clients.append(client)
        return client

    def snapshot(self) -> Snapshot:
        """Scrape every node over its ``metrics`` RPC, plus the process
        default registry the in-process clients report into."""
        return Snapshot(
            nodes={
                node: parse_prometheus(text)
                for node, text in self.cluster.scrape_all().items()
            },
            client=parse_prometheus(render_prometheus(default_registry())),
        )

    def fsck_all(self) -> list[FsckReport]:
        """A full consistency pass over every data node's store."""
        return [fsck(server.store) for server in self.cluster.servers]

    def stored_bytes(self) -> int:
        """Bytes held by every data node's backend plus the key store's
        (replicas included).  Call after :meth:`fsck_all`, which seals
        open containers."""
        return sum(
            server.store.backend.total_bytes() for server in self.cluster.servers
        ) + self.cluster.keystore.backend.total_bytes()

    def close(self) -> None:
        """Reap every client's worker processes and fetch threads, then
        stop the servers."""
        for client in self._clients:
            client.reed.close()
            client.reed.storage.close()
        self._clients.clear()
        self.cluster.stop()
