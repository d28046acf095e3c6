"""One-call TCP cluster assembly.

``examples/multi_server_cluster.py`` and the integration tests used to
hand-wire the paper's topology (data-store servers, a key-store server,
and the key manager, each behind its own :class:`TcpServer`).  This
module packages that wiring as :class:`TcpCluster`, a context manager
that serves everything on localhost sockets and builds fully remote
clients — used by the TCP benchmark scenario, the quickstart, and any
test that wants a real network between client and servers.
"""

from __future__ import annotations

from repro.abe.cpabe import AttributeAuthority
from repro.chunking.chunker import ChunkingSpec
from repro.core.client import REEDClient
from repro.core.server import REEDServer
from repro.core.service import (
    RemoteKeyManagerChannel,
    RemoteKeyStore,
    RemoteStorageService,
    register_key_manager,
    register_keystate_service,
    register_storage_service,
)
from repro.core.system import FAST_KEY_BITS
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.keyreg.rsa_keyreg import KeyRegressionOwner
from repro.mle.cache import MLEKeyCache
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import DEFAULT_BATCH_SIZE, ServerAidedKeyClient
from repro.net.rpc import ServiceRegistry
from repro.net.tcp import (
    DEFAULT_CLIENT_WINDOW,
    DEFAULT_CONNECTION_WINDOW,
    DEFAULT_IDLE_TIMEOUT,
    DEFAULT_MAX_WORKERS,
    TcpConnection,
    TcpServer,
    ThreadedTcpServer,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import (
    dump_tracer,
    fetch_traces,
    merge_traces,
    register_traces,
)
from repro.obs.rpc import register_metrics, scrape
from repro.obs.tracing import Tracer, default_tracer
from repro.storage.datastore import DataStore
from repro.storage.gc import CompactionDaemon
from repro.storage.keystore import KeyStore
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import ConfigurationError


class TcpCluster:
    """A full REED deployment on localhost TCP sockets.

    Every service — each data-store server, the key store, and the key
    manager — listens on its own port behind a concurrent
    :class:`TcpServer`; clients built by :meth:`new_client` reach all of
    them exclusively over the network, so round-trip counters measure
    real socket traffic.

    Use as a context manager::

        with TcpCluster(num_data_servers=2) as cluster:
            alice = cluster.new_client("alice")
            alice.upload("file", data)

    ``transport`` selects the server generation: ``"aio"`` (default) is
    the asyncio-multiplexed :class:`TcpServer`; ``"threaded"`` is the
    legacy thread-per-connection :class:`ThreadedTcpServer` kept for
    benchmarking.  ``idle_timeout`` / ``connection_window`` tune the aio
    servers' dead-peer drop and per-connection request window;
    ``client_window`` bounds in-flight calls per client connection.
    """

    def __init__(
        self,
        num_data_servers: int = 2,
        key_bits: int = FAST_KEY_BITS,
        scheme: str = "enhanced",
        chunking: ChunkingSpec | None = None,
        key_batch_size: int = DEFAULT_BATCH_SIZE,
        rng: RandomSource | None = None,
        max_workers: int = DEFAULT_MAX_WORKERS,
        transport: str = "aio",
        idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
        connection_window: int = DEFAULT_CONNECTION_WINDOW,
        client_window: int = DEFAULT_CLIENT_WINDOW,
        replicas: int = 1,
        write_quorum: int | None = None,
        gc_threshold: float | None = None,
        gc_interval: float | None = None,
    ) -> None:
        if num_data_servers < 1:
            raise ConfigurationError("need at least one data server")
        if transport not in ("aio", "threaded"):
            raise ConfigurationError(
                f"unknown transport {transport!r}: expected 'aio' or 'threaded'"
            )
        if not 1 <= replicas <= num_data_servers:
            raise ConfigurationError(
                f"replicas must be in 1..{num_data_servers}"
            )
        self._rng = rng or SYSTEM_RANDOM
        self.scheme = scheme
        self.chunking = chunking
        self.key_batch_size = key_batch_size
        self.replicas = replicas
        self.write_quorum = write_quorum
        #: Dead-space threshold for per-node compaction engines and, when
        #: ``gc_interval`` is set, the background compaction daemons.
        self.gc_threshold = gc_threshold
        self.gc_interval = gc_interval
        #: Per-node metrics registries keyed by node name
        #: (``storage-0`` … ``keystore`` / ``key-manager``).  Each node's
        #: DataStore, TcpServer, RPC dispatch, and ``metrics`` RPC method
        #: share its registry, so a live scrape sees one coherent
        #: snapshot per node (container/gc series included).
        self.node_metrics: dict[str, MetricsRegistry] = {}
        #: Per-node tracers keyed by node name.  Handler spans for
        #: propagated trace contexts land here with the node name
        #: attached; each node serves its ring over the ``traces`` RPC.
        self.node_tracers: dict[str, Tracer] = {}
        self._gc_daemons: dict[str, CompactionDaemon] = {}
        self.key_manager = KeyManager(key_bits=key_bits, rng=self._rng)
        self.authority = AttributeAuthority(rng=self._rng)
        self.servers = [
            self._new_data_server(index) for index in range(num_data_servers)
        ]
        self.keystore = KeyStore()
        self._keyreg_bits = key_bits
        self._owners: dict[str, KeyRegressionOwner] = {}
        self._transport = transport
        self._max_workers = max_workers
        self._idle_timeout = idle_timeout
        self._connection_window = connection_window
        self._client_window = client_window
        #: Live TCP servers keyed by node name; a killed data server's
        #: entry is removed until :meth:`restart_data_server` revives it.
        self._node_servers: dict[str, TcpServer | ThreadedTcpServer] = {}
        self._connections: list[TcpConnection] = []

        self.storage_addresses = [
            self._serve(register_storage_service, server, f"storage-{index}")
            for index, server in enumerate(self.servers)
        ]
        self.keystore_address = self._serve(
            register_keystate_service, self.keystore, "keystore"
        )
        self.key_manager_address = self._serve(
            register_key_manager, self.key_manager, "key-manager"
        )
        for index in range(num_data_servers):
            self._start_gc_daemon(index)

    def _new_data_server(self, index: int, backend=None) -> REEDServer:
        """Build one data server over the node's metrics registry.

        ``backend`` revives a node over its surviving blobs — the store
        replays the fingerprint-index journal written by ``flush()``,
        the true "process restarted on the same disk" path.
        """
        node = f"storage-{index}"
        metrics = self.node_metrics.setdefault(node, MetricsRegistry())
        store = DataStore(backend, metrics=metrics)
        return REEDServer(store, gc_threshold=self.gc_threshold)

    def _start_gc_daemon(self, index: int) -> None:
        if self.gc_interval is None:
            return
        node = f"storage-{index}"
        daemon = CompactionDaemon(
            self.servers[index].gc_engine(), interval=self.gc_interval
        )
        daemon.start()
        self._gc_daemons[node] = daemon

    def _serve(
        self, register, obj, node: str, port: int = 0
    ) -> tuple[str, int]:
        """Start one node's TCP server; reuses the node's metrics
        registry (and, via ``port``, its address) across restarts."""
        metrics = self.node_metrics.setdefault(node, MetricsRegistry())
        tracer = self.node_tracers.setdefault(
            node, Tracer(metrics=metrics, node=node)
        )
        registry = ServiceRegistry(metrics=metrics, tracer=tracer)
        register(registry, obj)
        register_metrics(registry, metrics)
        register_traces(registry, tracer)
        if self._transport == "aio":
            server = TcpServer(
                registry,
                port=port,
                max_workers=self._max_workers,
                metrics=metrics,
                idle_timeout=self._idle_timeout,
                connection_window=self._connection_window,
            )
        else:
            server = ThreadedTcpServer(
                registry, port=port, max_workers=self._max_workers,
                metrics=metrics,
            )
        server.start()
        self._node_servers[node] = server
        return server.address

    # ------------------------------------------------------------------

    def _connect(self, address: tuple[str, int]):
        connection = TcpConnection(*address, max_in_flight=self._client_window)
        self._connections.append(connection)
        return connection.client()

    def new_client(
        self,
        user_id: str,
        owner: bool = True,
        cache_bytes: int | None = None,
        key_batch_size: int | None = None,
        upload_batch_bytes: int | None = None,
        pipeline_depth: int = 2,
        encryption_workers: int | None = None,
        chunk_cache_bytes: int | None = None,
        fetch_workers: int | None = None,
        rekey_workers: int | None = None,
        rekey_batch_size: int | None = None,
    ) -> REEDClient:
        """Enroll a user and build a client wired entirely over TCP.

        ``fetch_workers`` bounds the scatter-gather pool the client's
        sharded storage uses for concurrent per-shard sub-fetches (1
        forces serial fetches); ``chunk_cache_bytes`` enables the
        client-side trimmed-package read cache; ``rekey_workers`` /
        ``rekey_batch_size`` size the batched rekeying pipeline.
        """
        storage = ShardedStorageService(
            [
                RemoteStorageService(self._connect(address))
                for address in self.storage_addresses
            ],
            fetch_workers=fetch_workers,
            replicas=self.replicas,
            write_quorum=self.write_quorum,
        )
        key_client = ServerAidedKeyClient(
            RemoteKeyManagerChannel(self._connect(self.key_manager_address)),
            client_id=user_id,
            cache=MLEKeyCache(cache_bytes) if cache_bytes else None,
            batch_size=key_batch_size or self.key_batch_size,
            rng=self._rng,
        )
        keyreg_owner = None
        if owner:
            keyreg_owner = self._owners.setdefault(
                user_id,
                KeyRegressionOwner(key_bits=self._keyreg_bits, rng=self._rng),
            )
        kwargs = {}
        if upload_batch_bytes is not None:
            kwargs["upload_batch_bytes"] = upload_batch_bytes
        if rekey_batch_size is not None:
            kwargs["rekey_batch_size"] = rekey_batch_size
        return REEDClient(
            user_id=user_id,
            key_client=key_client,
            storage=storage,
            keystore=RemoteKeyStore(self._connect(self.keystore_address)),
            private_access_key=self.authority.issue_private_key(user_id),
            wrap_keys_provider=self.authority.wrap_keys_for,
            keyreg_owner=keyreg_owner,
            scheme=self.scheme,
            chunking=self.chunking,
            pipeline_depth=pipeline_depth,
            encryption_workers=encryption_workers,
            chunk_cache_bytes=chunk_cache_bytes,
            rekey_workers=rekey_workers,
            rng=self._rng,
            **kwargs,
        )

    def server_stats(self) -> list[dict]:
        """Per-TCP-server counters (connections, requests, in-flight)."""
        return [server.stats() for server in self._node_servers.values()]

    # -- node lifecycle -------------------------------------------------

    def kill_data_server(self, index: int) -> None:
        """Stop one data server's TCP listener mid-flight (fault drill).

        In-flight and subsequent calls to it surface as transport errors;
        replicated clients mark the node down and route around it.  The
        server object (and its in-memory store) is kept, so
        :meth:`restart_data_server` brings the node back with the data it
        held at kill time.
        """
        node = f"storage-{index}"
        server = self._node_servers.pop(node, None)
        if server is None:
            raise ConfigurationError(f"data server {index} is not running")
        daemon = self._gc_daemons.pop(node, None)
        if daemon is not None:
            daemon.stop()
        server.stop(drain=False)

    def restart_data_server(self, index: int, wipe: bool = False) -> None:
        """Bring a killed data server back on its original port.

        ``wipe=True`` restarts it with an empty store — the
        "replaced the dead disk" scenario the repair daemon exists for.
        ``wipe=False`` rebuilds the server *process* over the node's
        surviving backend: the store resumes container numbering and
        replays the fingerprint-index journal persisted by ``flush()``,
        so chunks stored before the kill stay reachable.  Clients
        reconnect transparently (the multiplexed connection re-dials);
        call ``probe_nodes()`` on a client's storage service (or let the
        repair daemon do it) to mark the node up again.
        """
        node = f"storage-{index}"
        if node in self._node_servers:
            raise ConfigurationError(f"data server {index} is still running")
        if wipe:
            self.servers[index] = self._new_data_server(index)
        else:
            self.servers[index] = self._new_data_server(
                index, backend=self.servers[index].store.backend
            )
        address = self._serve(
            register_storage_service,
            self.servers[index],
            node,
            port=self.storage_addresses[index][1],
        )
        self.storage_addresses[index] = address
        self._start_gc_daemon(index)

    def add_data_server(self) -> int:
        """Join a fresh data server; returns its index.

        Only clients built *after* the join see the new node (ring
        membership is per client, applied in attach order); live clients
        can attach it with ``storage.add_service``.  Migrate moved keys
        with :func:`repro.storage.repair.rebalance`.
        """
        index = len(self.servers)
        server = self._new_data_server(index)
        self.servers.append(server)
        self.storage_addresses.append(
            self._serve(register_storage_service, server, f"storage-{index}")
        )
        self._start_gc_daemon(index)
        return index

    def connect_storage(self, index: int) -> RemoteStorageService:
        """A fresh RPC stub for one data server (repair/rebalance tooling)."""
        return RemoteStorageService(
            self._connect(self.storage_addresses[index])
        )

    # -- telemetry ------------------------------------------------------

    def node_addresses(self) -> dict[str, tuple[str, int]]:
        """Node name → (host, port) for every served node."""
        addresses = {
            f"storage-{index}": address
            for index, address in enumerate(self.storage_addresses)
        }
        addresses["keystore"] = self.keystore_address
        addresses["key-manager"] = self.key_manager_address
        return addresses

    def scrape_node(self, node: str, fmt: str = "prometheus") -> str:
        """Scrape one node's metrics over a real TCP ``metrics`` RPC."""
        address = self.node_addresses()[node]
        return scrape(self._connect(address), fmt=fmt)

    def scrape_all(self, fmt: str = "prometheus") -> dict[str, str]:
        """Live-scrape every node; node name → exposition text."""
        return {node: self.scrape_node(node, fmt) for node in self.node_addresses()}

    def fetch_node_traces(
        self, node: str, trace_id: str | None = None
    ) -> dict:
        """One node's trace dump over a real TCP ``traces`` RPC."""
        address = self.node_addresses()[node]
        return fetch_traces(self._connect(address), trace_id=trace_id)

    def merged_traces(
        self,
        trace_id: str | None = None,
        include_local: bool = True,
        extra_dumps: list[dict] | None = None,
    ) -> list[dict]:
        """Assemble distributed traces across every node of the cluster.

        Fetches each node's fragment ring over RPC and splices them into
        one tree per trace id (see
        :func:`repro.obs.propagate.merge_traces`).  ``include_local``
        also folds in the process-default tracer — the client half of
        the trace when the caller runs in this process; ``extra_dumps``
        adds explicit tracer dumps (e.g. a client built with its own
        metrics registry).
        """
        dumps = [
            self.fetch_node_traces(node, trace_id=trace_id)
            for node in self.node_addresses()
        ]
        if include_local:
            dumps.append(dump_tracer(default_tracer(), node="client"))
        if extra_dumps:
            dumps.extend(extra_dumps)
        merged = merge_traces(dumps)
        if trace_id is not None:
            merged = [entry for entry in merged if entry["trace_id"] == trace_id]
        return merged

    def stop(self, drain: bool = True) -> None:
        """Close every client connection, stop every server and reap the
        key manager's signing workers."""
        for daemon in self._gc_daemons.values():
            daemon.stop()
        self._gc_daemons.clear()
        for connection in self._connections:
            connection.close()
        self._connections.clear()
        for server in self._node_servers.values():
            server.stop(drain=drain)
        self._node_servers.clear()
        self.key_manager.close()

    def __enter__(self) -> "TcpCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
