"""The ``reed`` command-line tool.

Operates a REED deployment from the shell:

* ``reed org init`` — create an organization directory: the trust root
  holding the attribute authority's master secret, the key manager's
  RSA key, and per-user derivation keys.  In the paper's setting this
  is the enterprise's security office (Section III).
* ``reed serve storage|keystore|km`` — run one service on a TCP port.
* ``reed upload / download / revoke / ls`` — client operations against
  a running cluster.
* ``reed demo`` — an end-to-end in-process walkthrough.

Example session::

    reed org init --org ./org
    reed serve storage  --org ./org --port 7001 --data ./srv1 &
    reed serve storage  --org ./org --port 7002 --data ./srv2 &
    reed serve keystore --org ./org --port 7010 &
    reed serve km       --org ./org --port 7020 &

    reed upload   --org ./org --user alice --storage localhost:7001,localhost:7002 \\
                  --keystore localhost:7010 --km localhost:7020 \\
                  --id report --file ./report.bin --policy "alice or bob"
    reed download --org ./org --user bob   ... --id report --out ./copy.bin
    reed revoke   --org ./org --user alice ... --id report --users bob --mode active
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import threading

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
    serve_node,
    start_compaction,
)
from repro.core.system import build_client
from repro.crypto.rsa import RSAPrivateKey, generate_keypair
from repro.keyreg.rsa_keyreg import KeyRegressionOwner
from repro.mle.keymanager import KeyManager
from repro.net.tcp import (
    DEFAULT_CLIENT_WINDOW,
    DEFAULT_IDLE_TIMEOUT,
    TcpConnection,
    TcpServer,
)
from repro.obs.expo import parse_prometheus, quantile_from_cumulative
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import (
    dump_tracer,
    fetch_traces,
    format_merged,
    merge_traces,
)
from repro.obs.rpc import scrape
from repro.obs.tracing import Tracer, default_tracer
from repro.storage.backend import DirectoryBackend
from repro.storage.datastore import DataStore
from repro.storage.keystore import KeyStore
from repro.storage.sharding import HashRing, ShardedStorageService
from repro.util.errors import ConfigurationError, ReproError
from repro.util.units import MiB

_MASTER_FILE = "authority.master"
_KM_FILE = "keymanager.rsa"
_USERS_DIR = "users"


# ---------------------------------------------------------------------------
# Organization state
# ---------------------------------------------------------------------------


class OrgState:
    """The organization directory: authority, KM key, user keys."""

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)

    def _file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def exists(self) -> bool:
        return os.path.isfile(self._file(_MASTER_FILE))

    def init(self, key_bits: int) -> None:
        if self.exists():
            raise ConfigurationError(f"organization already initialized at {self.path}")
        os.makedirs(self._file(_USERS_DIR), exist_ok=True)
        with open(self._file(_MASTER_FILE), "wb") as handle:
            handle.write(os.urandom(32))
        with open(self._file(_KM_FILE), "wb") as handle:
            handle.write(generate_keypair(key_bits).encode())

    def authority(self) -> AttributeAuthority:
        with open(self._file(_MASTER_FILE), "rb") as handle:
            return AttributeAuthority(master_secret=handle.read())

    def key_manager_key(self) -> RSAPrivateKey:
        with open(self._file(_KM_FILE), "rb") as handle:
            return RSAPrivateKey.decode(handle.read())

    def derivation_key(self, user: str, key_bits: int) -> RSAPrivateKey:
        """Load or create a user's derivation keypair (owner identity)."""
        path = os.path.join(self._file(_USERS_DIR), f"{user}.key")
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                return RSAPrivateKey.decode(handle.read())
        key = generate_keypair(key_bits)
        with open(path, "wb") as handle:
            handle.write(key.encode())
        return key


def _load_org(args) -> OrgState:
    org = OrgState(args.org)
    if not org.exists():
        raise ConfigurationError(
            f"no organization at {org.path}; run `reed org init --org {args.org}`"
        )
    return org


# ---------------------------------------------------------------------------
# Client wiring
# ---------------------------------------------------------------------------


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigurationError(f"endpoint must be host:port, got {text!r}")
    return host, int(port)


def _build_client(args, org: OrgState) -> tuple[REEDClient, list[TcpConnection]]:
    connections: list[TcpConnection] = []

    def connect(endpoint: str):
        conn = TcpConnection(
            *_parse_endpoint(endpoint),
            timeout=args.rpc_timeout,
            max_in_flight=args.rpc_window,
            auto_retry=not args.no_rpc_retry,
        )
        connections.append(conn)
        return conn.client()

    storage = ShardedStorageService(
        [RemoteStorageService(connect(ep)) for ep in args.storage.split(",")],
        replicas=args.replicas,
        write_quorum=args.write_quorum or None,
    )
    client = build_client(
        args.user,
        org.authority(),
        KeyRegressionOwner(private_key=org.derivation_key(args.user, args.key_bits)),
        RemoteKeyManagerChannel(connect(args.km)),
        storage,
        RemoteKeyStore(connect(args.keystore)),
        cache_bytes=256 * MiB,
        scheme=args.scheme,
        chunking=ChunkingSpec(avg_size=args.chunk_size),
        chunk_cache_bytes=args.chunk_cache_bytes or None,
        rekey_workers=args.rekey_workers or None,
    )
    return client, connections


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--org", required=True, help="organization directory")
    parser.add_argument("--user", required=True, help="acting user id")
    parser.add_argument(
        "--storage", required=True, help="comma-separated data-server host:port list"
    )
    parser.add_argument("--keystore", required=True, help="key-store host:port")
    parser.add_argument("--km", required=True, help="key-manager host:port")
    parser.add_argument("--scheme", default="enhanced", choices=["basic", "enhanced"])
    parser.add_argument("--chunk-size", type=int, default=8192)
    parser.add_argument("--key-bits", type=int, default=1024)
    parser.add_argument(
        "--chunk-cache-bytes",
        type=int,
        default=0,
        help="client-side trimmed-package read cache budget (0 disables)",
    )
    parser.add_argument(
        "--rekey-workers",
        type=int,
        default=0,
        help="stub re-encryption workers for batched rekeying "
        "(0 = one per CPU, capped)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="ring replicas per key across the data servers",
    )
    parser.add_argument(
        "--write-quorum",
        type=int,
        default=0,
        help="replicas that must acknowledge a write (0 = default of 1)",
    )
    parser.add_argument(
        "--rpc-timeout",
        type=float,
        default=30.0,
        help="per-call response timeout in seconds on each connection",
    )
    parser.add_argument(
        "--rpc-window",
        type=int,
        default=DEFAULT_CLIENT_WINDOW,
        help="max in-flight calls per multiplexed connection "
        "(senders block when the window is full)",
    )
    parser.add_argument(
        "--no-rpc-retry",
        action="store_true",
        help="disable transparent reconnect+retry of idempotent methods",
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_org_init(args) -> int:
    org = OrgState(args.org)
    org.init(args.key_bits)
    print(f"organization initialized at {org.path}")
    return 0


def start_service(
    role: str,
    org: OrgState,
    host: str = "127.0.0.1",
    port: int = 0,
    data: str | None = None,
    idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
    gc_threshold: float | None = None,
    gc_interval: float | None = None,
) -> TcpServer:
    """Start one REED service and return its (already listening) server.

    Used by ``reed serve`` and directly by tests/embedding code.  A
    storage server started with ``gc_interval`` runs the compaction
    daemon for its own store (threshold overridable per server); the
    daemon thread dies with the process.
    """
    metrics = MetricsRegistry()
    if role == "storage":
        backend = DirectoryBackend(data) if data else None
        service = REEDServer(
            DataStore(backend, metrics=metrics), gc_threshold=gc_threshold
        )
        register = register_storage_service
        if gc_interval is not None:
            start_compaction(service, gc_interval)
    elif role == "keystore":
        backend = DirectoryBackend(data) if data else None
        service = KeyStore(backend)
        register = register_keystate_service
    elif role == "km":
        service = KeyManager(private_key=org.key_manager_key())
        register = register_key_manager
    else:
        raise ConfigurationError(f"unknown service role {role!r}")
    return serve_node(
        register,
        service,
        metrics,
        Tracer(metrics=metrics, node=role),
        host=host,
        port=port,
        idle_timeout=idle_timeout,
    )


def cmd_serve(args) -> int:
    org = _load_org(args)
    server = start_service(
        args.role,
        org,
        args.host,
        args.port,
        args.data,
        idle_timeout=args.idle_timeout or None,
        gc_threshold=args.gc_threshold,
        gc_interval=args.gc_interval,
    )
    host, port = server.address
    print(f"{args.role} serving on {host}:{port}", flush=True)
    if args.once:  # test hook: do not block; the caller owns the lifetime
        return 0
    # SIGTERM takes the same exit as Ctrl-C: a normal interpreter exit,
    # at which worker processes a service started (the key manager's
    # signers) are told to finish and joined rather than orphaned.
    stopped = threading.Event()
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda *_: stopped.set())
    try:
        stopped.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_upload(args) -> int:
    org = _load_org(args)
    client, connections = _build_client(args, org)
    try:
        with open(args.file, "rb") as handle:
            data = handle.read()
        policy = (
            FilePolicy.parse(args.policy)
            if args.policy
            else FilePolicy.for_users([args.user])
        )
        result = client.upload(args.id, data, policy=policy, pathname=args.file)
        print(
            f"uploaded {result.size:,} bytes as {args.id!r}: "
            f"{result.chunk_count} chunks, {result.new_chunks} new, "
            f"policy {policy.text}"
        )
        return 0
    finally:
        for conn in connections:
            conn.close()


def cmd_download(args) -> int:
    org = _load_org(args)
    client, connections = _build_client(args, org)
    try:
        # Streams through the restore pipeline: memory stays bounded by
        # pipeline_depth fetch windows regardless of file size, and an
        # aborted download leaves no partial file behind.
        result = client.download_path(args.id, args.out)
        cache_note = (
            f", {result.chunk_cache_hits} cache hits"
            if result.chunk_cache_hits
            else ""
        )
        print(
            f"downloaded {args.id!r}: {result.size:,} bytes -> {args.out} "
            f"({result.chunk_count} chunks, "
            f"{result.store_round_trips} store RPCs{cache_note})"
        )
        return 0
    finally:
        for conn in connections:
            conn.close()


def cmd_rm(args) -> int:
    org = _load_org(args)
    client, connections = _build_client(args, org)
    try:
        client.delete(args.id)
        print(f"deleted {args.id!r}")
        return 0
    finally:
        for conn in connections:
            conn.close()


def cmd_revoke(args) -> int:
    org = _load_org(args)
    client, connections = _build_client(args, org)
    try:
        mode = RevocationMode(args.mode)
        result = client.revoke_users(args.id, set(args.users.split(",")), mode)
        print(
            f"rekeyed {args.id!r} ({mode.value}): key "
            f"v{result.old_key_version} -> v{result.new_key_version}, "
            f"new policy {result.new_policy_text}, "
            f"{result.stub_bytes_reencrypted:,} stub bytes moved, "
            f"{result.store_round_trips} store + "
            f"{result.keystore_round_trips} keystore round trips"
        )
        return 0
    finally:
        for conn in connections:
            conn.close()


def cmd_group(args) -> int:
    from repro.core.groups import GroupManager

    org = _load_org(args)
    client, connections = _build_client(args, org)
    try:
        groups = GroupManager(client)
        if args.group_command == "create":
            groups.create_group(args.group, FilePolicy.parse(args.policy))
            print(f"group {args.group!r} created with policy {args.policy}")
        elif args.group_command == "upload":
            with open(args.file, "rb") as handle:
                data = handle.read()
            result = groups.upload(args.group, args.id, data, pathname=args.file)
            print(
                f"uploaded {result.size:,} bytes as {args.id!r} into group "
                f"{args.group!r} ({result.new_chunks} new chunks)"
            )
        elif args.group_command == "members":
            for file_id in groups.members(args.group):
                print(file_id)
        else:  # revoke
            mode = RevocationMode(args.mode)
            result = groups.revoke_users(args.group, set(args.users.split(",")), mode)
            print(
                f"group {args.group!r} rekeyed ({mode.value}): "
                f"v{result.old_group_version} -> v{result.new_group_version}, "
                f"{result.files_rewrapped} files re-wrapped with "
                f"{result.abe_operations} policy encryption in "
                f"{result.batches} pipeline batches "
                f"({result.store_round_trips} store + "
                f"{result.keystore_round_trips} keystore round trips)"
            )
        return 0
    finally:
        for conn in connections:
            conn.close()


def cmd_ls(args) -> int:
    org = _load_org(args)
    client, connections = _build_client(args, org)
    try:
        for file_id in client.storage.recipe_list():
            print(file_id)
        return 0
    finally:
        for conn in connections:
            conn.close()


def _scrape_endpoints(endpoints: str, fmt: str = "prometheus") -> list[tuple[str, str]]:
    """Scrape each ``host:port`` in the comma-separated list.

    Returns ``(endpoint, exposition_text)`` pairs; connections are
    closed before returning.
    """
    results: list[tuple[str, str]] = []
    for endpoint in endpoints.split(","):
        endpoint = endpoint.strip()
        conn = TcpConnection(*_parse_endpoint(endpoint))
        try:
            results.append((endpoint, scrape(conn.client(), fmt=fmt)))
        finally:
            conn.close()
    return results


def cmd_stats(args) -> int:
    """Dump raw metrics from every endpoint (Prometheus text or JSON)."""
    for endpoint, text in _scrape_endpoints(args.endpoints, args.format):
        print(f"# ---- {endpoint} ----")
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def cmd_top(args) -> int:
    """A compact live view: per-endpoint health plus hottest RPC methods."""
    for endpoint, text in _scrape_endpoints(args.endpoints):
        series = parse_prometheus(text)

        def value(name: str, **labels) -> float | None:
            return series.get((name, frozenset(labels.items())))

        print(f"{endpoint}")
        conns = value("tcp_active_connections")
        in_flight = value("tcp_in_flight_requests")
        queued = value("tcp_queue_depth")
        served = value("tcp_requests_total")
        if served is not None:
            line = (
                f"  tcp: {served:.0f} served, "
                f"{conns or 0:.0f} connections, "
                f"{in_flight or 0:.0f} in flight, {queued or 0:.0f} queued"
            )
            idle_drops = value("tcp_idle_drops_total")
            if idle_drops:
                line += f", {idle_drops:.0f} idle drops"
            print(line)
        # Hottest methods: request count, mean, and p50/p99 handler
        # latency — the quantiles interpolated from the same cumulative
        # bucket series a Prometheus scrape would see.
        def buckets_for(method: str) -> list[tuple[float, float]]:
            pairs: list[tuple[float, float]] = []
            for (name, labels), count in series.items():
                if name != "rpc_handler_seconds_bucket":
                    continue
                label_map = dict(labels)
                if label_map.get("method") != method or "le" not in label_map:
                    continue
                le = label_map["le"]
                pairs.append((math.inf if le == "+Inf" else float(le), count))
            return pairs

        rows: list[dict] = []
        for (name, labels), count in series.items():
            if name != "rpc_requests_total":
                continue
            method = dict(labels).get("method")
            if method is None:
                continue
            total = value("rpc_handler_seconds_sum", method=method)
            calls = value("rpc_handler_seconds_count", method=method)
            buckets = buckets_for(method)
            p50 = quantile_from_cumulative(buckets, 0.5) if buckets else None
            p99 = quantile_from_cumulative(buckets, 0.99) if buckets else None
            rows.append(
                {
                    "method": method,
                    "calls": count,
                    "mean": (total / calls) * 1000
                    if total is not None and calls
                    else 0.0,
                    "p50": (p50 or 0.0) * 1000,
                    "p99": (p99 or 0.0) * 1000,
                    "errors": value("rpc_errors_total", method=method) or 0,
                }
            )
        rows.sort(key=lambda row: row[args.sort], reverse=True)
        for row in rows[: args.limit]:
            line = (
                f"  {row['method']:<24} {row['calls']:>8.0f} calls  "
                f"{row['mean']:>8.3f} mean  {row['p50']:>8.3f} p50  "
                f"{row['p99']:>8.3f} p99 ms"
            )
            if row["errors"]:
                line += f"  {row['errors']:.0f} errors"
            print(line)
        # Client-side restore pipeline, when the endpoint exposes it:
        # chunk-cache efficiency plus per-stage download span latencies.
        hits = value("chunk_cache_hits_total")
        misses = value("chunk_cache_misses_total")
        if hits is not None or misses is not None:
            lookups = (hits or 0) + (misses or 0)
            rate = (hits or 0) / lookups * 100 if lookups else 0.0
            print(
                f"  chunk cache: {hits or 0:.0f} hits / {lookups:.0f} lookups "
                f"({rate:.1f}%), {value('chunk_cache_bytes') or 0:,.0f} bytes "
                f"resident"
            )
        for span in ("download.cache", "download.prefetch", "download.decrypt"):
            total = value("span_seconds_sum", span=span)
            calls = value("span_seconds_count", span=span)
            if total is not None and calls:
                print(
                    f"  {span:<28} {calls:>8.0f} spans  "
                    f"{total / calls * 1000:>9.3f} ms/span"
                )
    return 0


def _fetch_trace_dumps(
    endpoints: str, trace_id: str | None = None
) -> list[dict]:
    """Pull every endpoint's trace dump over its ``traces`` RPC.

    Endpoints that predate the traces method (or are unreachable) are
    skipped with a note on stderr instead of failing the whole view.
    """
    dumps: list[dict] = []
    for endpoint in endpoints.split(","):
        endpoint = endpoint.strip()
        conn = TcpConnection(*_parse_endpoint(endpoint))
        try:
            dump = fetch_traces(conn.client(), trace_id=trace_id)
        except ReproError as exc:
            print(f"note: {endpoint}: {exc}", file=sys.stderr)
            continue
        finally:
            conn.close()
        if not dump.get("node"):
            dump["node"] = endpoint
        dumps.append(dump)
    return dumps


def cmd_trace(args) -> int:
    """Assemble and render distributed traces across the endpoints.

    Fetches each node's trace-fragment ring, folds in this process's
    own tracer (the client half, when the CLI runs in the same process
    as the workload — integration tests, notebooks), and splices the
    fragments into one tree per trace id.
    """
    dumps = _fetch_trace_dumps(args.endpoints, args.trace_id or None)
    dumps.append(dump_tracer(default_tracer(), node="client"))
    merged = merge_traces(dumps)
    if args.trace_id:
        merged = [
            entry for entry in merged if entry["trace_id"] == args.trace_id
        ]
    if args.json:
        print(json.dumps(merged, indent=2, sort_keys=True))
        return 0
    if not merged:
        print("no traces")
        return 1
    for entry in merged[-args.limit :] if args.limit else merged:
        print(f"trace {entry['trace_id']}  nodes: {', '.join(entry['nodes'])}")
        if entry["root"] is not None:
            print(format_merged(entry["root"], indent="  "))
        for orphan in entry["orphans"]:
            print("  -- orphan fragment (parent span not retained) --")
            print(format_merged(orphan, indent="  "))
    return 0


def cmd_slow(args) -> int:
    """Slowest sampled spans across the endpoints, worst first."""
    dumps = _fetch_trace_dumps(args.endpoints)
    dumps.append(dump_tracer(default_tracer(), node="client"))
    entries = [entry for dump in dumps for entry in dump.get("slow", ())]
    entries.sort(key=lambda entry: entry.get("duration") or 0.0, reverse=True)
    entries = entries[: args.limit] if args.limit else entries
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        print("no slow spans")
        return 0
    for entry in entries:
        line = (
            f"{(entry.get('duration') or 0.0) * 1000:>10.3f} ms  "
            f"{entry['name']:<28} @{entry.get('node') or '?':<12} "
            f"trace={entry['trace_id']}"
        )
        if entry.get("error"):
            line += f"  !{entry['error']}"
        print(line)
    return 0


def _ring_storage(args) -> tuple[ShardedStorageService, list[TcpConnection]]:
    """A replicated storage service over the ``--storage`` endpoints."""
    connections: list[TcpConnection] = []
    services = []
    for endpoint in args.storage.split(","):
        conn = TcpConnection(*_parse_endpoint(endpoint.strip()))
        connections.append(conn)
        services.append(RemoteStorageService(conn.client()))
    return (
        ShardedStorageService(
            services,
            replicas=args.replicas,
            write_quorum=args.write_quorum or None,
        ),
        connections,
    )


def cmd_ring(args) -> int:
    """Inspect and maintain consistent-hash ring placement."""
    from repro.storage.repair import ReplicaRepairer

    if args.ring_command == "show":
        ring = HashRing(
            [f"node-{i}" for i in range(args.nodes)], vnodes=args.vnodes
        )
        shares = ring.ownership_shares()
        print(f"{args.nodes} nodes, {args.vnodes} virtual nodes each")
        for node in sorted(shares):
            share = shares[node]
            bar = "#" * round(share * 40 * args.nodes)
            print(f"  {node:<12} {share * 100:6.2f}%  {bar}")
        return 0
    if args.ring_command == "owners":
        ring = HashRing(
            [f"node-{i}" for i in range(args.nodes)], vnodes=args.vnodes
        )
        owners = ring.preference(args.key, args.replicas)
        print(f"{args.key!r} -> {', '.join(owners)}")
        return 0
    # repair: one scan-and-repair pass against a live cluster.
    storage, connections = _ring_storage(args)
    try:
        report = ReplicaRepairer(
            storage, verify_hashes=args.verify
        ).run_once()
        print(
            f"scanned {report.nodes_scanned} node(s), "
            f"{report.chunks_checked} chunks: "
            f"{report.missing_replicas} replicas missing, "
            f"{report.corrupt_replicas} corrupt; repaired "
            f"{report.chunks_repaired} chunks, "
            f"{report.files_repaired} files "
            f"({report.unrepaired} unrepaired)"
        )
        if report.failed_nodes:
            # The pass skipped these nodes, so it is incomplete.
            print(f"failed mid-scan: {', '.join(report.failed_nodes)}")
        return 1 if report.unrepaired or report.failed_nodes else 0
    finally:
        for conn in connections:
            conn.close()


def cmd_gc(args) -> int:
    """Dead-space status and compaction control for storage nodes."""
    for endpoint in args.endpoints.split(","):
        endpoint = endpoint.strip()
        conn = TcpConnection(*_parse_endpoint(endpoint))
        try:
            service = RemoteStorageService(conn.client())
            if args.gc_command == "run":
                status = service.gc_run(args.threshold)
            else:
                status = service.gc_status()
            print(
                f"{endpoint}: live {status['live_bytes']:,} B, "
                f"dead {status['dead_bytes']:,} B "
                f"(ratio {status['dead_space_ratio']:.2%}, "
                f"threshold {status['threshold']:.2f}); "
                f"{status['candidates']} candidate container(s), "
                f"{status['passes']} pass(es), "
                f"{status['bytes_reclaimed_total']:,} B reclaimed total"
            )
            if args.gc_command == "run":
                print(
                    f"  last pass: {status['last_reclaimed_bytes']:,} B "
                    f"reclaimed, {status['last_relocated_chunks']} "
                    f"chunk(s) relocated"
                )
        finally:
            conn.close()
    return 0


def cmd_demo(_args) -> int:
    from repro.core.system import build_system
    from repro.workloads.synthetic import unique_data
    from repro.util.errors import AccessDeniedError

    system = build_system()
    try:
        alice = system.new_client("alice", cache_bytes=64 * MiB)
        bob = system.new_client("bob", owner=False)
        data = unique_data(500_000, seed=1)
        alice.upload("demo", data, policy=FilePolicy.for_users(["alice", "bob"]))
        assert bob.download("demo").data == data
        print("upload + shared download: OK")
        alice.revoke_users("demo", {"bob"}, RevocationMode.ACTIVE)
        try:
            bob.download("demo")
            print("ERROR: revocation failed")
            return 1
        except AccessDeniedError:
            print("active revocation: OK")
        assert alice.download("demo").data == data
        print("owner access after rekey: OK")
        return 0
    finally:
        system.close()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reed", description="REED: rekeying-aware encrypted deduplication storage"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    org = sub.add_parser("org", help="organization management")
    org_sub = org.add_subparsers(dest="org_command", required=True)
    org_init = org_sub.add_parser("init", help="create an organization directory")
    org_init.add_argument("--org", required=True)
    org_init.add_argument("--key-bits", type=int, default=1024)
    org_init.set_defaults(func=cmd_org_init)

    serve = sub.add_parser("serve", help="run one service")
    serve.add_argument("role", choices=["storage", "keystore", "km"])
    serve.add_argument("--org", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--data", default=None, help="durable storage directory")
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=DEFAULT_IDLE_TIMEOUT,
        help="drop connections idle for this many seconds (0 disables)",
    )
    serve.add_argument(
        "--gc-threshold",
        type=float,
        default=None,
        help="storage only: dead-space ratio that makes a container a "
        "compaction candidate (default 0.25)",
    )
    serve.add_argument(
        "--gc-interval",
        type=float,
        default=None,
        help="storage only: run the compaction daemon every this many "
        "seconds (off by default; one-off passes via 'reed gc run')",
    )
    serve.add_argument(
        "--once", action="store_true", help=argparse.SUPPRESS
    )  # test hook: do not block
    serve.set_defaults(func=cmd_serve)

    upload = sub.add_parser("upload", help="encrypt and store a file")
    _add_client_args(upload)
    upload.add_argument("--id", required=True, help="file identifier")
    upload.add_argument("--file", required=True, help="path to upload")
    upload.add_argument("--policy", default=None, help='e.g. "alice or bob"')
    upload.set_defaults(func=cmd_upload)

    download = sub.add_parser("download", help="retrieve and decrypt a file")
    _add_client_args(download)
    download.add_argument("--id", required=True)
    download.add_argument("--out", required=True)
    download.set_defaults(func=cmd_download)

    rm = sub.add_parser(
        "rm", help="delete a file (release chunks, drop metadata)"
    )
    _add_client_args(rm)
    rm.add_argument("--id", required=True)
    rm.set_defaults(func=cmd_rm)

    revoke = sub.add_parser("revoke", help="rekey a file, removing users")
    _add_client_args(revoke)
    revoke.add_argument("--id", required=True)
    revoke.add_argument("--users", required=True, help="comma-separated user ids")
    revoke.add_argument("--mode", default="lazy", choices=["lazy", "active"])
    revoke.set_defaults(func=cmd_revoke)

    ls = sub.add_parser("ls", help="list stored files")
    _add_client_args(ls)
    ls.set_defaults(func=cmd_ls)

    group = sub.add_parser("group", help="group operations (amortized rekeying)")
    group_sub = group.add_subparsers(dest="group_command", required=True)

    group_create = group_sub.add_parser("create", help="create a file group")
    _add_client_args(group_create)
    group_create.add_argument("--group", required=True)
    group_create.add_argument("--policy", required=True)
    group_create.set_defaults(func=cmd_group)

    group_upload = group_sub.add_parser("upload", help="upload a file into a group")
    _add_client_args(group_upload)
    group_upload.add_argument("--group", required=True)
    group_upload.add_argument("--id", required=True)
    group_upload.add_argument("--file", required=True)
    group_upload.set_defaults(func=cmd_group)

    group_members = group_sub.add_parser("members", help="list a group's files")
    _add_client_args(group_members)
    group_members.add_argument("--group", required=True)
    group_members.set_defaults(func=cmd_group)

    group_revoke = group_sub.add_parser(
        "revoke", help="revoke users from a whole group (one rekey)"
    )
    _add_client_args(group_revoke)
    group_revoke.add_argument("--group", required=True)
    group_revoke.add_argument("--users", required=True)
    group_revoke.add_argument("--mode", default="lazy", choices=["lazy", "active"])
    group_revoke.set_defaults(func=cmd_group)

    gc = sub.add_parser(
        "gc", help="container compaction (dead-space reclamation)"
    )
    gc.add_argument("gc_command", choices=["status", "run"])
    gc.add_argument(
        "--endpoints",
        required=True,
        help="comma-separated storage host:port list",
    )
    gc.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="one-off dead-space ratio for 'run' (0 < ratio <= 1)",
    )
    gc.set_defaults(func=cmd_gc)

    stats = sub.add_parser("stats", help="scrape raw metrics from services")
    stats.add_argument(
        "--endpoints", required=True, help="comma-separated host:port list"
    )
    stats.add_argument(
        "--format", default="prometheus", choices=["prometheus", "json"]
    )
    stats.set_defaults(func=cmd_stats)

    top = sub.add_parser("top", help="live per-service summary (hottest RPCs)")
    top.add_argument(
        "--endpoints", required=True, help="comma-separated host:port list"
    )
    top.add_argument("--limit", type=int, default=8, help="methods shown per service")
    top.add_argument(
        "--sort",
        default="p99",
        choices=["p99", "p50", "mean", "calls"],
        help="method ranking column (default: p99 handler latency)",
    )
    top.set_defaults(func=cmd_top)

    trace = sub.add_parser(
        "trace", help="assemble distributed traces across services"
    )
    trace.add_argument(
        "--endpoints", required=True, help="comma-separated host:port list"
    )
    trace.add_argument(
        "--trace-id", default=None, help="show only this trace"
    )
    trace.add_argument(
        "--limit", type=int, default=4, help="most recent traces shown (0 = all)"
    )
    trace.add_argument(
        "--json", action="store_true", help="emit merged trace trees as JSON"
    )
    trace.set_defaults(func=cmd_trace)

    slow = sub.add_parser(
        "slow", help="slowest sampled spans across services"
    )
    slow.add_argument(
        "--endpoints", required=True, help="comma-separated host:port list"
    )
    slow.add_argument(
        "--limit", type=int, default=20, help="entries shown (0 = all)"
    )
    slow.add_argument(
        "--json", action="store_true", help="emit slow-span entries as JSON"
    )
    slow.set_defaults(func=cmd_slow)

    ring = sub.add_parser("ring", help="consistent-hash ring placement tools")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)

    ring_show = ring_sub.add_parser("show", help="ownership shares per node")
    ring_show.add_argument("--nodes", type=int, required=True)
    ring_show.add_argument("--vnodes", type=int, default=64)
    ring_show.set_defaults(func=cmd_ring)

    ring_owners = ring_sub.add_parser("owners", help="replica owners of a key")
    ring_owners.add_argument("--key", required=True, help="file id or hex key")
    ring_owners.add_argument("--nodes", type=int, required=True)
    ring_owners.add_argument("--replicas", type=int, default=1)
    ring_owners.add_argument("--vnodes", type=int, default=64)
    ring_owners.set_defaults(func=cmd_ring)

    ring_repair = ring_sub.add_parser(
        "repair", help="one repair pass against a live cluster"
    )
    ring_repair.add_argument(
        "--storage", required=True, help="comma-separated data-server host:port list"
    )
    ring_repair.add_argument("--replicas", type=int, default=1)
    ring_repair.add_argument("--write-quorum", type=int, default=0)
    ring_repair.add_argument(
        "--verify", action="store_true", help="re-hash replicas (corruption scan)"
    )
    ring_repair.set_defaults(func=cmd_ring)

    demo = sub.add_parser("demo", help="in-process end-to-end walkthrough")
    demo.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
