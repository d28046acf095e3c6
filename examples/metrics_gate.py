"""CI metrics gate: boot a cluster, upload, scrape every node, verify.

Boots a real :class:`~repro.core.cluster.TcpCluster` (two data-store
servers, the key store, the key manager — all on localhost TCP), uploads
a small file, then scrapes the ``metrics`` RPC of **every** node and
fails if any required series is missing or any sample is NaN (the
parser rejects NaN outright).  The key-manager node must also report
what it signed (``km_signatures_total``, non-zero after the upload) and
what its rate limiter refused (``km_rejected_total``).  After the
drained stop, every node's ``tcp_in_flight_requests`` and
``tcp_idle_drops_total`` must read zero.

A second stage boots an R=2 replicated cluster (three data servers,
every chunk on two ring owners), kills one node, uploads through the
outage, restores the node, runs a repair pass, and fails if the
``replica_*`` / ``ring_*`` series are missing or NaN, if
``replicas_missing`` is nonzero after repair, or if the degraded-mode
client counters never fired.

A third stage drills the container engine: it strands dead space by
deleting one of two chunk-sharing files, compacts over the
``storage.gc_run`` RPC, and fails unless bytes were reclaimed
(``gc_bytes_reclaimed_total`` > 0), ``dead_space_ratio`` dropped below
the configured threshold, the surviving file restored bit-identically,
and every storage node exposes the ``container_*`` / ``gc_*`` series.
Run it the way CI does::

    PYTHONPATH=src python examples/metrics_gate.py

Exit status 0 means every node exposed a complete, well-formed
exposition; anything else prints the offending node and series.
See docs/OBSERVABILITY.md for the full metric catalog.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.chunking.chunker import ChunkingSpec  # noqa: E402
from repro.core.cluster import TcpCluster  # noqa: E402
from repro.core.groups import GroupManager  # noqa: E402
from repro.core.policy import FilePolicy  # noqa: E402
from repro.core.rekey import RevocationMode  # noqa: E402
from repro.crypto.drbg import HmacDrbg  # noqa: E402
from repro.obs.expo import parse_prometheus, render_prometheus  # noqa: E402
from repro.obs.metrics import MetricsRegistry, default_registry  # noqa: E402
from repro.storage.repair import ReplicaRepairer, rebalance  # noqa: E402
from repro.util.errors import CorruptionError  # noqa: E402

#: Series every node must expose after serving at least one request.
REQUIRED_ON_EVERY_NODE = (
    "tcp_connections_accepted_total",
    "tcp_requests_total",
    "tcp_active_connections",
    "tcp_in_flight_requests",
    "tcp_queue_depth",
    "tcp_max_workers",
    "tcp_idle_drops_total",
    "tcp_oversize_drops_total",
    "tcp_connection_window",
    "tcp_out_of_order_responses_total",
)

#: Transport gauges/counters that must read ZERO on a healthy node while
#: it is being scraped: nothing stuck in flight or queued, no peer
#: dropped for idling or oversized frames.  (The ``metrics`` scrape
#: itself is in flight while the snapshot is taken, hence the allowance
#: of 1 for ``tcp_in_flight_requests``.)
HEALTHY_CEILINGS = {
    "tcp_in_flight_requests": 1.0,
    "tcp_queue_depth": 1.0,
    "tcp_idle_drops_total": 0.0,
    "tcp_oversize_drops_total": 0.0,
}

#: Key-manager series: what it signed (non-zero after the upload) and
#: what its rate limiter refused (present, at zero on a healthy run).
REQUIRED_ON_KEY_MANAGER = ("km_signatures_total", "km_rejected_total")

#: Per-node RPC methods whose request counters must have fired during
#: the upload and the downloads (beyond the ``metrics`` scrape itself).
REQUIRED_METHODS = {
    "storage-0": ("storage.put_many", "storage.get"),
    "storage-1": ("storage.put_many", "storage.get"),
    "keystore": ("keystore.get_many", "keystore.put_many"),
    "key-manager": ("km.public_key", "km.derive_batch"),
}

#: Per-file metadata RPCs (upload/rekey commits, restore/rekey fetches)
#: that must have fired on at least one storage node.  They are routed
#: by file id, so a few files need not touch every shard — the union is
#: the invariant.
REQUIRED_ON_ANY_STORAGE = (
    "storage.file_commit",
    "storage.file_get_many",
)

#: Client-side counters the download pipeline must have populated.
REQUIRED_CLIENT_COUNTERS = (
    "client_downloads_total",
    "client_download_bytes_total",
    "chunk_cache_hits_total",
    "chunk_cache_misses_total",
)

#: Rekey counters the group rekey must have populated (name, labels).
REQUIRED_CLIENT_REKEY_SERIES = (
    ("client_rekey_files_total", (("mode", "active"),)),
    ("client_rekey_batches_total", ()),
    ("client_rekey_stub_bytes_total", ()),
)

#: Per-stage restore- and rekey-pipeline spans that must have recorded
#: latencies.
REQUIRED_CLIENT_SPANS = (
    "download.cache",
    "download.prefetch",
    "download.decrypt",
    "rekey.group",
    "rekey.fetch",
    "rekey.reencrypt",
    "rekey.ship",
)


def check_client(series: dict) -> list[str]:
    """Problems in the client process's own exposition after downloads."""
    problems: list[str] = []
    for required in REQUIRED_CLIENT_COUNTERS:
        value = series.get((required, frozenset()))
        if value is None:
            problems.append(f"client: missing series {required}")
        elif value <= 0 and required != "chunk_cache_misses_total":
            problems.append(f"client: {required} is {value}")
    for name, labels in REQUIRED_CLIENT_REKEY_SERIES:
        value = series.get((name, frozenset(labels)))
        label_text = ",".join(f"{k}={v}" for k, v in labels)
        if value is None:
            problems.append(f"client: missing series {name}{{{label_text}}}")
        elif value <= 0:
            problems.append(f"client: {name}{{{label_text}}} is {value}")
    for span in REQUIRED_CLIENT_SPANS:
        count = series.get(
            ("span_seconds_count", frozenset({("span", span)})), 0.0
        )
        if count <= 0:
            problems.append(f"client: no span_seconds samples for {span!r}")
    return problems


def check_node(node: str, text: str) -> list[str]:
    """Problems found in one node's exposition (empty list = healthy)."""
    problems: list[str] = []
    try:
        series = parse_prometheus(text)  # raises on NaN / malformed lines
    except CorruptionError as exc:
        return [f"{node}: exposition rejected: {exc}"]
    names = {name for name, _ in series}
    for required in REQUIRED_ON_EVERY_NODE:
        if required not in names:
            problems.append(f"{node}: missing series {required}")
    for name, ceiling in HEALTHY_CEILINGS.items():
        value = series.get((name, frozenset()))
        if value is not None and value > ceiling:
            problems.append(
                f"{node}: {name} is {value} (healthy ceiling {ceiling})"
            )
    if node == "key-manager":
        for required in REQUIRED_ON_KEY_MANAGER:
            if required not in names:
                problems.append(f"{node}: missing series {required}")
        signed = sum(
            value for (name, _), value in series.items() if name == "km_signatures_total"
        )
        if signed <= 0:
            problems.append(f"{node}: km_signatures_total is {signed} after an upload")
    for method in REQUIRED_METHODS.get(node, ()):
        key = ("rpc_requests_total", frozenset({("method", method)}))
        count = series.get(key, 0.0)
        if count <= 0:
            problems.append(
                f"{node}: rpc_requests_total{{method={method!r}}} is {count}"
            )
        latency = series.get(
            ("rpc_handler_seconds_count", frozenset({("method", method)})), 0.0
        )
        if latency != count:
            problems.append(
                f"{node}: {method!r} latency histogram has {latency} samples "
                f"for {count} requests"
            )
    return problems


def check_any_storage(scraped: dict[str, str]) -> list[str]:
    """Methods of :data:`REQUIRED_ON_ANY_STORAGE` no storage node served
    (a node whose exposition does not parse is reported by check_node)."""
    served: set[str] = set()
    for node, text in scraped.items():
        if not node.startswith("storage-"):
            continue
        try:
            series = parse_prometheus(text)
        except CorruptionError:
            continue
        served.update(
            dict(labels).get("method", "")
            for (name, labels), value in series.items()
            if name == "rpc_requests_total" and value > 0
        )
    return [
        f"storage: no node served {method!r}"
        for method in REQUIRED_ON_ANY_STORAGE
        if method not in served
    ]


#: Repair/rebalance series the replication stage must expose, all on the
#: dedicated repair registry (the exposition round trip rejects NaN).
REQUIRED_REPLICATION_SERIES = (
    "replica_repairs_total",
    "replicas_missing",
    "repair_scans_total",
    "ring_keys_moved_total",
)

#: Client-side replication counters that must have fired after writing
#: through an outage and reading from the surviving replicas.
REQUIRED_DEGRADED_COUNTERS = (
    "store_degraded_writes_total",
    "store_node_failures_total",
    "store_read_fallbacks_total",
)


def replication_stage() -> list[str]:
    """Kill/restore/repair drill on an R=2 cluster; returns problems."""
    problems: list[str] = []
    rng = HmacDrbg(b"metrics-gate-replication")
    chunking = ChunkingSpec(method="fixed", avg_size=4096)
    repair_metrics = MetricsRegistry()
    with TcpCluster(
        num_data_servers=3, replicas=2, chunking=chunking, rng=rng
    ) as cluster:
        client = cluster.new_client("gate-replica-user")
        storage = client.storage
        healthy = rng.random_bytes(64 * 4096)
        client.upload("replica-healthy", healthy)

        # Kill a node, then read first: the download discovers the dead
        # node mid-read and falls back to the surviving replicas (this
        # is what drives ``store_read_fallbacks_total``).
        cluster.kill_data_server(1)
        if client.download("replica-healthy").data != healthy:
            problems.append(
                "replication: replica-healthy corrupted with a node down"
            )
        # Then write through the outage: R=2 with write quorum 1 must
        # land every chunk on the surviving owner.
        degraded = rng.random_bytes(64 * 4096)
        client.upload("replica-degraded", degraded)
        if client.download("replica-degraded").data != degraded:
            problems.append(
                "replication: replica-degraded corrupted with a node down"
            )
        print(
            f"replication: survived node kill "
            f"({storage.ring.down_nodes()} down, "
            f"{storage.metrics.value('store_degraded_writes_total'):.0f} "
            f"degraded writes)"
        )

        # Node returns; one repair pass must restore full replication.
        cluster.restart_data_server(1)
        report = ReplicaRepairer(storage, metrics=repair_metrics).run_once()
        print(
            f"replication: repair revived {report.revived_nodes}, "
            f"restored {report.repairs} replicas "
            f"({report.unrepaired} unrepaired)"
        )
        if report.repairs <= 0:
            problems.append("replication: repair pass restored nothing")
        if report.unrepaired != 0:
            problems.append(
                f"replication: {report.unrepaired} replicas unrepaired"
            )

        # Join a fourth node and migrate exactly the moved keys, so the
        # rebalance counter carries real traffic.
        index = cluster.add_data_server()
        old_ring = storage.ring.copy()
        storage.add_service(cluster.connect_storage(index))
        moved = rebalance(storage, old_ring, metrics=repair_metrics)
        print(
            f"replication: join moved {moved.keys_moved}/"
            f"{moved.keys_checked} keys ({moved.copies_made} copies)"
        )
        if not 0 < moved.keys_moved < moved.keys_checked:
            problems.append(
                f"replication: rebalance moved {moved.keys_moved} of "
                f"{moved.keys_checked} keys (expected a strict subset)"
            )
        for file_id, data in (
            ("replica-degraded", degraded),
            ("replica-healthy", healthy),
        ):
            if client.download(file_id).data != data:
                problems.append(
                    f"replication: {file_id} corrupted after join/rebalance"
                )

        # The repair/rebalance series, through a NaN-rejecting round trip.
        try:
            series = parse_prometheus(render_prometheus(repair_metrics))
        except CorruptionError as exc:
            problems.append(f"replication: exposition rejected: {exc}")
            series = {}
        names = {name for name, _ in series}
        for required in REQUIRED_REPLICATION_SERIES:
            if required not in names:
                problems.append(f"replication: missing series {required}")
        missing_after = series.get(("replicas_missing", frozenset()))
        if missing_after is not None and missing_after != 0:
            problems.append(
                f"replication: replicas_missing is {missing_after} after repair"
            )
        repairs_total = series.get(("replica_repairs_total", frozenset()), 0.0)
        if repairs_total <= 0:
            problems.append(
                f"replication: replica_repairs_total is {repairs_total}"
            )
        for required in REQUIRED_DEGRADED_COUNTERS:
            value = storage.metrics.value(required)
            if value <= 0:
                problems.append(f"replication: client {required} is {value}")
        if storage.metrics.value("store_nodes_down") != 0:
            problems.append("replication: store_nodes_down nonzero after repair")
    return problems


#: Container-engine series every storage node must expose after the
#: delete → compact cycle, scraped over the ``metrics`` RPC.
REQUIRED_GC_SERIES = (
    "gc_bytes_reclaimed_total",
    "gc_containers_compacted_total",
    "gc_passes_total",
    "dead_space_ratio",
    "container_fetch_total",
    "container_payload_bytes",
    "container_compressed_bytes",
)


def gc_compaction_stage() -> list[str]:
    """Delete → compact → verify drill; returns problems found.

    Uploads two files sharing half their chunks (fixed-size chunking
    dedups the shared block), deletes one to strand dead space inside
    still-live containers, then compacts over the ``storage.gc_run`` RPC.
    The gate fails unless the pass reclaims bytes
    (``gc_bytes_reclaimed_total`` > 0), drives ``dead_space_ratio``
    below the configured threshold, and leaves the surviving file
    bit-identical.
    """
    problems: list[str] = []
    rng = HmacDrbg(b"metrics-gate-gc")
    chunking = ChunkingSpec(method="fixed", avg_size=4096)
    threshold = 0.2
    with TcpCluster(
        num_data_servers=2,
        chunking=chunking,
        rng=rng,
        gc_threshold=threshold,
    ) as cluster:
        client = cluster.new_client("gate-gc-user")
        block_a = rng.random_bytes(32 * 4096)
        block_b = rng.random_bytes(32 * 4096)
        client.upload("gc-doomed", block_a + block_b)
        dedup = client.upload("gc-kept", block_b)
        if dedup.new_chunks != 0:
            problems.append(
                f"gc: shared block stored {dedup.new_chunks} new chunks "
                f"(expected full dedup)"
            )
        client.delete("gc-doomed")

        status = client.storage.gc_status()
        if status["dead_bytes"] <= 0:
            problems.append("gc: delete stranded no dead bytes")
        result = client.storage.gc_run()
        print(
            f"gc: compacted {result['containers_compacted_total']:.0f} "
            f"containers, reclaimed {result['bytes_reclaimed_total']:,.0f} "
            f"of {status['dead_bytes']:,.0f} dead bytes "
            f"(ratio {status['dead_space_ratio']:.2f} -> "
            f"{result['dead_space_ratio']:.2f})"
        )
        if result["bytes_reclaimed_total"] <= 0:
            problems.append(
                f"gc: gc_bytes_reclaimed_total is "
                f"{result['bytes_reclaimed_total']}"
            )
        if result["dead_space_ratio"] >= threshold:
            problems.append(
                f"gc: post-compaction dead_space_ratio "
                f"{result['dead_space_ratio']} not below threshold {threshold}"
            )
        if client.download("gc-kept").data != block_b:
            problems.append("gc: surviving file corrupted by compaction")

        # Every storage node's exposition must carry the container-engine
        # catalog (parse_prometheus rejects NaN outright).
        for index in range(2):
            node = f"storage-{index}"
            try:
                series = parse_prometheus(cluster.scrape_node(node))
            except CorruptionError as exc:
                problems.append(f"gc: {node} exposition rejected: {exc}")
                continue
            names = {name for name, _ in series}
            for required in REQUIRED_GC_SERIES:
                if required not in names:
                    problems.append(f"gc: {node} missing series {required}")
    return problems


def main() -> int:
    rng = HmacDrbg(b"metrics-gate")
    chunking = ChunkingSpec(method="fixed", avg_size=4096)
    with TcpCluster(num_data_servers=2, chunking=chunking, rng=rng) as cluster:
        client = cluster.new_client("gate-user", chunk_cache_bytes=16 * 1024 * 1024)
        data = rng.random_bytes(128 * 4096)
        result = client.upload("gate-file", data)
        print(
            f"uploaded {result.size:,} bytes in {result.chunk_count} chunks "
            f"({result.key_round_trips} key RPC, "
            f"{result.store_round_trips} store RPCs)"
        )
        # Two downloads: the first exercises prefetch/decrypt and fills
        # the chunk cache, the second must hit it.
        if client.download("gate-file").data != data:
            print("FAIL: download mismatch", file=sys.stderr)
            return 1
        warm = client.download("gate-file")
        if warm.data != data:
            print("FAIL: warm download mismatch", file=sys.stderr)
            return 1
        print(
            f"downloaded {warm.size:,} bytes twice "
            f"({warm.chunk_cache_hits} warm cache hits, "
            f"{warm.fetch_batches} warm fetch batches)"
        )
        if warm.chunk_cache_hits < warm.chunk_count:
            print(
                f"FAIL: warm download hit the cache {warm.chunk_cache_hits} "
                f"times for {warm.chunk_count} chunks",
                file=sys.stderr,
            )
            return 1

        # A group rekey drives the batched rekey pipeline: keystore
        # get_many/put_many, per-shard file_get_many/file_commit, and the
        # client's rekey spans and counters.
        groups = GroupManager(client)
        groups.create_group(
            "gate-group", FilePolicy.for_users(["gate-user", "gate-reader"])
        )
        for index in range(4):
            groups.upload(
                "gate-group", f"gate-member-{index}", rng.random_bytes(4 * 4096)
            )
        rekey = groups.revoke_users(
            "gate-group", {"gate-reader"}, RevocationMode.ACTIVE
        )
        print(
            f"rekeyed group of {rekey.files_rewrapped} files in "
            f"{rekey.batches} batches ({rekey.store_round_trips} store + "
            f"{rekey.keystore_round_trips} keystore round trips, "
            f"{rekey.stub_bytes_reencrypted:,} stub bytes)"
        )
        if rekey.files_rewrapped != 4 or rekey.batches < 1:
            print(
                f"FAIL: group rekey rewrapped {rekey.files_rewrapped} files "
                f"in {rekey.batches} batches",
                file=sys.stderr,
            )
            return 1

        problems: list[str] = []
        # The client's own series live in the process default registry;
        # round-trip them through the exposition (the parser rejects
        # NaN) before checking the download/cache catalog entries.
        try:
            client_series = parse_prometheus(render_prometheus(default_registry()))
        except CorruptionError as exc:
            problems.append(f"client: exposition rejected: {exc}")
        else:
            problems.extend(check_client(client_series))
        scraped = cluster.scrape_all()
        for node, text in scraped.items():
            node_problems = check_node(node, text)
            status = "FAIL" if node_problems else "ok"
            print(f"scrape {node}: {len(text.splitlines())} lines [{status}]")
            problems.extend(node_problems)
        problems.extend(check_any_storage(scraped))

    # After the drained stop: nothing may remain in flight on any node
    # (the drain flushed every response), nothing dropped for idling,
    # and no client call may still be awaiting a response.
    for node, metrics in cluster.node_metrics.items():
        in_flight = metrics.value("tcp_in_flight_requests")
        if in_flight != 0:
            problems.append(
                f"post-drain: {in_flight:.0f} requests still in flight on {node}"
            )
        idle_drops = metrics.value("tcp_idle_drops_total")
        if idle_drops != 0:
            problems.append(
                f"post-drain: {idle_drops:.0f} idle drops on {node} "
                "(healthy runs drop nobody)"
            )
    client_in_flight = default_registry().gauge(
        "tcp_client_in_flight_requests", ""
    ).value
    if client_in_flight != 0:
        problems.append(
            f"post-drain: client in-flight gauge reads {client_in_flight}"
        )
    print(
        f"post-drain: {len(cluster.node_metrics)} nodes idle, client in-flight "
        f"gauge {client_in_flight:.0f}"
    )

    problems.extend(replication_stage())
    problems.extend(gc_compaction_stage())

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("metrics gate: all nodes healthy")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
