"""The per-layer metrics of a traced pass.

Layers are this repo's modules.  Three sources, all outside the program:
**P** the proxy spans of :mod:`benchmarks.e2e.tracing`, **S** before/after
differences of series the nodes and clients already serve, **R** the
replays of :mod:`benchmarks.e2e.replay`.  None of them is bounded: they
say where an end-to-end change came from, not whether it is one.
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.e2e import metrics
from benchmarks.e2e.record import MEASURE, Recorder
from benchmarks.e2e.rig import DATA_NODE_PREFIX, DATA_SERVERS, Rig, Snapshot
from benchmarks.e2e.tracing import (
    Span,
    additivity_error,
    group_by_op,
    layer_table,
    op_breakdown,
    store_overlap_share,
)

#: ``Σ(P-blocked) + core.client.other_s = wall`` must hold per operation
#: to this share of its wall time.
ADDITIVITY_TOLERANCE = 0.02
#: Above this the traced pass is flagged unreliable.
MAX_TRACE_OVERHEAD = 0.10


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    source: str
    #: A count that must repeat exactly for a given seed when a single
    #: client runs and no timer fires.
    exact: bool = False


PER_LAYER = (
    # mle / crypto.blindrsa
    Layer("mle.derive_busy_s", "s", "lower", "P"),
    Layer("mle.derive_calls", "count", "lower", "P"),
    Layer("mle.oprf_evaluations", "count", "lower", "S", exact=True),
    Layer("mle.key_round_trips", "count", "lower", "S", exact=True),
    Layer("mle.key_cache_hit_ratio", "ratio", "higher", "S", exact=True),
    Layer("mle.keymanager.handler_busy_s", "s", "lower", "S"),
    Layer("mle.keymanager.sign_us_per_key", "us", "lower", "R"),
    Layer("crypto.blindrsa.client_us_per_key", "us", "lower", "R"),
    # chunking
    Layer("chunking.mibps", "MiB/s", "higher", "R"),
    Layer("chunking.chunks_per_mib", "1/MiB", "lower", "R", exact=True),
    Layer("chunking.table_build_s", "s", "lower", "R"),
    # core.schemes / core.parallel
    Layer("core.schemes.encrypt_mibps", "MiB/s", "higher", "R"),
    Layer("core.schemes.decrypt_mibps", "MiB/s", "higher", "R"),
    Layer("core.parallel.encrypt_mibps", "MiB/s", "higher", "R"),
    Layer("core.parallel.decrypt_mibps", "MiB/s", "higher", "R"),
    Layer("core.parallel.pool_spawn_s", "s", "lower", "R"),
    # core.stubs / abe / keyreg
    Layer("core.stubs.encrypt_mibps", "MiB/s", "higher", "R"),
    Layer("core.stubs.reencrypt_us_per_file", "us", "lower", "R"),
    Layer("abe.seal_us", "us", "lower", "R"),
    Layer("abe.open_us", "us", "lower", "R"),
    Layer("keyreg.wind_us", "us", "lower", "R"),
    Layer("keyreg.unwind_us", "us", "lower", "R"),
    # core.client
    Layer("core.client.other_s", "s", "lower", "P"),
    Layer("core.client.other_share", "share", "lower", "P"),
    Layer("core.client.store_overlap_share", "share", "higher", "P"),
    Layer("core.client.upload_p90_ms", "ms", "lower", "P"),
    Layer("core.client.download_p90_ms", "ms", "lower", "P"),
    Layer("core.client.rekey_round_p90_ms", "ms", "lower", "P"),
    # core.system
    Layer("core.system.chunk_put_busy_s", "s", "lower", "P"),
    Layer("core.system.chunk_get_busy_s", "s", "lower", "P"),
    Layer("core.system.meta_busy_s", "s", "lower", "P"),
    Layer("core.system.release_busy_s", "s", "lower", "P"),
    Layer("core.system.store_round_trips", "count", "lower", "S", exact=True),
    Layer("core.system.store_round_trips_lazy_rekey", "count", "lower", "S", exact=True),
    Layer("core.system.degraded_writes", "count", "lower", "S", exact=True),
    Layer("core.system.read_fallbacks", "count", "lower", "S", exact=True),
    # storage.keystore
    Layer("storage.keystore.busy_s", "s", "lower", "P"),
    Layer("storage.keystore.round_trips", "count", "lower", "S", exact=True),
    # net
    Layer("net.rpc_calls", "count", "lower", "S", exact=True),
    Layer("net.request_bytes", "B", "lower", "S", exact=True),
    Layer("net.response_bytes", "B", "lower", "S", exact=True),
    Layer("net.wire_bytes_per_user_byte", "B/B", "lower", "S", exact=True),
    Layer("net.transport_s", "s", "lower", "S"),
    Layer("net.reconnects", "count", "lower", "S", exact=True),
    Layer("net.retries", "count", "lower", "S", exact=True),
    Layer("net.echo_rtt_p50_ms", "ms", "lower", "R"),
    Layer("net.codec.encode_mibps", "MiB/s", "higher", "R"),
    Layer("net.codec.decode_mibps", "MiB/s", "higher", "R"),
    # core.server
    Layer("core.server.handler_busy_s", "s", "lower", "S"),
    Layer("core.server.handler_busy_max_node_share", "share", "lower", "S"),
    # storage.datastore / storage.container
    Layer("storage.datastore.put_many_mibps", "MiB/s", "higher", "R"),
    Layer("storage.datastore.get_many_mibps", "MiB/s", "higher", "R"),
    Layer("storage.datastore.dedup_saving", "share", "higher", "S", exact=True),
    Layer("storage.datastore.chunks_stored", "count", "lower", "S", exact=True),
    Layer("storage.container.fetches", "count", "lower", "S", exact=True),
    Layer("storage.container.read_amplification", "B/B", "lower", "S", exact=True),
    Layer("storage.container.sealed_bytes", "B", "lower", "S", exact=True),
    # storage.gc
    Layer("storage.gc.run_s", "s", "lower", "P"),
    Layer("storage.gc.bytes_reclaimed", "B", "higher", "S", exact=True),
    Layer("storage.gc.chunks_relocated", "count", "lower", "S", exact=True),
    Layer("storage.gc.dead_space_ratio_end", "share", "lower", "S", exact=True),
    # obs
    Layer("obs.trace_overhead_share", "share", "lower", "-"),
)
PER_LAYER_BY_NAME = {layer.name: layer for layer in PER_LAYER}


def from_spans(spans: list[Span], rec: Recorder, wall_s: float) -> dict[str, float | None]:
    """Source P.  Also asserts, per operation, that blocked time and
    ``core.client`` self time add up to the operation's wall time."""
    table = layer_table(spans, wall_s)
    busy = {group: seconds for group, seconds, _, _ in table}
    calls = {group: count for group, _, _, count in table}
    roots, by_op = group_by_op(spans)
    # GC passes are timed by the benchmark, not issued by the client.
    client_roots = [root for root in roots if root.name != "gc"]
    other = 0.0
    op_wall = 0.0
    worst, worst_detail = 0.0, ""
    for root in client_roots:
        breakdown = op_breakdown(root, by_op.get(root.op, []))
        error = additivity_error(breakdown)
        if error > worst:
            worst = error
            worst_detail = (
                f"{root.name} #{root.op}: blocked {breakdown.blocked:.6f} s + other "
                f"{breakdown.other:.6f} s differs from wall {breakdown.wall:.6f} s "
                f"by {error:.1%}"
            )
        other += breakdown.other
        op_wall += breakdown.wall
    rec.check("additivity", worst <= ADDITIVITY_TOLERANCE, worst_detail)
    uploads = [root for root in client_roots if root.name == "upload"]

    def p90(kind: str) -> float | None:
        return metrics.p90_ms([op.seconds for op in rec.measured(kind)])

    return {
        "mle.derive_busy_s": busy["mle.derive"],
        "mle.derive_calls": calls["mle.derive"],
        "core.client.other_s": other,
        "core.client.other_share": other / op_wall if op_wall > 0 else None,
        "core.client.store_overlap_share": store_overlap_share(uploads, by_op),
        "core.client.upload_p90_ms": p90("upload"),
        "core.client.download_p90_ms": p90("download"),
        "core.client.rekey_round_p90_ms": p90("rekey_active"),
        "core.system.chunk_put_busy_s": busy["core.system.chunk_put"],
        "core.system.chunk_get_busy_s": busy["core.system.chunk_get"],
        "core.system.meta_busy_s": busy["core.system.meta"],
        "core.system.release_busy_s": busy["core.system.release"],
        "storage.keystore.busy_s": busy["storage.keystore"],
        "storage.gc.run_s": busy["storage.gc.run"],
    }


def from_series(
    before: Snapshot, after: Snapshot, rig: Rig, rec: Recorder
) -> dict[str, float | None]:
    """Source S: what the measured phase added to the served series, plus
    end-of-run state read from the stores."""

    def delta(name: str, node_prefix: str | None = None, method_prefix: str = "") -> float:
        return after.total(name, node_prefix, method_prefix) - before.total(
            name, node_prefix, method_prefix
        )

    oprf = delta("key_oprf_evaluations_total")
    hits = delta("key_cache_hits_total")
    request_bytes = delta("rpc_client_request_bytes_total")
    response_bytes = delta("rpc_client_response_bytes_total")
    moved = sum(
        op.nbytes
        for op in rec.ops
        if op.phase == MEASURE and op.ok and op.kind in ("upload", "download")
    )
    node_busy = [
        delta("rpc_handler_seconds_sum", f"{DATA_NODE_PREFIX}{index}", "storage.")
        for index in range(DATA_SERVERS)
    ]
    stores = [server.store for server in rig.cluster.servers]
    logical = sum(store.stats.logical_bytes for store in stores)
    physical = sum(store.stats.physical_bytes for store in stores)
    containers = sum(
        sum(1 for _ in store.backend.list("container/")) for store in stores
    )
    fetches = delta("container_fetch_total", DATA_NODE_PREFIX)
    served = delta("rpc_response_payload_bytes_total", DATA_NODE_PREFIX, "storage.get")
    on_disk = after.total("container_compressed_bytes", DATA_NODE_PREFIX)
    live = dead = 0
    for store in stores:
        store_live, store_dead, _ = store.dead_space()
        live += store_live
        dead += store_dead
    return {
        "mle.oprf_evaluations": oprf,
        "mle.key_round_trips": delta("key_round_trips_total"),
        "mle.key_cache_hit_ratio": hits / (hits + oprf) if hits + oprf else None,
        "mle.keymanager.handler_busy_s": delta(
            "rpc_handler_seconds_sum", "key-manager", "km."
        ),
        "core.system.store_round_trips": delta("store_round_trips_total"),
        "core.system.store_round_trips_lazy_rekey": sum(
            op.store_round_trips for op in rec.measured("rekey_lazy")
        ),
        "core.system.degraded_writes": delta("store_degraded_writes_total"),
        "core.system.read_fallbacks": delta("store_read_fallbacks_total"),
        "storage.keystore.round_trips": delta("rpc_requests_total", "keystore", "keystore."),
        "net.rpc_calls": delta("rpc_client_requests_total"),
        "net.request_bytes": request_bytes,
        "net.response_bytes": response_bytes,
        "net.wire_bytes_per_user_byte": (
            (request_bytes + response_bytes) / moved if moved else None
        ),
        "net.transport_s": delta("rpc_client_seconds_sum")
        - delta("rpc_handler_seconds_sum", ""),
        "net.reconnects": delta("tcp_client_reconnects_total"),
        "net.retries": delta("tcp_client_idempotent_retries_total"),
        "core.server.handler_busy_s": sum(node_busy),
        "core.server.handler_busy_max_node_share": (
            max(node_busy) / sum(node_busy) if sum(node_busy) > 0 else None
        ),
        "storage.datastore.dedup_saving": 1.0 - physical / logical if logical else None,
        "storage.datastore.chunks_stored": sum(
            store.stats.chunks_stored for store in stores
        ),
        "storage.container.fetches": fetches,
        # Container bytes read per chunk byte served: fetches times the
        # mean on-disk container size, over the bytes storage.get returned.
        "storage.container.read_amplification": (
            fetches * on_disk / containers / served if containers and served else None
        ),
        "storage.container.sealed_bytes": after.total(
            "container_payload_bytes", DATA_NODE_PREFIX
        ),
        "storage.gc.bytes_reclaimed": delta("gc_bytes_reclaimed_total", DATA_NODE_PREFIX),
        "storage.gc.chunks_relocated": delta(
            "gc_chunks_relocated_total", DATA_NODE_PREFIX
        ),
        "storage.gc.dead_space_ratio_end": dead / (live + dead) if live + dead else 0.0,
    }


def report(values: dict[str, float | None], exact_counts: bool) -> dict[str, dict]:
    """``name → {"value", "unit", "source", "exact"}`` in table order."""
    missing = [layer.name for layer in PER_LAYER if layer.name not in values]
    if missing:
        raise KeyError(f"per-layer metrics never computed: {missing}")
    return {
        layer.name: {
            "value": values[layer.name],
            "unit": layer.unit,
            "source": layer.source,
            "exact": layer.exact and exact_counts,
        }
        for layer in PER_LAYER
    }

