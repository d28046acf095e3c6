"""End-to-end telemetry over a real TCP cluster.

The acceptance scenario for the telemetry layer: upload a 128-chunk file
through a :class:`TcpCluster`, then scrape the key manager and both
storage nodes over the ``metrics`` RPC and check the series are present,
well-formed, and consistent with what the upload reported.  Also proves
the :class:`UploadResult` counters bit-match the registry-derived
values, including under concurrent uploads on a shared client (the
attribution-scope fix), and that the key manager's signature and
rate-limit counts agree with its clients' across the wire.
"""

import threading

import pytest

from repro.chunking.chunker import ChunkingSpec
from repro.core.cluster import TcpCluster
from repro.core.service import RemoteKeyManagerChannel, register_key_manager, serve_node
from repro.core.system import build_system
from repro.crypto.drbg import HmacDrbg
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import ServerAidedKeyClient
from repro.net.tcp import TcpConnection
from repro.obs.expo import parse_prometheus, render_prometheus
from repro.obs.metrics import MetricsRegistry, default_registry, reset_default_registry
from repro.obs.rpc import scrape
from repro.obs.tracing import Tracer, reset_default_tracer
from repro.util.clock import SimClock
from repro.util.errors import RateLimitExceeded

#: 512 KiB of fixed-size 4 KiB chunks -> exactly 128 chunks.
CHUNK_SIZE = 4096
FILE_BYTES = 128 * CHUNK_SIZE


@pytest.fixture()
def fresh_registry():
    registry = reset_default_registry()
    reset_default_tracer()
    yield registry
    reset_default_registry()
    reset_default_tracer()


@pytest.fixture()
def cluster():
    rng = HmacDrbg(b"metrics-scrape-test")
    with TcpCluster(
        num_data_servers=2,
        chunking=ChunkingSpec(method="fixed", avg_size=CHUNK_SIZE),
        rng=rng,
    ) as running:
        running.rng = rng  # the test draws payload bytes from the same stream
        yield running


def _series(cluster, node):
    return parse_prometheus(cluster.scrape_node(node))


def _method_count(series, name, method):
    return series.get((name, frozenset({("method", method)})), 0.0)


def _total(series, name):
    """One family's samples summed over their labels."""
    return sum(value for (sample, _labels), value in series.items() if sample == name)


@pytest.mark.slow
def test_scrape_all_nodes_after_128_chunk_upload(fresh_registry, cluster):
    client = cluster.new_client("alice")
    data = cluster.rng.random_bytes(FILE_BYTES)
    result = client.upload("file-1", data)
    assert result.chunk_count == 128

    scraped = {
        node: parse_prometheus(text) for node, text in cluster.scrape_all().items()
    }
    assert set(scraped) == {"storage-0", "storage-1", "keystore", "key-manager"}

    # Key manager: the upload's single derive_batch round trip is visible,
    # with a latency histogram sample to match.
    km = scraped["key-manager"]
    assert _method_count(km, "rpc_requests_total", "km.derive_batch") == (
        result.key_round_trips
    )
    assert _method_count(km, "rpc_handler_seconds_count", "km.derive_batch") == (
        result.key_round_trips
    )
    assert _method_count(km, "rpc_handler_seconds_sum", "km.derive_batch") > 0

    # Storage nodes: every store round trip the client counted appears as
    # an RPC on exactly one shard, and payload bytes were accounted.
    storage = [scraped["storage-0"], scraped["storage-1"]]
    put_many_total = sum(
        _method_count(node, "rpc_requests_total", "storage.put_many")
        for node in storage
    )
    assert put_many_total >= 1
    request_bytes = sum(
        _method_count(node, "rpc_request_payload_bytes_total", "storage.put_many")
        for node in storage
    )
    assert request_bytes > FILE_BYTES  # ciphertext expands the payload
    for node in storage:
        # TCP server gauges/counters exist and are sane on every node.
        assert node[("tcp_connections_accepted_total", frozenset())] >= 1
        assert node[("tcp_requests_total", frozenset())] >= 1
        assert node[("tcp_active_connections", frozenset())] >= 1
        assert node[("tcp_max_workers", frozenset())] > 0

    # Scrapes are themselves RPCs: a second scrape sees the first.
    again = _series(cluster, "key-manager")
    assert _method_count(again, "rpc_requests_total", "metrics") > _method_count(
        km, "rpc_requests_total", "metrics"
    )

    # Client-side (default registry): per-stage span histograms recorded.
    spans = parse_prometheus(render_prometheus(default_registry()))
    for stage in (
        "upload",
        "upload.key_blind",
        "upload.key_derive",
        "upload.encrypt",
        "upload.store",
        "upload.stub",
        "upload.commit",
        "upload.keystate",
        "upload.chunk",
    ):
        count = spans.get(
            ("span_seconds_count", frozenset({("span", stage)})), 0.0
        )
        assert count >= 1, f"no span samples for {stage!r}"

    # And the trace tree names the pipeline stages under one upload root.
    # (upload.store runs on the ship-worker thread, so it appears as its
    # own root span rather than a child — the histogram series above is
    # shared either way.)
    root = next(
        span for span in client.tracer.recent_traces() if span.name == "upload"
    )
    child_names = {child.name for child in root.children}
    assert {"upload.key_derive", "upload.encrypt", "upload.stub"} <= child_names


@pytest.mark.slow
def test_upload_result_matches_registry_deltas(fresh_registry, cluster):
    """Legacy UploadResult counters bit-match the registry-derived values."""
    registry = fresh_registry
    client = cluster.new_client("alice", cache_bytes=1 << 22)

    def registry_counts():
        return {
            "oprf": registry.value("key_oprf_evaluations_total", client="alice"),
            "hits": registry.value("key_cache_hits_total", client="alice"),
            "trips": registry.value("key_round_trips_total", client="alice"),
            "store": registry.value("store_round_trips_total"),
        }

    data = cluster.rng.random_bytes(FILE_BYTES)
    before = registry_counts()
    result = client.upload("file-1", data)
    after = registry_counts()

    assert result.key_oprf_evaluations == int(after["oprf"] - before["oprf"])
    assert result.key_cache_hits == int(after["hits"] - before["hits"])
    assert result.key_round_trips == int(after["trips"] - before["trips"])
    assert result.store_round_trips == int(after["store"] - before["store"])

    # Second upload of the same data: all keys from cache, no OPRF work —
    # both views must agree on that too.
    before = registry_counts()
    result2 = client.upload("file-2", data)
    after = registry_counts()
    assert result2.key_cache_hits == int(after["hits"] - before["hits"]) == 128
    assert result2.key_oprf_evaluations == int(after["oprf"] - before["oprf"]) == 0



@pytest.mark.slow
def test_concurrent_uploads_do_not_cross_contaminate(fresh_registry, cluster):
    """Two concurrent uploads on one shared client each report exactly
    their own key/store work (the attribution-scope fix)."""
    client = cluster.new_client("alice")
    data_a = cluster.rng.random_bytes(64 * CHUNK_SIZE)
    data_b = cluster.rng.random_bytes(32 * CHUNK_SIZE)
    results = {}
    barrier = threading.Barrier(2)

    def upload(name: str, payload: bytes) -> None:
        barrier.wait()
        results[name] = client.upload(name, payload)

    threads = [
        threading.Thread(target=upload, args=("file-a", data_a)),
        threading.Thread(target=upload, args=("file-b", data_b)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    a, b = results["file-a"], results["file-b"]
    # Unique data, no cache: every chunk of each file is one OPRF
    # evaluation attributed to that upload alone.
    assert a.chunk_count == 64 and b.chunk_count == 32
    assert a.key_oprf_evaluations == 64
    assert b.key_oprf_evaluations == 32
    assert a.key_round_trips == 1 and b.key_round_trips == 1
    assert a.store_round_trips >= 1 and b.store_round_trips >= 1
    # The shared client's lifetime totals hold the sum.
    assert fresh_registry.value("key_oprf_evaluations_total", client="alice") == 96


def test_key_manager_signatures_match_client_evaluations(fresh_registry, cluster):
    """The key-manager node's scrape counts every OPRF evaluation the
    clients paid for, per client."""
    alice = cluster.new_client("alice")
    bob = cluster.new_client("bob")
    alice.upload("file-a", cluster.rng.random_bytes(64 * CHUNK_SIZE))
    bob.upload("file-b", cluster.rng.random_bytes(32 * CHUNK_SIZE))

    km = _series(cluster, "key-manager")
    client = parse_prometheus(render_prometheus(fresh_registry))
    assert _total(km, "km_signatures_total") == 96
    assert _total(client, "key_oprf_evaluations_total") == 96
    for user, chunks in (("alice", 64), ("bob", 32)):
        labels = frozenset({("client", user)})
        assert km[("km_signatures_total", labels)] == chunks
        assert client[("key_oprf_evaluations_total", labels)] == chunks
    assert km[("km_clients", frozenset())] == 2
    assert _total(km, "km_rejected_total") == 0


def test_key_manager_series_stay_off_the_client_registry(fresh_registry, cluster):
    """A served key manager counts on its node's registry only: the
    client process's own registry carries no ``km_*`` family."""
    cluster.new_client("alice").upload("file-a", cluster.rng.random_bytes(8 * CHUNK_SIZE))
    assert _total(_series(cluster, "key-manager"), "km_signatures_total") == 8
    assert [f.name for f in fresh_registry.families() if f.name.startswith("km_")] == []


def test_in_process_system_reports_key_manager_series(fresh_registry):
    """Served in process, the key manager counts on the process registry."""
    system = build_system(
        num_data_servers=1,
        chunking=ChunkingSpec(method="fixed", avg_size=CHUNK_SIZE),
        rng=HmacDrbg(b"in-process-km"),
    )
    data = HmacDrbg(b"in-process-data").random_bytes(8 * CHUNK_SIZE)
    system.new_client("alice").upload("file-a", data)
    assert fresh_registry.value("km_signatures_total") == 8


def test_rate_limited_batch_counted_on_both_ends():
    """A batch the key manager refuses for rate shows as
    ``km_rejected_total`` in its node's scrape and as
    ``key_rate_limited_total`` on the client's registry."""
    node_metrics = MetricsRegistry()
    # A frozen clock: the bucket holds 8 tokens and never refills.
    manager = KeyManager(key_bits=512, rate_limit=1, burst=8, clock=SimClock())
    server = serve_node(
        register_key_manager, manager, node_metrics, Tracer(node_metrics)
    )
    connection = TcpConnection(*server.address, metrics=MetricsRegistry())
    try:
        client_metrics = MetricsRegistry()
        key_client = ServerAidedKeyClient(
            RemoteKeyManagerChannel(connection.client()),
            client_id="alice",
            rng=HmacDrbg(b"rate-limited"),
            max_retries=0,
            metrics=client_metrics,
        )
        key_client.derive_keys([bytes([i]) * 32 for i in range(8)])  # the burst
        with pytest.raises(RateLimitExceeded):
            key_client.derive_keys([bytes([i + 100]) * 32 for i in range(3)])
        km = parse_prometheus(scrape(connection.client()))
    finally:
        connection.close()
        server.stop()
    alice = frozenset({("client", "alice")})
    assert km[("km_signatures_total", alice)] == 8
    assert km[("km_rejected_total", alice)] == 3
    assert client_metrics.value("key_rate_limited_total", client="alice") == 1
    assert client_metrics.value("key_round_trips_total", client="alice") == 2
