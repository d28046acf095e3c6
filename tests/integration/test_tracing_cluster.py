"""Acceptance scenario for cross-node distributed tracing.

One upload through a real 4-shard :class:`TcpCluster` must produce ONE
merged trace: the client's pipeline spans and the ``rpc.*`` handler
spans recorded on the server nodes splice into a single tree, with node
attribution and parent/child linkage intact.  Also drives the ``reed
trace`` / ``reed slow`` CLI views against the live cluster, and runs the
SLO gate in both directions (healthy pass, injected-delay fail).
"""

import json
import os
import subprocess
import sys

import pytest

from repro import cli
from repro.chunking.chunker import ChunkingSpec
from repro.core.cluster import TcpCluster
from repro.crypto.drbg import HmacDrbg
from repro.obs.expo import parse_prometheus
from repro.obs.metrics import reset_default_registry
from repro.obs.tracing import reset_default_tracer

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SLO_GATE = os.path.join(REPO_ROOT, "examples", "slo_gate.py")

CHUNK_SIZE = 4096
FILE_BYTES = 64 * CHUNK_SIZE


@pytest.fixture()
def fresh_telemetry():
    reset_default_registry()
    reset_default_tracer()
    yield
    reset_default_registry()
    reset_default_tracer()


@pytest.fixture()
def cluster():
    rng = HmacDrbg(b"tracing-cluster-test")
    with TcpCluster(
        num_data_servers=4,
        chunking=ChunkingSpec(method="fixed", avg_size=CHUNK_SIZE),
        rng=rng,
    ) as running:
        running.rng = rng
        yield running


def _walk(tree):
    yield tree
    for child in tree.get("children", ()):
        yield from _walk(child)


def _endpoints(cluster) -> str:
    return ",".join(
        f"{host}:{port}" for host, port in cluster.node_addresses().values()
    )


@pytest.mark.slow
def test_upload_produces_one_merged_cross_node_trace(fresh_telemetry, cluster):
    client = cluster.new_client("alice")
    data = cluster.rng.random_bytes(FILE_BYTES)
    result = client.upload("file-1", data)
    assert result.trace_id

    merged = cluster.merged_traces(trace_id=result.trace_id)
    # ONE logical trace for the whole upload, fully spliced.
    assert len(merged) == 1
    entry = merged[0]
    assert entry["orphans"] == []
    tree = entry["root"]
    assert tree["name"] == "upload"
    assert tree["node"] == "client"

    spans = list(_walk(tree))
    # Client pipeline spans are in the tree...
    names = {span["name"] for span in spans}
    assert {"upload.key_derive", "upload.encrypt", "upload.store"} <= names
    # ...alongside handler spans attributed to >= 2 distinct server
    # nodes (4 shards, 64 chunks: the sharder spreads the batches).
    handler_nodes = {
        span["node"] for span in spans if span["name"].startswith("rpc.")
    }
    storage_nodes = {n for n in handler_nodes if n.startswith("storage-")}
    assert len(storage_nodes) >= 2
    assert "key-manager" in handler_nodes
    assert "keystore" in handler_nodes

    # Parent/child linkage: every handler span hangs under the client
    # span whose context it was stamped with, on the correct trace.
    by_id = {span["span_id"]: span for span in spans}
    for span in spans:
        assert span["trace_id"] == result.trace_id
        if span["name"].startswith("rpc."):
            parent = by_id[span["parent_span_id"]]
            assert parent["node"] == "client"
    # The put_many handlers specifically hang under the store stage.
    put_parents = {
        by_id[span["parent_span_id"]]["name"]
        for span in spans
        if span["name"] == "rpc.storage.put_many"
    }
    assert put_parents == {"upload.store"}


def test_small_upload_is_signed_on_the_signer_workers(fresh_telemetry, cluster):
    """A 64 KiB file is one small signing batch; the key manager hands
    it to its worker processes all the same, inside the handler span."""
    client = cluster.new_client("alice")
    result = client.upload("small", cluster.rng.random_bytes(16 * CHUNK_SIZE))
    samples = parse_prometheus(cluster.scrape_node("key-manager"))

    def sign_batches(mode):
        return samples.get(("km_sign_batches_total", frozenset({("mode", mode)})), 0)

    assert sign_batches("serial") == 0
    assert sign_batches("parallel") >= 1

    (entry,) = cluster.merged_traces(trace_id=result.trace_id)
    spans = list(_walk(entry["root"]))
    by_id = {span["span_id"]: span for span in spans}
    signs = [span for span in spans if span["name"] == "km.sign"]
    assert signs
    for span in signs:
        assert span["node"] == "key-manager"
        assert by_id[span["parent_span_id"]]["name"] == "rpc.km.derive_batch"
    client.close()


@pytest.mark.slow
def test_reed_trace_and_slow_cli_views(fresh_telemetry, cluster, capsys):
    client = cluster.new_client("alice")
    result = client.upload("file-cli", cluster.rng.random_bytes(FILE_BYTES))

    # `reed trace --trace-id ... --json` renders the one merged tree.
    rc = cli.main(
        [
            "trace",
            "--endpoints",
            _endpoints(cluster),
            "--trace-id",
            result.trace_id,
            "--json",
        ]
    )
    assert rc == 0
    merged = json.loads(capsys.readouterr().out)
    assert len(merged) == 1
    assert merged[0]["trace_id"] == result.trace_id
    nodes = merged[0]["nodes"]
    assert "client" in nodes
    assert sum(1 for node in nodes if node.startswith("storage-")) >= 2

    # Human-readable rendering names the trace and its nodes.
    rc = cli.main(
        ["trace", "--endpoints", _endpoints(cluster), "--limit", "0"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert f"trace {result.trace_id}" in out
    assert "upload" in out and "@client" in out

    # `reed slow` never fails on a healthy cluster; with the default
    # 100 ms threshold a fast local upload usually samples nothing.
    rc = cli.main(["slow", "--endpoints", _endpoints(cluster), "--json"])
    assert rc == 0
    json.loads(capsys.readouterr().out)

    # `reed top` renders quantile columns for the handler histograms.
    rc = cli.main(
        ["top", "--endpoints", _endpoints(cluster), "--sort", "p99"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "p50" in out and "p99" in out
    assert "storage.put_many" in out


def _run_slo_gate(*extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, SLO_GATE, "--operations", "3", "--seed", "11", *extra],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.slow
def test_slo_gate_passes_on_healthy_cluster():
    proc = _run_slo_gate()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "SLO gate: PASS" in proc.stdout


@pytest.mark.slow
def test_slo_gate_fails_under_injected_delay(tmp_path):
    artifact = tmp_path / "SLO_traces.json"
    proc = _run_slo_gate("--inject-delay", "0.1", "--trace-out", str(artifact))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "SLO gate: FAIL" in proc.stdout
    # The failure artifact carries merged traces for postmortem.
    payload = json.loads(artifact.read_text())
    assert payload["traces"]
    assert any(
        node.startswith("storage-")
        for entry in payload["traces"]
        for node in entry["nodes"]
    )
