"""Smoke test for the hot-path benchmark harness.

Runs ``benchmarks/bench_hotpath.py --quick`` as a subprocess (exactly how
a human runs it) on tiny inputs and validates the machine-readable
report's schema, so benchmark bit-rot is caught by tier-1 rather than at
the next perf investigation.
"""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
BENCH = os.path.join(REPO_ROOT, "benchmarks", "bench_hotpath.py")

EXPECTED_FAMILIES = {
    "chunking",
    "caont",
    "upload_tcp",
    "download_tcp",
    "replicated_tcp",
    "rekey_tcp",
    "gc_compaction",
}

#: Single-row and diagnostic families report one configuration or
#: scenario counters, not a reference-vs-fast pair, so they carry no
#: speedup entry.
UNPAIRED_FAMILIES = {"caont", "gc_compaction"}

#: Per-family baseline row (the oracle each speedup is computed against;
#: an unpaired family's only or first row).
REFERENCE_ROWS = {
    "chunking": "chunking/reference",
    "caont": "caont/shake256",
    "upload_tcp": "upload_tcp/per_chunk",
    "download_tcp": "download_tcp/serial",
    "replicated_tcp": "replicated_tcp/upload_r1",
    "rekey_tcp": "rekey_tcp/serial",
    "gc_compaction": "gc_compaction/cold_restore",
}

THROUGHPUT_KEYS = {"name", "bytes", "seconds", "mib_per_s"}
#: Rows of the client-facing TCP scenarios also carry repeat-latency
#: quantiles (schema v5).
QUANTILE_KEYS = {"p50_s", "p99_s"}
#: The TCP upload scenario additionally records round trips per layer.
ROUND_TRIP_KEYS = THROUGHPUT_KEYS | QUANTILE_KEYS | {
    "chunks",
    "key_round_trips",
    "store_round_trips",
    "upload_batches",
}
#: The TCP download scenario records restore-pipeline counters instead.
DOWNLOAD_KEYS = THROUGHPUT_KEYS | QUANTILE_KEYS | {
    "chunks",
    "store_round_trips",
    "fetch_batches",
    "chunk_cache_hits",
    "chunk_cache_misses",
    "cache_hit_rate",
}
#: The replication scenario records copy fan-out; R=2 rows additionally
#: carry the measured overhead ratio against their R=1 twin.
REPLICATED_KEYS = THROUGHPUT_KEYS | {"replicas", "chunks", "store_round_trips"}
REPLICATED_R2_KEYS = REPLICATED_KEYS | {"overhead_vs_r1"}
#: The TCP rekey scenario records group-rekey pipeline counters.
REKEY_KEYS = THROUGHPUT_KEYS | QUANTILE_KEYS | {
    "files",
    "store_round_trips",
    "keystore_round_trips",
    "batches",
    "workers",
    "abe_operations",
}
#: The container-engine scenarios record coalesced-read locality and
#: compaction reclaim.
GC_COLD_KEYS = THROUGHPUT_KEYS | QUANTILE_KEYS | {
    "chunks",
    "containers",
    "container_fetches",
    "fetches_per_container",
    "store_round_trips",
}
GC_RECLAIM_KEYS = THROUGHPUT_KEYS | QUANTILE_KEYS | {
    "dead_bytes",
    "reclaimed_bytes",
    "reclaim_fraction",
    "dead_ratio_before",
    "dead_ratio_after",
    "relocated_chunks",
}


@pytest.mark.slow
def test_quick_bench_runs_and_writes_valid_report(tmp_path):
    out = tmp_path / "BENCH_hotpath.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, BENCH, "--smoke", "--seed", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "metrics snapshot: well-formed" in proc.stdout

    report = json.loads(out.read_text())
    assert report["schema"] == "reed-bench-hotpath/7"
    assert report["quick"] is True
    assert report["seed"] == 3
    # Every reported row has its repeats recorded in the bench histogram
    # (the report's seconds are derived from that histogram's minimum).
    bench_series = report["metrics"]["bench_seconds"]["series"]
    recorded = {series["labels"]["bench"] for series in bench_series}
    assert recorded == {r["name"] for r in report["results"]}
    assert isinstance(report["results"], list) and report["results"]
    for result in report["results"]:
        if result["name"].startswith("upload_tcp/"):
            expected_keys = ROUND_TRIP_KEYS
        elif result["name"].startswith("download_tcp/"):
            expected_keys = DOWNLOAD_KEYS
        elif result["name"].startswith("replicated_tcp/"):
            expected_keys = (
                REPLICATED_R2_KEYS
                if result["name"].endswith("_r2")
                else REPLICATED_KEYS
            )
        elif result["name"].startswith("rekey_tcp/"):
            expected_keys = REKEY_KEYS
        elif result["name"] == "gc_compaction/cold_restore":
            expected_keys = GC_COLD_KEYS
        elif result["name"] == "gc_compaction/reclaim":
            expected_keys = GC_RECLAIM_KEYS
        else:
            expected_keys = THROUGHPUT_KEYS
        assert set(result) == expected_keys
        assert result["bytes"] > 0
        assert result["seconds"] > 0
        assert result["mib_per_s"] > 0
        if "p50_s" in expected_keys:
            # seconds is best-of (the histogram minimum); quantiles are
            # clamped to [min, max], hence the ordering.
            assert result["seconds"] <= result["p50_s"] <= result["p99_s"]
    families = {r["name"].split("/")[0] for r in report["results"]}
    assert families == EXPECTED_FAMILIES
    # Every family must include its baseline row.
    names = {r["name"] for r in report["results"]}
    for family, reference_row in REFERENCE_ROWS.items():
        assert reference_row in names
    assert {n for n in names if n.startswith("caont/")} == {"caont/shake256"}
    assert isinstance(report["speedups"], dict)
    assert set(report["speedups"]) == EXPECTED_FAMILIES - UNPAIRED_FAMILIES
    # The batched pipeline's defining win: fewer round trips per layer.
    by_name = {r["name"]: r for r in report["results"]}
    per_chunk = by_name["upload_tcp/per_chunk"]
    batched = by_name["upload_tcp/batched"]
    assert batched["key_round_trips"] < per_chunk["key_round_trips"]
    assert batched["store_round_trips"] < per_chunk["store_round_trips"]
    # The restore pipeline's defining wins: the warm-cache pass serves
    # every chunk locally (no chunk fetch RPCs at all), and every
    # configuration restored bit-identical plaintext (the bench asserts
    # the bytes itself and fails the subprocess otherwise).
    serial_dl = by_name["download_tcp/serial"]
    pipelined_dl = by_name["download_tcp/pipelined"]
    assert serial_dl["store_round_trips"] >= serial_dl["chunks"]
    assert pipelined_dl["store_round_trips"] < serial_dl["store_round_trips"]
    assert pipelined_dl["fetch_batches"] < serial_dl["fetch_batches"]
    cache_warm = by_name["download_tcp/cache_warm"]
    assert cache_warm["fetch_batches"] == 0
    assert cache_warm["chunk_cache_misses"] == 0
    assert cache_warm["cache_hit_rate"] >= 0.9
    assert cache_warm["chunk_cache_hits"] == cache_warm["chunks"]
    # Replication's defining cost: R=2 writes ship every chunk to two
    # owners, so the upload pays more store round trips than R=1 while
    # both configurations move the same chunk count.
    upload_r1 = by_name["replicated_tcp/upload_r1"]
    upload_r2 = by_name["replicated_tcp/upload_r2"]
    assert upload_r1["chunks"] == upload_r2["chunks"] > 0
    assert upload_r2["store_round_trips"] > upload_r1["store_round_trips"]
    assert upload_r2["overhead_vs_r1"] > 0
    assert by_name["replicated_tcp/download_r2"]["overhead_vs_r1"] > 0
    # The rekey pipeline's defining win: in windows of one file it pays
    # 2 keystore round trips per member file, in windows of a batch 2 per
    # window (plus the group record's get/put).  Store round trips
    # scatter per shard, so at quick scale (batch ~ shard count) they
    # only must not regress.
    serial_rk = by_name["rekey_tcp/serial"]
    pipelined_rk = by_name["rekey_tcp/pipelined"]
    assert serial_rk["files"] == pipelined_rk["files"] > 0
    assert serial_rk["batches"] == serial_rk["files"]
    assert pipelined_rk["batches"] >= 1
    assert serial_rk["keystore_round_trips"] >= 2 * serial_rk["files"]
    assert (
        pipelined_rk["keystore_round_trips"]
        <= 2 + 2 * pipelined_rk["batches"]
    )
    assert pipelined_rk["keystore_round_trips"] < serial_rk["keystore_round_trips"]
    assert pipelined_rk["store_round_trips"] <= serial_rk["store_round_trips"]
    # Both rows re-encrypted the same stub bytes (identical crypto work).
    assert serial_rk["bytes"] == pipelined_rk["bytes"] > 0
    assert serial_rk["abe_operations"] == pipelined_rk["abe_operations"] == 1
    # The container engine's defining wins.  Cold restores coalesce: the
    # batch-read path fetches each container at most once, so a restore
    # of N chunks packed C-per-container pays ~#containers fetches
    # rather than #chunks.  Compaction reclaims >= 90% of dead container
    # bytes (the bench itself verifies the survivor restores
    # bit-identically).
    cold = by_name["gc_compaction/cold_restore"]
    assert cold["chunks"] > cold["containers"] > 0
    assert 0 < cold["container_fetches"] <= cold["containers"]
    assert cold["fetches_per_container"] <= 1.0
    reclaim = by_name["gc_compaction/reclaim"]
    assert reclaim["dead_bytes"] > 0
    assert reclaim["reclaim_fraction"] >= 0.9
    assert reclaim["dead_ratio_after"] < reclaim["dead_ratio_before"]
