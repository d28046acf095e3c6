"""Smoke test for the hot-path benchmark harness.

Runs ``benchmarks/bench_hotpath.py --smoke`` as a subprocess (exactly how
a human runs it) on tiny inputs and validates the machine-readable
report's schema, so benchmark bit-rot is caught by tier-1 rather than at
the next perf investigation.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.crypto import modexp

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
BENCH = os.path.join(REPO_ROOT, "benchmarks", "bench_hotpath.py")

THROUGHPUT_ROWS = {"chunking/reference", "chunking/numpy", "caont/shake256"}
RSA_ROWS = {"rsa/private", "rsa/public"}
EXPECTED_ROWS = THROUGHPUT_ROWS | RSA_ROWS
THROUGHPUT_KEYS = {"name", "bytes", "seconds", "mib_per_s"}
RSA_KEYS = {"name", "engine", "operations", "seconds", "us_per_op", "reference_us_per_op"}


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
    assert report["schema"] == "reed-bench-hotpath/9"
    assert report["quick"] is True
    assert report["seed"] == 3
    assert {r["name"] for r in report["results"]} == EXPECTED_ROWS
    # Every reported row has its repeats recorded in the bench histogram
    # (the report's seconds are derived from that histogram's minimum).
    bench_series = report["metrics"]["bench_seconds"]["series"]
    recorded = {series["labels"]["bench"] for series in bench_series}
    assert recorded == EXPECTED_ROWS | {f"{name}/reference" for name in RSA_ROWS}
    rows = {result["name"]: result for result in report["results"]}
    for name in THROUGHPUT_ROWS:
        result = rows[name]
        assert set(result) == THROUGHPUT_KEYS
        assert result["bytes"] > 0
        assert result["seconds"] > 0
        assert result["mib_per_s"] > 0
    for name in RSA_ROWS:
        result = rows[name]
        assert set(result) == RSA_KEYS
        assert result["engine"] == modexp.engine()
        assert result["operations"] > 0
        assert 0 < result["us_per_op"]
        if result["engine"] == "libcrypto":
            # The kernel exists to be faster than its reference.
            assert result["us_per_op"] < result["reference_us_per_op"]
    assert set(report["speedups"]) == {"chunking"} | RSA_ROWS
    assert report["speedups"]["chunking"] > 0
