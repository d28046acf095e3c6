"""Repeatability harness: run the suite, and compare two suite files.

A suite file holds one or more *sets*; a set is one result per workload.
``compare A.json B.json`` judges B against A metric by metric with the
bounds the benchmark fixed, and prints the environment of both so a
noisy neighbour shows up in the report instead of as a regression.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from benchmarks.e2e import OUT_DIR, REPO_ROOT, layers, metrics
from benchmarks.e2e.inputs import WORKLOADS

_CALIB_HASH_ROUNDS = 240
_CALIB_POW_ROUNDS = 190


def calibrate_ms() -> float:
    """A fixed loop of hashing and big-integer ``pow`` — about one second
    on the reference sandbox.  The same work everywhere, so its duration
    tells two machines (or a quiet and a busy one) apart."""
    block = bytes(range(256)) * 4096
    modulus = (1 << 1024) - 109
    start = time.perf_counter()
    for _ in range(_CALIB_HASH_ROUNDS):
        block = hashlib.sha256(block).digest() * (len(block) // 32)
    value = int.from_bytes(block[:128], "big")
    for _ in range(_CALIB_POW_ROUNDS):
        value = pow(value, modulus - 2, modulus)
    return (time.perf_counter() - start) * 1e3


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "load_1min": os.getloadavg()[0],
        "calib_ms": calibrate_ms(),
    }


def run_set(seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, bool]:
    """Every workload once, each in its own interpreter so set-up time
    and peak memory are a fresh process's.  Returns the set and whether
    every workload exited zero."""
    results = {}
    all_ok = True
    for name in WORKLOADS:
        done = subprocess.run(
            [
                sys.executable, "-m", "benchmarks.e2e",
                "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace)), *(["--smoke"] if smoke else []),
            ],
            cwd=REPO_ROOT,
        )
        all_ok = all_ok and done.returncode == 0
        with open(os.path.join(OUT_DIR, f"run-{name}-seed{seed}.json")) as handle:
            results[name] = json.load(handle)
    return results, all_ok


def run_suite(seed: int, seconds: float, trace: bool, smoke: bool, sets: int) -> int:
    suite = {"seed": seed, "seconds": seconds, "env": [], "sets": []}
    all_ok = True
    for _ in range(sets):
        suite["env"].append(environment())
        results, ok = run_set(seed, seconds, trace, smoke)
        suite["sets"].append(results)
        all_ok = all_ok and ok
    path = os.path.join(OUT_DIR, f"suite-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(suite, handle, indent=1)
    print(f"suite written to {os.path.relpath(path, REPO_ROOT)}")
    if sets >= 2:
        half = sets // 2
        first = {**suite, "sets": suite["sets"][:half], "env": suite["env"][:half]}
        second = {**suite, "sets": suite["sets"][half:], "env": suite["env"][half:]}
        all_ok = print_comparison(first, second) and all_ok
    return 0 if all_ok else 1


# -- comparison ---------------------------------------------------------------


def _values(suite: dict, workload: str, group: str, name: str) -> list[float]:
    found = []
    for results in suite["sets"]:
        entry = (results.get(workload, {}).get(group) or {}).get(name)
        if entry is not None and entry["value"] is not None:
            found.append(entry["value"])
    return found


def _spread(values: list[float]) -> float:
    """Range over median; zero when a side has a single run."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    return (max(values) - min(values)) / abs(middle)


def judge(metric: metrics.EndToEnd, a: list[float], b: list[float]) -> tuple[float, str]:
    """Relative change of B against A (positive is worse) and a verdict."""
    base, new = statistics.median(a), statistics.median(b)
    if base == 0:
        worse = 0.0 if new == 0 else float("inf")
    else:
        worse = (new - base) / abs(base)
    if metric.better == "higher":
        worse = -worse
    if max(_spread(a), _spread(b)) > metric.bound > 0:
        return worse, "unresolved"
    return worse, "regressed" if worse > metric.bound else "ok"


def print_comparison(a: dict, b: dict) -> bool:
    """Print the table; True when nothing regressed, nothing is
    unresolved and every exact count is identical."""
    for label, suite in (("A", a), ("B", b)):
        for env in suite["env"]:
            print(f"env {label}: {json.dumps(env)}")
    print(
        f"{'workload':<20}{'metric':<30}{'A':>12}{'B':>12}{'worse by':>10}"
        f"{'bound':>7}  verdict"
    )
    clean = True
    for workload in WORKLOADS:
        for metric in metrics.END_TO_END:
            va = _values(a, workload, "end_to_end", metric.name)
            vb = _values(b, workload, "end_to_end", metric.name)
            if not va or not vb:
                continue
            worse, verdict = judge(metric, va, vb)
            clean = clean and verdict == "ok"
            print(
                f"{workload:<20}{metric.name:<30}{statistics.median(va):>12.4f}"
                f"{statistics.median(vb):>12.4f}{worse:>+10.1%}{metric.bound:>7.0%}  {verdict}"
            )
    differing = []
    compared = 0
    for workload in WORKLOADS:
        for layer in layers.PER_LAYER:
            runs = [
                results[workload]["per_layer"][layer.name]
                for suite in (a, b)
                for results in suite["sets"]
                if results.get(workload, {}).get("per_layer")
            ]
            if len(runs) < 2 or not all(run["exact"] for run in runs):
                continue
            compared += 1
            if len({run["value"] for run in runs}) > 1:
                differing.append(
                    f"{workload} {layer.name}: {[run['value'] for run in runs]}"
                )
    print(f"exact counts: {compared} compared, {len(differing)} differ")
    for line in differing:
        print(f"  !! {line}")
    return clean and not differing


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    return 0 if print_comparison(a, b) else 1
