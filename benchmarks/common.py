"""Shared helpers for the benchmark scripts.

* :func:`seed_rng` and :func:`mib_per_s` — the seeded input stream and
  the throughput unit of ``bench_figs.py`` and ``bench_hotpath.py``;
* :func:`save_result` — appends a pytest-benchmark run's derived numbers
  to ``benchmarks/results/<name>.txt`` (``bench_components``,
  ``bench_ablations`` and ``bench_baselines``).
"""

from __future__ import annotations

import os

from repro.crypto.drbg import HmacDrbg

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_result(name: str, text: str) -> str:
    """Append a result block to ``benchmarks/results/<name>.txt``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "a") as handle:
        handle.write(text.rstrip() + "\n")
    return path


def seed_rng(tag: str, seed: int) -> HmacDrbg:
    """A deterministic byte stream bound to ``(tag, seed)``."""
    return HmacDrbg(f"{tag}/{seed}".encode())


def mib_per_s(num_bytes: int, seconds: float) -> float:
    """Throughput in MiB/s, guarded against zero timings."""
    if seconds <= 0:
        return float("inf")
    return num_bytes / (1024 * 1024) / seconds
