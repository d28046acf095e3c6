"""Shared helpers for the benchmark scripts: the seeded input stream and
the throughput unit of ``bench_figs.py`` and ``bench_hotpath.py``."""

from __future__ import annotations

from repro.crypto.drbg import HmacDrbg


def seed_rng(tag: str, seed: int) -> HmacDrbg:
    """A deterministic byte stream bound to ``(tag, seed)``."""
    return HmacDrbg(f"{tag}/{seed}".encode())


def mib_per_s(num_bytes: int, seconds: float) -> float:
    """Throughput in MiB/s, guarded against zero timings."""
    if seconds <= 0:
        return float("inf")
    return num_bytes / (1024 * 1024) / seconds
