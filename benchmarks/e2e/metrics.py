"""The end-to-end metrics: names, units, directions, bounds, and how each
is computed from the recorded operations.

Measured with the benchmark's own tracing off.  Every timing is in
seconds at reference host speed (:mod:`benchmarks.e2e.hostspeed`).  A
metric a workload does not exercise is ``None``.  ``n`` is the sample
count behind a timing.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass

from benchmarks.e2e.inputs import MiB, REKEY_FILES, WORKLOADS
from benchmarks.e2e.record import MEASURE, Recorder

_BACKUPS = ("backup_unique", "backup_generations")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the baseline by which the metric may worsen before it
    #: counts as a regression; two runs of the same code agree within it.
    bound: float
    workloads: tuple[str, ...] = WORKLOADS


END_TO_END = (
    # Set-up is short and the seed decides how long its RSA key
    # generation takes; the measured phase's widest ten-seed spread
    # (``rekey_storm`` in a noisy spell) is 6 %.
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.20),
    EndToEnd("upload_mibps", "MiB/s", "higher", 0.10, _BACKUPS),
    EndToEnd(
        "upload_p50_ms", "ms", "lower", 0.10, (*_BACKUPS, "small_files_mixed")
    ),
    EndToEnd("download_mibps", "MiB/s", "higher", 0.10, _BACKUPS),
    EndToEnd("download_p50_ms", "ms", "lower", 0.10),
    EndToEnd("rekey_active_files_per_s", "files/s", "higher", 0.10, ("rekey_storm",)),
    EndToEnd("rekey_lazy_files_per_s", "files/s", "higher", 0.10, ("rekey_storm",)),
    EndToEnd("rekey_round_p50_ms", "ms", "lower", 0.10, ("rekey_storm",)),
    EndToEnd(
        "delete_p50_ms", "ms", "lower", 0.10, ("backup_generations", "small_files_mixed")
    ),
    EndToEnd("ops_per_s", "ops/s", "higher", 0.10, ("small_files_mixed",)),
    EndToEnd("stored_bytes_per_user_byte", "B/B", "lower", 0.01, _BACKUPS),
    EndToEnd("failed_ops_share", "share", "lower", 0.0),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.15),
)
END_TO_END_BY_NAME = {metric.name: metric for metric in END_TO_END}


def p50_ms(seconds: list[float]) -> float | None:
    return statistics.median(seconds) * 1e3 if seconds else None


def p90_ms(seconds: list[float]) -> float | None:
    """The highest percentile with at least ten samples beyond it at the
    reference counts; a per-layer diagnostic, not a gated metric."""
    if len(seconds) < 2:
        return seconds[0] * 1e3 if seconds else None
    return statistics.quantiles(seconds, n=10, method="inclusive")[-1] * 1e3


def _rate(amount: float, seconds: float) -> float | None:
    return amount / seconds if seconds > 0 else None


def peak_rss_mib() -> float:
    """``ru_maxrss`` of the benchmark process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(
    workload: str,
    rec: Recorder,
    setup_s: float,
    wall_s: float,
    stored_bytes: int,
    live_bytes: int,
) -> dict[str, dict]:
    """``name → {"value", "unit", "n"}`` for all fourteen metrics."""

    def seconds(kind: str) -> list[float]:
        return [op.seconds for op in rec.measured(kind)]

    def mibps(kind: str) -> float | None:
        ops = rec.measured(kind)
        return _rate(sum(op.nbytes for op in ops) / MiB, sum(op.seconds for op in ops))

    uploads, downloads, deletes = seconds("upload"), seconds("download"), seconds("delete")
    active, lazy = seconds("rekey_active"), seconds("rekey_lazy")
    completed = sum(
        1
        for op in rec.ops
        if op.phase == MEASURE and op.ok and op.kind in ("upload", "download", "delete")
    )
    values: dict[str, tuple[float | None, int | None]] = {
        "setup_s": (setup_s, None),
        "wall_s": (wall_s, None),
        "upload_mibps": (mibps("upload"), len(uploads)),
        "upload_p50_ms": (p50_ms(uploads), len(uploads)),
        "download_mibps": (mibps("download"), len(downloads)),
        "download_p50_ms": (p50_ms(downloads), len(downloads)),
        "rekey_active_files_per_s": (
            _rate(REKEY_FILES * len(active), sum(active)),
            len(active),
        ),
        "rekey_lazy_files_per_s": (_rate(REKEY_FILES * len(lazy), sum(lazy)), len(lazy)),
        "rekey_round_p50_ms": (p50_ms(active), len(active)),
        "delete_p50_ms": (p50_ms(deletes), len(deletes)),
        "ops_per_s": (_rate(completed, wall_s), completed),
        "stored_bytes_per_user_byte": (
            stored_bytes / live_bytes if live_bytes else None,
            None,
        ),
        "failed_ops_share": (len(rec.failures()) / rec.attempted, rec.attempted),
        "peak_rss_mib": (peak_rss_mib(), None),
    }
    out = {}
    for metric in END_TO_END:
        value, n = values[metric.name]
        if workload not in metric.workloads:
            value, n = None, None
        out[metric.name] = {"value": value, "unit": metric.unit, "n": n}
    return out
