#!/usr/bin/env python3
"""Weekly backup rotation: the workload REED's caching is built for.

Simulates the scenario from Section V-B of the paper: a client uploads
weekly backup snapshots of the same file system.  Adjacent snapshots
share most content, so

* the server deduplicates almost everything after week one, and
* the client's MLE key cache answers almost all key requests locally,
  sparing the key manager (compare the OPRF counts below).

Also demonstrates retention: deleting the oldest snapshots reclaims only
the space whose chunks no newer snapshot references.

Run:  python examples/backup_rotation.py
"""

from repro import build_system
from repro.chunking.chunker import ChunkingSpec
from repro.util.units import MiB, format_bytes
from repro.workloads.synthetic import mutate, unique_data

WEEKS = 6
SNAPSHOT_BYTES = 2 * MiB
WEEKLY_CHURN = 0.04  # 4% of blocks rewritten per week


def main() -> None:
    system = build_system(
        chunking=ChunkingSpec(method="fixed", avg_size=8192),
    )
    client = system.new_client("backup-agent", cache_bytes=128 * MiB)

    print(f"{'week':>4} {'logical':>10} {'new chunks':>10} {'OPRF calls':>10} "
          f"{'cache hits':>10} {'physical':>10}")
    snapshot = unique_data(SNAPSHOT_BYTES, seed=2026)
    last_uploaded = snapshot
    for week in range(WEEKS):
        oprf_before = client.key_client.oprf_evaluations
        hits_before = client.key_client.cache_hits
        last_uploaded = snapshot
        result = client.upload(f"backup-week{week}", snapshot)
        stats = system.storage_stats
        print(
            f"{week:>4} {format_bytes(result.size):>10} "
            f"{result.new_chunks:>10} "
            f"{client.key_client.oprf_evaluations - oprf_before:>10} "
            f"{client.key_client.cache_hits - hits_before:>10} "
            f"{format_bytes(stats.physical_bytes):>10}"
        )
        snapshot = mutate(snapshot, WEEKLY_CHURN, seed=3000 + week, unit=8192)

    stats = system.storage_stats
    print(
        f"\nAfter {WEEKS} weekly snapshots: logical "
        f"{format_bytes(stats.logical_bytes)}, stored "
        f"{format_bytes(stats.physical_bytes + stats.stub_bytes)} "
        f"({stats.total_saving:.1%} saved)"
    )

    # Retention policy: keep the last two snapshots.
    for week in range(WEEKS - 2):
        client.delete(f"backup-week{week}")
    stats = system.storage_stats
    print(
        f"After deleting weeks 0-{WEEKS - 3}: stored "
        f"{format_bytes(stats.physical_bytes + stats.stub_bytes)} "
        "(chunks still referenced by recent snapshots survive)"
    )

    # The newest snapshot must still restore perfectly.
    restored = client.download(f"backup-week{WEEKS - 1}")
    assert restored.data == last_uploaded
    print("Latest snapshot restores cleanly. Done.")
    system.close()


if __name__ == "__main__":
    main()
