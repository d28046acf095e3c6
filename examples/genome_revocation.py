#!/usr/bin/env python3
"""Genome-project access control: the motivating scenario of Section II-B.

A genome lab outsources deduplicated sequencing data to the cloud.
Datasets produced by disease-sequencing projects are potentially
identifiable, so the PI protects every batch with a policy over the
research team.  When a researcher leaves the project, their access must
be revoked — immediately for sensitive batches (active revocation),
lazily for the rest (key regression keeps old batches readable to the
remaining team without touching stored data).

Run:  python examples/genome_revocation.py
"""

from repro import FilePolicy, RevocationMode, build_system
from repro.util.errors import AccessDeniedError
from repro.util.units import MiB, format_bytes
from repro.workloads.synthetic import duplicated_data


def main() -> None:
    system = build_system()
    pi = system.new_client("pi", cache_bytes=64 * MiB)
    postdoc = system.new_client("postdoc", owner=False)
    student = system.new_client("student", owner=False)

    team = FilePolicy.for_users(["pi", "postdoc", "student"])
    print(f"Team policy: {team.text}")

    # Sequencing batches share large common regions (reference genome
    # segments), so deduplication bites hard — the paper cites an 83%
    # reduction for genome data in real deployments.
    print("\nUploading three sequencing batches (high inter-batch redundancy)...")
    for batch in range(3):
        data = duplicated_data(
            2 * MiB, duplicate_fraction=0.8, seed=batch // 2, unit=8192
        )
        result = pi.upload(f"batch-{batch}", data, policy=team)
        print(
            f"  batch-{batch}: {format_bytes(result.size)} logical, "
            f"{result.new_chunks}/{result.chunk_count} chunks new"
        )
    stats = system.storage_stats
    print(
        f"  stored {format_bytes(stats.physical_bytes)} for "
        f"{format_bytes(stats.logical_bytes)} logical "
        f"({stats.dedup_saving:.1%} deduplicated)"
    )

    print("\nEveryone on the team can read batch-1:")
    for member in (postdoc, student):
        member.download("batch-1")
        print(f"  {member.user_id}: OK")

    print("\nThe student leaves the project.")
    print("  batch-1 is identifiable data -> ACTIVE revocation (immediate):")
    rekey = pi.revoke_users("batch-1", {"student"}, RevocationMode.ACTIVE)
    print(
        f"    re-encrypted {rekey.stub_bytes_reencrypted:,} stub bytes; "
        f"key v{rekey.old_key_version} -> v{rekey.new_key_version}"
    )
    print("  batch-0 and batch-2 -> LAZY revocation (defer to next update):")
    for batch in (0, 2):
        pi.revoke_users(f"batch-{batch}", {"student"}, RevocationMode.LAZY)
        print(f"    batch-{batch}: key state renewed, stored data untouched")

    print("\nAccess after revocation:")
    for batch in range(3):
        try:
            student.download(f"batch-{batch}")
            status = "STILL READABLE (bug!)"
        except AccessDeniedError:
            status = "denied"
        print(f"  student -> batch-{batch}: {status}")
    for batch in range(3):
        postdoc.download(f"batch-{batch}")
    print("  postdoc -> all batches: OK (key regression unwinds old versions)")

    print("\nDeduplicated data was never re-encrypted; only key states and")
    print("one stub file moved. Done.")
    system.close()


if __name__ == "__main__":
    main()
