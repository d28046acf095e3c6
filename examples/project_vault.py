#!/usr/bin/env python3
"""Project vault: group rekeying, storage auditing, and restore analysis.

A research lab keeps a whole project's files in one REED *group*: one
policy, one key chain, many files.  This example exercises the
extensions built on the paper's future-work list:

1. create a group and upload several files into it;
2. audit the cloud with Merkle challenges (remote data checking);
3. revoke a departing member with ONE group rekey — a single CP-ABE
   operation covers every file (vs one per file in the per-file design);
4. inspect restore locality (the Experiment B.2 fragmentation effect).

Run:  python examples/project_vault.py
"""

from repro import FilePolicy, RevocationMode, build_system
from repro.core.groups import GroupManager
from repro.storage.analysis import analyze_sharded
from repro.storage.audit import FileAuditor
from repro.storage.recipes import FileRecipe
from repro.util.errors import AccessDeniedError
from repro.util.units import MiB
from repro.workloads.synthetic import mutate, unique_data

FILES = 5


def main() -> None:
    system = build_system()
    pi = system.new_client("pi", cache_bytes=64 * MiB)
    groups = GroupManager(pi)

    print("[1] Creating the project group (pi, postdoc, student)...")
    groups.create_group(
        "sequencing-2026", FilePolicy.for_users(["pi", "postdoc", "student"])
    )
    data = unique_data(400_000, seed=12)
    payloads = {}
    for i in range(FILES):
        file_id = f"run-{i:02d}"
        payloads[file_id] = data
        result = groups.upload("sequencing-2026", file_id, data)
        print(f"    {file_id}: {result.chunk_count} chunks, {result.new_chunks} new")
        data = mutate(data, 0.06, seed=40 + i)  # next run shares most chunks
    print(f"    members: {groups.members('sequencing-2026')}")

    print("\n[2] Auditing the cloud (Merkle challenge over random chunks)...")
    auditor = FileAuditor(system.storage)
    for file_id in payloads:
        recipe = FileRecipe.decode(system.storage.recipe_get(file_id))
        auditor.register(file_id, [ref.fingerprint for ref in recipe.chunks])
        verified = auditor.audit(file_id, sample_size=12)
        print(f"    {file_id}: {verified} chunks proven present and intact")

    print("\n[3] The student leaves -> ONE group rekey covers all files...")
    result = groups.revoke_users(
        "sequencing-2026", {"student"}, RevocationMode.ACTIVE
    )
    print(
        f"    {result.abe_operations} CP-ABE operation, "
        f"{result.files_rewrapped} files re-wrapped, "
        f"{result.stub_bytes_reencrypted:,} stub bytes re-encrypted"
    )
    student = system.new_client("student", owner=False)
    denied = 0
    for file_id in payloads:
        try:
            student.download(file_id)
        except AccessDeniedError:
            denied += 1
    print(f"    student denied on {denied}/{FILES} files")
    postdoc = system.new_client("postdoc", owner=False)
    assert all(
        postdoc.download(fid).data == expected for fid, expected in payloads.items()
    )
    print("    postdoc still reads every file")

    print("\n[4] Restore-locality report (fragmentation across generations):")
    shards = [server.store for server in system.servers]
    print(f"    {'file':>8} {'containers':>10} {'runs':>6} {'read amp':>9}")
    for file_id in payloads:
        recipe = FileRecipe.decode(system.storage.recipe_get(file_id))
        report = analyze_sharded(shards, recipe)
        print(
            f"    {file_id:>8} {report.containers_touched:>10} "
            f"{report.container_runs:>6} {report.read_amplification:>9.2f}"
        )
    print("\nLater runs reference chunks written by earlier uploads — the")
    print("fragmentation the paper observes in Experiment B.2. Done.")
    system.close()


if __name__ == "__main__":
    main()
