#!/usr/bin/env python3
"""Project vault: one group key chain for a whole project's files.

A research lab keeps a whole project's files in one REED *group*: one
policy, one key chain, many files.  This example exercises the
extensions built on the paper's future-work list:

1. create a group and upload several files into it;
2. revoke a departing member with ONE group rekey — a single CP-ABE
   operation covers every file (vs one per file in the per-file design).

Run:  python examples/project_vault.py
"""

from repro import FilePolicy, RevocationMode, build_system
from repro.core.groups import GroupManager
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

    print("\n[2] The student leaves -> ONE group rekey covers all files...")
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

    print("Done.")
    system.close()


if __name__ == "__main__":
    main()
