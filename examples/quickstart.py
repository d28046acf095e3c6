#!/usr/bin/env python3
"""Quickstart: upload, share, download, revoke — in five minutes.

Builds an in-process REED deployment with the paper's topology (four
data-store servers, one key store, one key manager), then walks the full
lifecycle of one shared file:

1. Alice uploads a file readable by Alice and Bob.
2. Bob downloads it.
3. Alice uploads the same content again — the server stores nothing new
   (deduplication over trimmed packages).
4. Alice revokes Bob with *active* revocation: one key state and one
   tiny stub file are re-encrypted; the deduplicated data is untouched.
5. Bob's next download is denied; Alice's still works.

Run:  python examples/quickstart.py
"""

from repro import FilePolicy, RevocationMode, build_system
from repro.util.errors import AccessDeniedError
from repro.workloads.synthetic import unique_data


def main() -> None:
    print("Building a REED deployment (4 data servers + key store + key manager)...")
    system = build_system()

    alice = system.new_client("alice", cache_bytes=64 * 1024 * 1024)
    bob = system.new_client("bob", owner=False)

    data = unique_data(1_000_000, seed=7)
    policy = FilePolicy.for_users(["alice", "bob"])

    print(f"\n[1] Alice uploads {len(data):,} bytes under policy {policy.text}")
    result = alice.upload("quarterly-report", data, policy=policy)
    print(
        f"    {result.chunk_count} chunks, {result.new_chunks} new on the server, "
        f"stub file {result.stub_file_bytes:,} bytes"
    )

    print("\n[2] Bob downloads the file")
    download = bob.download("quarterly-report")
    assert download.data == data
    print(f"    OK — {len(download.data):,} bytes, content verified")

    print("\n[3] Alice uploads identical content as a second file")
    again = alice.upload("quarterly-report-copy", data, policy=policy)
    print(
        f"    {again.chunk_count} chunks sent, {again.new_chunks} stored "
        "(full deduplication)"
    )
    stats = system.storage_stats
    print(
        f"    server: logical={stats.logical_bytes:,}B "
        f"physical={stats.physical_bytes:,}B "
        f"dedup saving={stats.dedup_saving:.1%}"
    )

    print("\n[4] Alice revokes Bob (active revocation)")
    rekey = alice.revoke_users("quarterly-report", {"bob"}, RevocationMode.ACTIVE)
    print(
        f"    key state v{rekey.old_key_version} -> v{rekey.new_key_version}; "
        f"re-encrypted {rekey.stub_bytes_reencrypted:,} stub bytes "
        f"(not {len(data):,} file bytes)"
    )

    print("\n[5] Bob tries again...")
    try:
        bob.download("quarterly-report")
        raise AssertionError("revocation failed!")
    except AccessDeniedError as exc:
        print(f"    denied, as intended: {exc}")

    assert alice.download("quarterly-report").data == data
    print("    Alice still reads the file fine.\n\nQuickstart complete.")
    system.close()  # reap the key manager's signing workers


if __name__ == "__main__":
    main()
