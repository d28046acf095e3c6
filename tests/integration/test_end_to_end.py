"""End-to-end integration: multi-user flows over the full stack.

These tests drive the complete REED pipeline — chunking, OPRF key
generation, scheme encryption, server-side dedup, recipes, stub files,
ABE-protected key states — through the public API, in the paper's 4+1
server topology.
"""

import pytest

from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.util.errors import AccessDeniedError
from repro.workloads.synthetic import mutate, unique_data


class TestMultiUserDedup:
    def test_cross_user_dedup_with_shared_savings(self, cluster):
        """Two users uploading the same content: the second upload stores
        nothing new; both can read their own file."""
        data = unique_data(300_000, seed=21)
        alice = cluster.new_client("alice", cache_bytes=1 << 20)
        bob = cluster.new_client("bob", cache_bytes=1 << 20)
        r1 = alice.upload("alice-backup", data)
        r2 = bob.upload("bob-backup", data)
        assert r1.new_chunks == r1.chunk_count
        assert r2.new_chunks == 0
        assert alice.download("alice-backup").data == data
        assert bob.download("bob-backup").data == data
        stats = cluster.storage_stats
        assert stats.dedup_saving == pytest.approx(0.5, abs=0.01)

    def test_incremental_backups_dedup(self, cluster):
        """Daily-backup shape: each day's snapshot shares most chunks with
        the previous one, so new physical data stays small.  Fixed-size
        chunking aligned with the mutation unit makes the expected churn
        exact: mutating k blocks invalidates exactly k chunks."""
        from repro.chunking.chunker import ChunkingSpec

        alice = cluster.new_client("alice", cache_bytes=1 << 20)
        alice.chunking = ChunkingSpec(method="fixed", avg_size=4096)
        data = unique_data(400_000, seed=22)
        for day in range(4):
            result = alice.upload(f"backup-day{day}", data)
            if day > 0:
                # 2% of ~98 blocks mutated per day.
                assert result.new_chunks <= 5
            data = mutate(data, 0.02, seed=100 + day, unit=4096)
        stats = cluster.storage_stats
        assert stats.physical_bytes < 1.2 * 400_000
        assert stats.logical_bytes == pytest.approx(4 * 400_000, rel=0.01)

    def test_mle_cache_eliminates_key_traffic(self, cluster):
        alice = cluster.new_client("alice", cache_bytes=1 << 22)
        data = unique_data(200_000, seed=23)
        first = alice.upload("first", data)
        second = alice.upload("second", data)
        assert first.key_oprf_evaluations > 0
        assert second.key_oprf_evaluations == second.key_round_trips == 0
        assert second.key_cache_hits == first.key_oprf_evaluations


class TestSchemesInterop:
    def test_basic_and_enhanced_dedup_separately(self, cluster):
        """Both schemes are deterministic, but they produce *different*
        trimmed packages: files encrypted under different schemes do not
        dedup against each other (documented behaviour)."""
        data = unique_data(120_000, seed=24)
        basic_user = cluster.new_client("basil", scheme="basic")
        enhanced_user = cluster.new_client("enid", scheme="enhanced")
        r1 = basic_user.upload("b-file", data)
        r2 = enhanced_user.upload("e-file", data)
        assert r1.new_chunks == r1.chunk_count
        assert r2.new_chunks == r2.chunk_count

    def test_download_respects_recipe_scheme(self, cluster):
        """A client configured with one scheme can download files written
        with the other (the recipe records the scheme)."""
        data = unique_data(100_000, seed=25)
        writer = cluster.new_client("writer", scheme="basic")
        policy = FilePolicy.for_users(["writer", "reader"])
        writer.upload("cross", data, policy=policy)
        reader = cluster.new_client("reader", owner=False, scheme="enhanced")
        assert reader.download("cross").data == data


class TestRekeyLifecycle:
    def test_full_project_lifecycle(self, cluster):
        """The genome-project story from Section II-B: share, revoke a
        leaver (active), keep working, rekey again (lazy)."""
        data = unique_data(250_000, seed=26)
        pi = cluster.new_client("pi", cache_bytes=1 << 20)
        postdoc = cluster.new_client("postdoc", owner=False)
        student = cluster.new_client("student", owner=False)

        team = FilePolicy.for_users(["pi", "postdoc", "student"])
        pi.upload("genome-batch", data, policy=team)
        assert postdoc.download("genome-batch").data == data
        assert student.download("genome-batch").data == data

        # The student leaves: active revocation.
        pi.revoke_users("genome-batch", {"student"}, RevocationMode.ACTIVE)
        with pytest.raises(AccessDeniedError):
            student.download("genome-batch")
        assert postdoc.download("genome-batch").data == data

        # Periodic rekey (key-lifetime policy): lazy is enough.
        pi.rekey("genome-batch", FilePolicy.for_users(["pi", "postdoc"]))
        assert postdoc.download("genome-batch").data == data
        assert pi.download("genome-batch").data == data

    def test_rekey_does_not_break_other_files_sharing_chunks(self, cluster):
        data = unique_data(150_000, seed=27)
        alice = cluster.new_client("alice")
        bob = cluster.new_client("bob")
        alice.upload("a-file", data)
        bob.upload("b-file", data)  # same trimmed packages
        alice.rekey("a-file", FilePolicy.for_users(["alice"]), RevocationMode.ACTIVE)
        assert bob.download("b-file").data == data

    def test_many_files_per_user(self, cluster):
        alice = cluster.new_client("alice", cache_bytes=1 << 20)
        payloads = {}
        for i in range(6):
            payloads[f"file{i}"] = unique_data(30_000, seed=300 + i)
            alice.upload(f"file{i}", payloads[f"file{i}"])
        alice.rekey("file3", FilePolicy.for_users(["alice"]))
        for file_id, expected in payloads.items():
            assert alice.download(file_id).data == expected


class TestDeletionLifecycle:
    def test_space_reclaimed_only_after_last_reference(self, cluster):
        data = unique_data(200_000, seed=28)
        alice = cluster.new_client("alice")
        alice.upload("copy1", data)
        alice.upload("copy2", data)
        assert cluster.storage_stats.physical_bytes == len(data)
        alice.delete("copy1")
        assert cluster.storage_stats.physical_bytes == len(data)
        assert alice.download("copy2").data == data
        alice.delete("copy2")
        assert cluster.storage_stats.physical_bytes == 0
        assert cluster.storage_stats.stub_bytes == 0
