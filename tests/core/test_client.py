"""Tests for the REED client (upload/download/rekey/delete mechanics)."""

import math

import pytest

from repro.chunking.chunker import ChunkingSpec
from repro.core import client as client_module
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.core.schemes import STUB_SIZE, get_scheme
from repro.obs import scope as obs_scope
from repro.storage.recipes import FileRecipe
from repro.util.errors import (
    AccessDeniedError,
    ConfigurationError,
    IntegrityError,
    NotFoundError,
)
from repro.workloads.synthetic import unique_data


@pytest.fixture()
def alice(system):
    return system.new_client("alice", cache_bytes=1 << 20)


@pytest.fixture()
def data():
    return unique_data(200_000, seed=42)


class TestUpload:
    def test_result_fields(self, alice, data):
        result = alice.upload("f1", data)
        assert result.size == len(data)
        assert result.chunk_count > 0
        assert result.new_chunks == result.chunk_count
        assert result.trimmed_bytes == len(data)
        assert result.key_version == 0
        assert result.stub_file_bytes > result.chunk_count * 64

    def test_streaming_upload_matches_oneshot(self, system, data):
        a = system.new_client("a1")
        b = system.new_client("a2")
        blocks = [data[i : i + 7919] for i in range(0, len(data), 7919)]
        ra = a.upload("stream", blocks)
        rb = b.upload("oneshot", data)
        assert ra.chunk_count == rb.chunk_count
        # Server deduped everything from the second upload.
        assert rb.new_chunks == 0

    def test_non_owner_cannot_upload(self, system, data):
        reader = system.new_client("reader", owner=False)
        with pytest.raises(ConfigurationError):
            reader.upload("f", data)

    def test_default_policy_is_owner_only(self, system, alice, data):
        alice.upload("private", data)
        bob = system.new_client("bob")
        with pytest.raises(AccessDeniedError):
            bob.download("private")

    def test_fixed_chunking(self, system, data):
        client = system.new_client(
            "fixed-user",
        )
        client.chunking = ChunkingSpec(method="fixed", avg_size=4096)
        result = client.upload("fixed", data)
        assert result.chunk_count == (len(data) + 4095) // 4096
        assert client.download("fixed").data == data


class TestUploadObservability:
    def test_cold_upload_reports_oprf_work(self, alice, data):
        result = alice.upload("f1", data)
        assert result.key_oprf_evaluations == result.chunk_count
        assert result.key_cache_hits == 0
        # Batch size 256 >= chunk count here: exactly one round trip.
        assert result.key_round_trips == 1

    def test_warm_cache_upload_reports_hits_not_trips(self, alice, data):
        alice.upload("f1", data)
        result = alice.upload("f2", data)
        assert result.key_cache_hits == result.chunk_count
        assert result.key_oprf_evaluations == 0
        assert result.key_round_trips == 0

    def test_counters_are_per_upload_deltas(self, alice, data):
        with obs_scope.attribution() as both:
            first = alice.upload("f1", data)
            second = alice.upload("f2", data + b"tail-changes-last-chunk")
        # Most chunks repeat; only the delta shows up on the second result.
        assert second.key_cache_hits > 0
        assert second.key_oprf_evaluations < first.key_oprf_evaluations
        assert both.get_int("key_oprf_evaluations") == (
            first.key_oprf_evaluations + second.key_oprf_evaluations
        )


class TestWorkerConfiguration:
    """The client runs in its caller's process: it has no worker pool."""

    def test_parallel_upload_roundtrips(self, system, data):
        # Two uploads whose stub files an ACTIVE rekey_many re-encrypted read back intact.
        client = system.new_client("worker-parallel")
        files = {"fpar": data, "fpar2": data[::-1]}
        for file_id, content in files.items():
            client.upload(file_id, content)
        result = client.rekey_many(
            list(files), FilePolicy.for_users(["worker-parallel"]), RevocationMode.ACTIVE
        )
        assert result.files == 2 and result.stub_bytes_reencrypted > 0
        for file_id, content in files.items():
            assert client.download(file_id).data == content


class TestDownload:
    def test_roundtrip(self, alice, data):
        alice.upload("f1", data)
        result = alice.download("f1")
        assert result.data == data
        assert result.chunk_count > 0

    def test_missing_file(self, alice):
        with pytest.raises(NotFoundError):
            alice.download("ghost")

    def test_cross_user_shared_download(self, system, alice, data):
        policy = FilePolicy.for_users(["alice", "bob"])
        alice.upload("shared", data, policy=policy)
        bob = system.new_client("bob", owner=False)
        assert bob.download("shared").data == data

    def test_corrupted_stub_file_aborts(self, system, alice, data):
        alice.upload("f1", data)
        [(stub_file, recipe)] = system.storage.file_get_many(["f1"])
        blob = bytearray(stub_file)
        blob[len(blob) // 2] ^= 0x01
        system.storage.file_commit([("f1", bytes(blob), recipe)])
        with pytest.raises(IntegrityError):
            alice.download("f1")

    def test_recipe_size_mismatch_detected(self, system, alice, data):
        alice.upload("f1", data)
        [(stub_file, recipe_bytes)] = system.storage.file_get_many(["f1"])
        recipe = FileRecipe.decode(recipe_bytes)
        truncated = FileRecipe(
            file_id=recipe.file_id,
            pathname=recipe.pathname,
            size=recipe.size - recipe.chunks[-1].length,
            scheme=recipe.scheme,
            key_version=recipe.key_version,
            chunks=recipe.chunks[:-1],
        )
        system.storage.file_commit([("f1", stub_file, truncated.encode())])
        with pytest.raises(IntegrityError):
            alice.download("f1")

    def test_restore_takes_stub_size_from_stub_file(self, system, data):
        """A reader whose own scheme has 64-byte stubs restores a file
        written with 128-byte stubs: the stub file declares its size."""
        wide = system.new_client("wide", scheme=get_scheme("enhanced", stub_size=128))
        wide.upload("f1", data, policy=FilePolicy.for_users(["wide", "bob"]))
        bob = system.new_client("bob", owner=False)
        assert bob.scheme.stub_size == STUB_SIZE
        assert bob.download("f1").data == data

    def test_stub_size_no_scheme_takes_refused(self, system, alice, data, monkeypatch):
        alice.upload("f1", data)
        real = client_module.decrypt_stub_file
        monkeypatch.setattr(
            client_module,
            "decrypt_stub_file",
            lambda *args: [stub[:16] for stub in real(*args)],
        )
        with pytest.raises(IntegrityError, match="declares 16-byte stubs"):
            alice.download("f1")

    def test_small_fetch_batches(self, alice, data):
        """A restore pays one batched fetch per window of chunks, so
        small windows cost more store round trips for the same bytes."""
        alice.upload("f1", data)
        whole = alice.download("f1")
        alice.fetch_batch_chunks = 3
        windowed = alice.download("f1")
        assert windowed.data == whole.data == data
        assert whole.fetch_batches == 1
        assert windowed.fetch_batches == math.ceil(whole.chunk_count / 3) > 1
        assert windowed.store_round_trips > whole.store_round_trips


class TestRekey:
    def test_lazy_rekey_bumps_version(self, alice, data):
        alice.upload("f1", data, policy=FilePolicy.for_users(["alice", "bob"]))
        result = alice.rekey("f1", FilePolicy.for_users(["alice"]))
        assert result.old_key_version == 0
        assert result.new_key_version == 1
        assert result.stub_bytes_reencrypted == 0
        # Owner still reads the file via key regression unwinding.
        assert alice.download("f1").data == data

    def test_active_rekey_reencrypts_stub(self, system, alice, data):
        alice.upload("f1", data, policy=FilePolicy.for_users(["alice", "bob"]))
        before = system.storage.file_get_many(["f1"])[0][0]
        result = alice.rekey(
            "f1", FilePolicy.for_users(["alice"]), RevocationMode.ACTIVE
        )
        after = system.storage.file_get_many(["f1"])[0][0]
        assert result.stub_bytes_reencrypted == len(before) + len(after)
        assert before != after
        assert alice.download("f1").data == data

    def test_repeated_rekeys(self, alice, data):
        alice.upload("f1", data)
        for expected_version in range(1, 5):
            mode = (
                RevocationMode.ACTIVE
                if expected_version % 2
                else RevocationMode.LAZY
            )
            result = alice.rekey("f1", FilePolicy.for_users(["alice"]), mode)
            assert result.new_key_version == expected_version
        assert alice.download("f1").data == data

    def test_rekey_preserves_dedup(self, system, alice, data):
        """Rekeying must not change trimmed packages: a later upload of
        the same content still dedups fully (the paper's core claim)."""
        alice.upload("f1", data)
        alice.rekey("f1", FilePolicy.for_users(["alice"]), RevocationMode.ACTIVE)
        carol = system.new_client("carol")
        result = carol.upload("f2", data)
        assert result.new_chunks == 0

    def test_revoke_users_helper(self, system, alice, data):
        alice.upload("f1", data, policy=FilePolicy.for_users(["alice", "bob"]))
        result = alice.revoke_users("f1", {"bob"}, RevocationMode.ACTIVE)
        assert "bob" not in result.new_policy_text
        bob = system.new_client("bob", owner=False)
        with pytest.raises(AccessDeniedError):
            bob.download("f1")

    def test_revoke_users_refuses_to_widen_a_non_or_policy(
        self, system, alice, data
    ):
        policy = FilePolicy.parse("(alice or bob) and dept:eng")
        alice.upload("f1", data, policy=policy)
        before = system.keystore.get_many(["f1"])
        with pytest.raises(ConfigurationError):
            alice.revoke_users("f1", {"bob"}, RevocationMode.ACTIVE)
        assert system.keystore.get_many(["f1"]) == before
        assert before[0].key_version == 0

    def test_non_owner_cannot_rekey(self, system, alice, data):
        alice.upload("f1", data, policy=FilePolicy.for_users(["alice", "bob"]))
        bob = system.new_client("bob", owner=False)
        with pytest.raises(ConfigurationError):
            bob.rekey("f1", FilePolicy.for_users(["bob"]))

    def test_unauthorized_owner_cannot_rekey(self, system, alice, data):
        """Even a user with a derivation keypair cannot rekey a file whose
        policy excludes them (they cannot open the key state)."""
        alice.upload("f1", data)
        mallory = system.new_client("mallory")
        with pytest.raises(AccessDeniedError):
            mallory.rekey("f1", FilePolicy.for_users(["mallory"]))


class TestDelete:
    def test_delete_removes_everything(self, system, alice, data):
        alice.upload("f1", data)
        alice.delete("f1")
        with pytest.raises(NotFoundError):
            alice.download("f1")
        assert system.storage_stats.physical_bytes == 0

    def test_delete_respects_shared_chunks(self, system, alice, data):
        alice.upload("f1", data)
        alice.upload("f2", data)
        alice.delete("f1")
        assert alice.download("f2").data == data


class TestPathnameObfuscation:
    def test_salted_client_hides_pathnames(self, system, data):
        from repro.storage.recipes import FileRecipe, obfuscate_pathname

        client = system.new_client("salty")
        client.pathname_salt = b"org-wide-salt"
        client.upload("f1", data, pathname="/home/salty/secret-project/plan.doc")
        recipe = FileRecipe.decode(system.storage.recipe_get_many(["f1"])[0])
        assert "secret-project" not in recipe.pathname
        assert recipe.pathname == obfuscate_pathname(
            "/home/salty/secret-project/plan.doc", b"org-wide-salt"
        )
        # Obfuscation changes only metadata, never content.
        assert client.download("f1").data == data

    def test_unsalted_client_stores_pathname_verbatim(self, system, data):
        from repro.storage.recipes import FileRecipe

        client = system.new_client("plain")
        client.upload("f1", data, pathname="/tmp/visible")
        recipe = FileRecipe.decode(system.storage.recipe_get_many(["f1"])[0])
        assert recipe.pathname == "/tmp/visible"

    def test_same_pathname_same_obfuscation_across_snapshots(self, system, data):
        from repro.storage.recipes import FileRecipe

        client = system.new_client("stable")
        client.pathname_salt = b"salt"
        client.upload("day1", data, pathname="/home/x")
        client.upload("day2", data, pathname="/home/x")
        r1 = FileRecipe.decode(system.storage.recipe_get_many(["day1"])[0])
        r2 = FileRecipe.decode(system.storage.recipe_get_many(["day2"])[0])
        assert r1.pathname == r2.pathname


class TestPathHelpers:
    def test_upload_and_download_by_path(self, system, alice, data, tmp_path):
        source = tmp_path / "in.bin"
        source.write_bytes(data)
        result = alice.upload_path("by-path", str(source), read_block=7000)
        assert result.size == len(data)
        out = tmp_path / "out.bin"
        alice.download_path("by-path", str(out))
        assert out.read_bytes() == data

    def test_streamed_path_upload_matches_bytes_upload(
        self, system, alice, data, tmp_path
    ):
        source = tmp_path / "stream.bin"
        source.write_bytes(data)
        alice.upload_path("streamed", str(source), read_block=4096)
        other = system.new_client("other")
        result = other.upload("in-memory", data)
        assert result.new_chunks == 0  # identical chunking either way
