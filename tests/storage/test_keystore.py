"""Tests for the key store."""

from repro.obs import scope as obs_scope
from repro.storage.keystore import KeyStateRecord, KeyStore
from repro.util.errors import NotFoundError


def record(file_id="f1", version=0):
    return KeyStateRecord(
        file_id=file_id,
        policy_text="(alice or bob)",
        key_version=version,
        encrypted_state=b"\x01\x02\x03",
        owner_public_key=b"\x04\x05",
    )


class TestRecord:
    def test_roundtrip(self):
        rec = record(version=5)
        assert KeyStateRecord.decode(rec.encode()) == rec


class TestKeyStore:
    def test_put_get(self):
        store = KeyStore()
        assert store.put_many([record()]) == [None]
        assert store.get_many(["f1"]) == [record()]

    def test_replace_on_rekey(self):
        store = KeyStore()
        store.put_many([record(version=0)])
        store.put_many([record(version=1)])
        [stored] = store.get_many(["f1"])
        assert stored.key_version == 1

    def test_missing(self):
        [missing] = KeyStore().get_many(["nope"])
        assert isinstance(missing, NotFoundError)

    def test_delete(self):
        store = KeyStore()
        store.put_many([record("a"), record("b")])
        deleted, absent = store.delete_many(["a", "nope"])
        assert deleted is None
        assert isinstance(absent, NotFoundError)
        gone, kept = store.get_many(["a", "b"])
        assert isinstance(gone, NotFoundError)
        assert kept == record("b")

    def test_each_call_is_one_round_trip(self):
        store = KeyStore()
        with obs_scope.attribution() as scope:
            store.put_many([record("a"), record("b")])
            store.get_many(["a", "b", "nope"])
            store.delete_many(["a"])
        assert scope.get_int("keystore_round_trips") == 3
