"""Tests for the REED server (server-side dedup, batch APIs)."""

import pytest

from repro.core.server import REEDServer
from repro.crypto.hashing import fingerprint
from repro.util.errors import IntegrityError, NotFoundError


@pytest.fixture()
def server():
    return REEDServer()


def batch(*payloads):
    return [(fingerprint(p), p) for p in payloads]


class TestChunkBatches:
    def test_put_reports_new_count(self, server):
        assert server.chunk_put_many(batch(b"a", b"b", b"a")) == [True, True, False]

    def test_server_side_dedup_across_batches(self, server):
        server.chunk_put_many(batch(b"one", b"two"))
        assert server.chunk_put_many(batch(b"two", b"three")) == [False, True]
        assert server.stats.chunks_stored == 3
        assert server.stats.chunks_received == 4

    def test_exists_batch(self, server):
        server.chunk_put_many(batch(b"here"))
        flags = server.chunk_exists_batch([fingerprint(b"here"), fingerprint(b"gone")])
        assert flags == [True, False]

    def test_get_batch_order(self, server):
        server.chunk_put_many(batch(b"x", b"y"))
        out = server.chunk_get_batch([fingerprint(b"y"), fingerprint(b"x")])
        assert out == [b"y", b"x"]

    def test_get_missing(self, server):
        with pytest.raises(NotFoundError):
            server.chunk_get_batch([b"\x00" * 32])

    def test_fingerprint_spoofing_rejected(self, server):
        """The server re-derives fingerprints: a client cannot poison a
        fingerprint with different content (duplicate-faking attack)."""
        [status] = server.chunk_put_many([(fingerprint(b"claimed"), b"actual")])
        assert isinstance(status, IntegrityError)
        assert server.stats.chunks_stored == 0

    def test_release_batch(self, server):
        server.chunk_put_many(batch(b"gone"))
        server.chunk_release_batch([fingerprint(b"gone")])
        assert server.chunk_exists_batch([fingerprint(b"gone")]) == [False]


class TestFileData:
    def test_recipe_ops(self, server):
        assert server.file_commit([("f1", b"stub-data", b"recipe")]) == [None]
        assert server.recipe_get_many(["f1"]) == [b"recipe"]
        assert server.recipe_list() == ["f1"]
        assert server.meta_delete_many(["f1"]) == [None]
        assert server.recipe_list() == []

    def test_stub_ops(self, server):
        server.file_commit([("f1", b"stub-data", b"recipe")])
        assert server.file_get_many(["f1"]) == [(b"stub-data", b"recipe")]
        assert server.stub_list() == ["f1"]
        server.meta_delete_many(["f1"])
        [missing] = server.file_get_many(["f1"])
        assert isinstance(missing, NotFoundError)

    def test_file_get_fails_per_item_on_a_half_written_file(self, server):
        """A node holding only the stub (an interrupted commit) fails the
        item; its neighbours in the batch are served."""
        server.file_commit([("whole", b"stub-data", b"recipe")])
        server.store.put_stub_file("half", b"stub-data")
        half, whole = server.file_get_many(["half", "whole"])
        assert isinstance(half, NotFoundError)
        assert whole == (b"stub-data", b"recipe")

    def test_meta_delete_drops_a_recipe_without_a_stub(self, server):
        """A replica that missed the stub put still drops the recipe."""
        server.store.put_recipe("f1", b"recipe")
        assert server.meta_delete_many(["f1"]) == [None]
        assert not server.store.has_recipe("f1")

    def test_meta_delete_drops_a_stub_without_a_recipe(self, server):
        server.store.put_stub_file("f1", b"stub-data")
        assert server.meta_delete_many(["f1"]) == [None]
        assert server.store.list_stub_files() == []

    def test_meta_delete_of_nothing_is_not_found(self, server):
        server.file_commit([("kept", b"stub-data", b"recipe")])
        result, kept = server.meta_delete_many(["absent", "kept"])
        assert isinstance(result, NotFoundError)
        assert kept is None
        assert server.store.list_recipes() == []
