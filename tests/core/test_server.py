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
        assert server.chunk_put_batch(batch(b"a", b"b", b"a")) == 2

    def test_server_side_dedup_across_batches(self, server):
        server.chunk_put_batch(batch(b"one", b"two"))
        assert server.chunk_put_batch(batch(b"two", b"three")) == 1
        assert server.stats.chunks_stored == 3
        assert server.stats.chunks_received == 4

    def test_exists_batch(self, server):
        server.chunk_put_batch(batch(b"here"))
        flags = server.chunk_exists_batch([fingerprint(b"here"), fingerprint(b"gone")])
        assert flags == [True, False]

    def test_get_batch_order(self, server):
        server.chunk_put_batch(batch(b"x", b"y"))
        out = server.chunk_get_batch([fingerprint(b"y"), fingerprint(b"x")])
        assert out == [b"y", b"x"]

    def test_get_missing(self, server):
        with pytest.raises(NotFoundError):
            server.chunk_get_batch([b"\x00" * 32])

    def test_fingerprint_spoofing_rejected(self, server):
        """The server re-derives fingerprints: a client cannot poison a
        fingerprint with different content (duplicate-faking attack)."""
        with pytest.raises(IntegrityError):
            server.chunk_put_batch([(fingerprint(b"claimed"), b"actual")])
        assert server.stats.chunks_stored == 0

    def test_release_batch(self, server):
        server.chunk_put_batch(batch(b"gone"))
        server.chunk_release_batch([fingerprint(b"gone")])
        assert server.chunk_exists_batch([fingerprint(b"gone")]) == [False]


class TestFileData:
    def test_recipe_ops(self, server):
        server.recipe_put("f1", b"recipe")
        assert server.recipe_get("f1") == b"recipe"
        assert server.recipe_list() == ["f1"]
        server.recipe_delete("f1")
        assert server.recipe_list() == []

    def test_stub_ops(self, server):
        server.stub_put("f1", b"stub-data")
        assert server.stub_get("f1") == b"stub-data"
        server.stub_delete("f1")
        with pytest.raises(NotFoundError):
            server.stub_get("f1")

    def test_meta_delete_drops_a_recipe_without_a_stub(self, server):
        """A replica that missed the stub put still drops the recipe."""
        server.recipe_put("f1", b"recipe")
        assert server.meta_delete_many(["f1"]) == [None]
        assert not server.store.has_recipe("f1")

    def test_meta_delete_drops_a_stub_without_a_recipe(self, server):
        server.stub_put("f1", b"stub-data")
        assert server.meta_delete_many(["f1"]) == [None]
        assert server.store.list_stub_files() == []

    def test_meta_delete_of_nothing_is_not_found(self, server):
        server.recipe_put("kept", b"recipe")
        server.stub_put("kept", b"stub-data")
        result, kept = server.meta_delete_many(["absent", "kept"])
        assert isinstance(result, NotFoundError)
        assert kept is None
        assert server.store.list_recipes() == []


class TestCounters:
    def test_byte_counters(self, server):
        server.chunk_put_batch(batch(b"12345"))
        server.chunk_get_batch([fingerprint(b"12345")])
        assert server.counters.bytes_received == 5
        assert server.counters.bytes_sent == 5
        assert server.counters.put_batches == 1
        assert server.counters.get_batches == 1
