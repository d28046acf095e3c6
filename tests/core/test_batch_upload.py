"""Acceptance tests for the batched upload pipeline.

The PR's contract: an N-chunk upload performs at most
``ceil(N / key_batch_size)`` key-manager round trips and at most
``shards × upload_batches`` store round trips — while producing stored
chunk blobs and file recipes *byte-identical* to the per-chunk
reference configuration.
"""

import math

import pytest

from repro.chunking.chunker import ChunkingSpec
from repro.core.cluster import TcpCluster
from repro.core.system import build_system
from repro.crypto.drbg import HmacDrbg
from repro.storage.recipes import FileRecipe

CHUNK = 4096
FIXED = ChunkingSpec(method="fixed", avg_size=CHUNK)


def make_data(chunks, seed=b"batch-upload"):
    return HmacDrbg(seed).random_bytes(chunks * CHUNK)


def per_chunk_client(cluster, user):
    """The per-chunk reference configuration: one fingerprint per key
    RPC, one chunk per store batch, no stage overlap."""
    client = cluster.new_client(user, key_batch_size=1)
    client.upload_batch_bytes = 1
    client.pipeline_depth = 1
    return client


class TestRoundTripBounds:
    def test_key_round_trips_bounded(self):
        system = build_system(
            num_data_servers=4, chunking=FIXED, key_batch_size=16,
            rng=HmacDrbg(b"rt"),
        )
        client = system.new_client("alice")
        n = 50
        result = client.upload("file", make_data(n))
        assert result.chunk_count == n
        assert result.key_round_trips <= math.ceil(n / 16)

    def test_store_round_trips_bounded(self, monkeypatch):
        shards = 4
        system = build_system(
            num_data_servers=shards, chunking=FIXED, rng=HmacDrbg(b"rt2")
        )
        put_calls = []
        for server in system.servers:

            def counted(chunks, flush=False, put=server.chunk_put_many):
                put_calls.append(len(chunks))
                return put(chunks, flush=flush)

            monkeypatch.setattr(server, "chunk_put_many", counted)
        client = system.new_client("alice")
        n = 50
        result = client.upload("file", make_data(n))
        # Chunk-put traffic: at most one sub-call per shard per batch.
        assert 0 < len(put_calls) <= shards * result.upload_batches
        # Whole upload (puts + bare flushes + file commit): bounded by a
        # constant number of per-shard fan-outs, not by N.
        assert result.store_round_trips <= shards * (2 * result.upload_batches + 3)

    def test_single_batch_for_small_file(self):
        system = build_system(
            num_data_servers=2, chunking=FIXED, rng=HmacDrbg(b"rt3")
        )
        client = system.new_client("alice")
        result = client.upload("file", make_data(8))  # 32 KiB < 4 MiB batch
        assert result.upload_batches == 1
        assert result.key_round_trips == 1

    def test_dedup_upload_skips_key_and_put_traffic(self):
        system = build_system(
            num_data_servers=2, chunking=FIXED, rng=HmacDrbg(b"rt4")
        )
        client = system.new_client("alice", cache_bytes=1 << 20)
        data = make_data(16)
        client.upload("first", data)
        result = client.upload("second", data)
        assert result.key_round_trips == 0  # all keys came from the cache
        assert result.new_chunks == 0


class TestBitIdenticalToPerChunkPath:
    """Same seed, same data: the batched pipeline and the per-chunk
    configuration must leave identical bytes behind."""

    def _upload_with(self, per_chunk: bool, n=24):
        cluster = TcpCluster(
            num_data_servers=2, chunking=FIXED, rng=HmacDrbg(b"equivalence")
        )
        try:
            client = (
                per_chunk_client(cluster, "alice")
                if per_chunk
                else cluster.new_client("alice")
            )
            result = client.upload("file", make_data(n))
            [recipe] = client.storage.recipe_get_many(["file"])
            fingerprints = [
                ref.fingerprint for ref in FileRecipe.decode(recipe).chunks
            ]
            chunks = client.storage.chunk_get_batch(fingerprints)
            roundtrip = client.download("file")
            return {
                "result": result,
                "fingerprints": fingerprints,
                "chunks": chunks,
                "recipe": recipe,
                "plaintext": roundtrip.data,
            }
        finally:
            cluster.stop()

    def test_stored_bytes_identical(self):
        n = 24
        batched = self._upload_with(False, n)
        per_chunk = self._upload_with(True, n)
        assert batched["fingerprints"] == per_chunk["fingerprints"]
        assert batched["chunks"] == per_chunk["chunks"]
        assert batched["recipe"] == per_chunk["recipe"]
        assert batched["plaintext"] == per_chunk["plaintext"] == make_data(n)
        # And the batched run really was batched while the reference
        # really was per-chunk.
        assert batched["result"].key_round_trips == 1
        assert per_chunk["result"].key_round_trips == n
        assert batched["result"].upload_batches == 1
        assert per_chunk["result"].upload_batches == n
        assert (
            batched["result"].store_round_trips
            < per_chunk["result"].store_round_trips
        )

    def test_cross_client_dedup_between_paths(self):
        """A per-chunk uploader and a batched uploader of the same file
        deduplicate against each other — proof the batch path derives
        the exact same keys and ciphertexts."""
        with TcpCluster(
            num_data_servers=2, chunking=FIXED, rng=HmacDrbg(b"dedup")
        ) as cluster:
            data = make_data(16)
            first = per_chunk_client(cluster, "alice")
            first.upload("alice-file", data)
            second = cluster.new_client("bob")
            result = second.upload("bob-file", data)
            assert result.new_chunks == 0  # every chunk was already there


class TestTcpRoundTripAccounting:
    @pytest.mark.slow
    def test_counters_reflect_real_socket_traffic(self):
        with TcpCluster(
            num_data_servers=2, chunking=FIXED, rng=HmacDrbg(b"tcp-rt")
        ) as cluster:
            n = 32
            client = cluster.new_client("alice")
            result = client.upload("file", make_data(n))
            assert result.chunk_count == n
            assert result.key_round_trips == 1
            # ≤ shards × (put per batch) + bare flushes + file commit.
            assert result.store_round_trips <= 2 * (2 * result.upload_batches + 3)
            served = sum(
                metrics.value("tcp_requests_total")
                for metrics in cluster.node_metrics.values()
            )
            assert served < n  # far fewer RPCs than chunks
