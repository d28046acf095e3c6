"""Integration: compaction GC and index persistence over a TCP cluster.

Two drills for the locality-aware container engine:

* **Compaction over RPC** — files sharing chunks are uploaded, one is
  deleted, and the stranded dead space is reclaimed through the
  ``storage.gc`` RPC (one-shot and via the background daemons) while the
  surviving file stays bit-identical.
* **Restart persistence** — a data server is killed and restarted over
  its surviving backend; the fingerprint-index journal written by
  ``flush()`` brings dedup state and chunk locations back.
"""

import time

import pytest

from repro.chunking.chunker import ChunkingSpec
from repro.core.cluster import TcpCluster
from repro.workloads.synthetic import unique_data

CHUNK = 2048


def shared_payloads():
    """Two files sharing their second half: ``doomed`` = A||B, ``kept`` = B.

    Fixed-size chunking over aligned blocks makes B's chunks dedup
    between the files, so deleting ``doomed`` strands A's chunks as dead
    space inside containers that still hold B's live chunks — exactly
    the fragmentation compaction exists to clean up.
    """
    block_a = unique_data(16 * CHUNK, seed=41)
    block_b = unique_data(16 * CHUNK, seed=42)
    return block_a + block_b, block_b


@pytest.fixture()
def cluster():
    with TcpCluster(
        num_data_servers=2,
        chunking=ChunkingSpec(method="fixed", avg_size=CHUNK),
        gc_threshold=0.2,
    ) as cluster:
        yield cluster


class TestGcOverRpc:
    def test_delete_then_compact_reclaims_dead_space(self, cluster):
        doomed, kept = shared_payloads()
        alice = cluster.new_client("alice", fetch_workers=1)
        alice.upload("doomed", doomed)
        assert alice.upload("kept", kept).new_chunks == 0  # B dedups
        alice.delete("doomed")

        status = alice.storage.gc_status()
        assert status["dead_bytes"] > 0
        assert status["live_bytes"] > 0
        assert status["candidates"] > 0
        assert status["threshold"] == pytest.approx(0.2)
        dead_before = status["dead_bytes"]

        result = alice.storage.gc_run()
        assert result["bytes_reclaimed_total"] >= 0.9 * dead_before
        assert result["last_reclaimed_bytes"] >= 0.9 * dead_before
        assert result["dead_bytes"] == 0
        assert result["dead_space_ratio"] == 0.0
        assert result["containers_compacted_total"] > 0

        # The surviving file is bit-identical after relocation — both
        # for this client and for a cold one with an empty chunk cache.
        assert alice.download("kept").data == kept
        assert cluster.new_client("alice", fetch_workers=1).download(
            "kept"
        ).data == kept

    def test_gc_status_per_node_stub(self, cluster):
        doomed, kept = shared_payloads()
        alice = cluster.new_client("alice", fetch_workers=1)
        alice.upload("doomed", doomed)
        alice.upload("kept", kept)
        alice.delete("doomed")

        reclaimed = 0
        for index in range(2):
            service = cluster.connect_storage(index)
            status = service.gc_status()
            assert status["passes"] == 0
            # A one-off threshold overrides the node's configured one.
            after = service.gc_run(threshold=0.1)
            assert after["passes"] == 1
            reclaimed += after["bytes_reclaimed_total"]
        assert reclaimed > 0
        assert alice.download("kept").data == kept

    def test_gc_metrics_scraped_over_tcp(self, cluster):
        doomed, kept = shared_payloads()
        alice = cluster.new_client("alice", fetch_workers=1)
        alice.upload("doomed", doomed)
        alice.upload("kept", kept)
        alice.delete("doomed")
        alice.storage.gc_run()
        scraped = "".join(
            cluster.scrape_node(f"storage-{index}") for index in range(2)
        )
        assert "gc_bytes_reclaimed_total" in scraped
        assert "container_compressed_bytes" in scraped
        assert "dead_space_ratio" in scraped


class TestBackgroundDaemons:
    def test_daemons_reclaim_without_manual_trigger(self):
        with TcpCluster(
            num_data_servers=2,
            chunking=ChunkingSpec(method="fixed", avg_size=CHUNK),
            gc_threshold=0.2,
            gc_interval=0.05,
        ) as cluster:
            doomed, kept = shared_payloads()
            alice = cluster.new_client("alice", fetch_workers=1)
            alice.upload("doomed", doomed)
            alice.upload("kept", kept)
            alice.delete("doomed")

            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status = alice.storage.gc_status()
                if status["dead_bytes"] == 0 and status["bytes_reclaimed_total"] > 0:
                    break
                time.sleep(0.05)
            assert status["dead_bytes"] == 0
            assert status["bytes_reclaimed_total"] > 0
            assert alice.download("kept").data == kept


class TestRestartPersistence:
    def test_restart_preserves_index_and_data(self):
        with TcpCluster(
            num_data_servers=1,
            chunking=ChunkingSpec(method="fixed", avg_size=CHUNK),
        ) as cluster:
            alice = cluster.new_client("alice", fetch_workers=1)
            data = unique_data(60_000, seed=43)
            result = alice.upload("durable", data)
            assert result.new_chunks > 0
            chunks_before = cluster.servers[0].store.stats.chunks_stored

            # Reboot the only data server over its surviving backend: the
            # new process replays the fingerprint-index journal written
            # by the upload's flush.
            cluster.kill_data_server(0)
            cluster.restart_data_server(0)

            restarted = cluster.servers[0].store
            assert restarted.stats.chunks_stored == chunks_before
            assert alice.download("durable").data == data
            # Dedup state survived too: re-uploading stores zero chunks.
            assert alice.upload("again", data).new_chunks == 0

    def test_restart_preserves_dead_space_accounting(self):
        with TcpCluster(
            num_data_servers=1,
            chunking=ChunkingSpec(method="fixed", avg_size=CHUNK),
            gc_threshold=0.2,
        ) as cluster:
            doomed, kept = shared_payloads()
            alice = cluster.new_client("alice", fetch_workers=1)
            alice.upload("doomed", doomed)
            alice.upload("kept", kept)
            alice.delete("doomed")
            dead_before = alice.storage.gc_status()["dead_bytes"]
            assert dead_before > 0
            cluster.servers[0].flush()  # snapshot the released state

            cluster.kill_data_server(0)
            cluster.restart_data_server(0)

            # The reconciled accounting still shows the dead bytes, and
            # compaction on the rebooted node reclaims them.
            status = alice.storage.gc_status()
            assert status["dead_bytes"] == dead_before
            result = alice.storage.gc_run()
            assert result["dead_bytes"] == 0
            assert alice.download("kept").data == kept
