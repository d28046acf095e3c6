"""Integration: replication survives a data-server kill with zero loss.

The drill the replication layer exists for: an R=2 cluster loses one
data server *mid-upload*, the upload still completes at write quorum,
the download is bit-identical (reads fall back to the surviving
replicas), and once the node is back the repair daemon restores full
replication — verified through the scraped ``replica_*`` series.
"""

import time

import pytest

from repro.chunking.chunker import ChunkingSpec
from repro.core.cluster import TcpCluster
from repro.obs.expo import parse_prometheus, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.storage.repair import ReplicaRepairer
from repro.util.daemon import IntervalDaemon
from repro.workloads.synthetic import unique_data


@pytest.fixture()
def cluster():
    with TcpCluster(
        num_data_servers=3,
        replicas=2,
        chunking=ChunkingSpec(avg_size=2048),
    ) as cluster:
        yield cluster


def serial_reader(cluster, user: str):
    """A client of ``user`` whose reads visit one shard at a time."""
    client = cluster.new_client(user)
    client.storage.fetch_workers = 1
    return client


class TestKillMidUpload:
    def test_zero_loss_and_repair_after_node_kill(self, cluster):
        alice = serial_reader(cluster, "alice")
        alice.upload_batch_bytes = 16 * 1024
        data = unique_data(400_000, seed=7)  # ~200 chunks, many batches

        # Kill storage-1 after the first few batches have shipped.
        storage = alice.storage
        real_put_many = storage.chunk_put_many
        calls = {"n": 0}

        def put_many_with_kill(chunks, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                cluster.kill_data_server(1)
            return real_put_many(chunks, **kwargs)

        storage.chunk_put_many = put_many_with_kill
        try:
            result = alice.upload("victim", data)
        finally:
            storage.chunk_put_many = real_put_many
        assert result.size == len(data)
        assert calls["n"] >= 4  # the kill really happened mid-upload
        assert storage.ring.down_nodes() == ["node-1"]

        # Zero data loss: every chunk is served by a surviving replica.
        assert alice.download("victim").data == data

        # A fresh client (whose ring still lists the dead node) also
        # reads the file intact — failures are discovered, not shared.
        fresh = serial_reader(cluster, "alice")
        assert fresh.download("victim").data == data

        # Node returns with the data it held at kill time; the repair
        # daemon probes it back up and restores full replication on its
        # own first background pass — no manual trigger.
        cluster.restart_data_server(1)
        metrics = MetricsRegistry()
        repairer = ReplicaRepairer(storage, metrics=metrics)
        daemon = IntervalDaemon(
            repairer.run_once, repairer.pass_failures, interval=60.0
        )
        with daemon:
            deadline = time.monotonic() + 30
            while daemon.last_report is None and time.monotonic() < deadline:
                time.sleep(0.02)
            report = daemon.last_report
        assert report is not None
        assert "node-1" in report.revived_nodes
        assert report.repairs > 0
        assert report.unrepaired == 0

        # The advertised series, through a real exposition round trip.
        series = parse_prometheus(render_prometheus(metrics))
        assert series[("replica_repairs_total", frozenset())] > 0
        assert series[("replicas_missing", frozenset())] == 0.0

        # Full replication restored: a second scan finds nothing to do.
        assert repairer.run_once().missing_replicas == 0

        # With every node back, downloads still verify bit-identically.
        assert alice.download("victim").data == data

    def test_wiped_node_is_refilled_by_repair(self, cluster):
        alice = serial_reader(cluster, "alice")
        data = unique_data(150_000, seed=8)
        alice.upload("precious", data)

        cluster.kill_data_server(2)
        cluster.restart_data_server(2, wipe=True)  # disk replaced, empty

        repairer = ReplicaRepairer(alice.storage)
        report = repairer.run_once()
        assert report.unrepaired == 0
        # The wiped node holds every chunk it owns again.
        listed = cluster.servers[2].chunk_list()
        owned = [
            fp
            for fp in listed
            if "node-2" in alice.storage.ring.preference(fp, 2)
        ]
        assert listed and len(owned) == len(listed)
        assert alice.download("precious").data == data


class TestDegradedWrites:
    def test_upload_against_downed_node_then_repair(self, cluster):
        """Writes land at quorum W=1 with a node down; repair completes
        replication once it returns."""
        alice = serial_reader(cluster, "alice")
        cluster.kill_data_server(0)
        data = unique_data(120_000, seed=9)
        alice.upload("degraded", data)  # first batch marks node-0 down
        assert alice.download("degraded").data == data

        cluster.restart_data_server(0)
        metrics = MetricsRegistry()
        report = ReplicaRepairer(alice.storage, metrics=metrics).run_once()
        assert report.unrepaired == 0
        assert metrics.value("replicas_missing") == 0.0
        assert alice.download("degraded").data == data
        # Degraded-mode writes were counted on the client registry.
        assert alice.storage.metrics.value("store_degraded_writes_total") > 0
