"""Concurrency: multiple clients hammering one deployment in parallel.

The paper's Experiment A.3(c) runs up to eight simultaneous clients; the
server side must keep the fingerprint index, containers, and accounting
consistent under that concurrency.  These tests drive real threads
through the full stack and check the invariants afterwards.
"""

import threading


from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.storage.fsck import fsck
from repro.workloads.synthetic import unique_data


def run_parallel(workers):
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors


class TestParallelUploads:
    def test_distinct_files_parallel(self, cluster):
        clients = [cluster.new_client(f"u{i}", cache_bytes=1 << 20) for i in range(4)]
        payloads = [unique_data(80_000, seed=700 + i) for i in range(4)]

        run_parallel(
            [
                (lambda c=c, d=d, i=i: c.upload(f"file-{i}", d))
                for i, (c, d) in enumerate(zip(clients, payloads))
            ]
        )
        for i, (client, data) in enumerate(zip(clients, payloads)):
            assert client.download(f"file-{i}").data == data
        stats = cluster.storage_stats
        assert stats.logical_bytes == sum(len(d) for d in payloads)
        assert stats.physical_bytes == stats.logical_bytes  # all unique

    def test_identical_content_parallel_dedups_exactly_once(self, cluster):
        """The race that matters: N clients upload the same bytes at the
        same time; every chunk must be stored exactly once."""
        data = unique_data(120_000, seed=710)
        clients = [cluster.new_client(f"d{i}", cache_bytes=1 << 20) for i in range(4)]

        run_parallel(
            [(lambda c=c, i=i: c.upload(f"dup-{i}", data)) for i, c in enumerate(clients)]
        )
        stats = cluster.storage_stats
        assert stats.logical_bytes == 4 * len(data)
        assert stats.physical_bytes == len(data)
        for i, client in enumerate(clients):
            assert client.download(f"dup-{i}").data == data
        # Index/containers consistent on every shard.
        for server in cluster.servers:
            assert fsck(server.store).clean

    def test_parallel_reads_while_writing(self, cluster):
        writer = cluster.new_client("writer", cache_bytes=1 << 20)
        data = unique_data(100_000, seed=720)
        writer.upload("stable", data, policy=FilePolicy.for_users(["writer", "reader"]))
        reader = cluster.new_client("reader", owner=False)
        more = [unique_data(50_000, seed=730 + i) for i in range(3)]

        workers = [
            (lambda d=d, i=i: writer.upload(f"new-{i}", d))
            for i, d in enumerate(more)
        ]
        workers += [
            (lambda: None if reader.download("stable").data == data else 1 / 0)
            for _ in range(3)
        ]
        run_parallel(workers)

    def test_parallel_rekeys_of_distinct_files(self, cluster):
        owner = cluster.new_client("owner", cache_bytes=1 << 20)
        data = unique_data(60_000, seed=740)
        policy = FilePolicy.for_users(["owner", "peer"])
        for i in range(4):
            owner.upload(f"rk-{i}", data, policy=policy)

        run_parallel(
            [
                (
                    lambda i=i: owner.rekey(
                        f"rk-{i}", FilePolicy.for_users(["owner"]), RevocationMode.ACTIVE
                    )
                )
                for i in range(4)
            ]
        )
        file_ids = [f"rk-{i}" for i in range(4)]
        for file_id in file_ids:
            assert owner.download(file_id).data == data
        records = cluster.keystore.get_many(file_ids)
        assert [record.key_version for record in records] == [1] * 4
