"""Worker processes next to live servers: the client's rekey pool and
the key manager's signers share a process with every TCP listener of an
in-process ``TcpCluster``."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.core import parallel
from repro.core.cluster import TcpCluster
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.crypto.drbg import HmacDrbg
from repro.obs.expo import parse_prometheus

KiB = 1 << 10
MiB = 1 << 20
#: Child interpreters import the package under test, installed or not.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}


def test_data_server_restarts_while_worker_pools_are_alive():
    """Forked workers used to inherit every node's listening socket, so a
    killed data server could not get its port back (``EADDRINUSE``) until
    the pools were closed."""
    # Workers other tests leaked are none of this test's business.
    before = {child.pid for child in multiprocessing.active_children()}

    def workers():
        return {c.pid for c in multiprocessing.active_children()} - before

    with TcpCluster(
        num_data_servers=2, replicas=2, rng=HmacDrbg(b"pools")
    ) as cluster:
        client = cluster.new_client("alice", rekey_workers=2)
        data = HmacDrbg(b"pools-data").random_bytes(3 * MiB // 2)
        result = client.upload("file", data)
        assert result.key_round_trips >= 1
        # Both kinds of worker are up: the signers (every key window)
        # and the client's rekey workers.
        states = [client.keyreg_owner.initial_state() for _ in range(4)]
        assert client._rekey_pool.wind(states)[1]  # wound on the workers
        assert cluster.key_manager._signers.parallel_batches >= 1
        assert len(workers()) >= 3

        for index in range(2):
            cluster.kill_data_server(index)
            cluster.restart_data_server(index)

        client.storage.probe_nodes()
        assert client.download("file").data == data
        client.close()
    # stop() reaped the signers, close() the client's pools.
    assert workers() == set()


def _sign_batches(cluster) -> tuple[float, float]:
    """(serial, parallel) signing batches, from a live key-manager scrape."""
    samples = parse_prometheus(cluster.scrape_node("key-manager"))
    return tuple(
        samples.get(("km_sign_batches_total", frozenset({("mode", mode)})), 0)
        for mode in ("serial", "parallel")
    )


def test_small_uploads_after_a_signer_dies_count_as_serial():
    """A SIGKILLed signer poisons the signing pool: the batch that finds
    it dead is redone in-process and every later batch is signed on the
    handler thread.  Keys stay those of the healthy pool, and the series
    says where each batch was signed, not where it was meant to be."""
    files = [HmacDrbg(b"small-%d" % index).random_bytes(64 * KiB) for index in range(3)]
    with TcpCluster(num_data_servers=2, rng=HmacDrbg(b"signer-kill")) as cluster:
        alice = cluster.new_client("alice")
        for index, data in enumerate(files):
            alice.upload(f"alice-{index}", data)
        assert _sign_batches(cluster) == (0, 3)

        signers = cluster.key_manager._signers
        os.kill(next(iter(signers._executor._processes)), signal.SIGKILL)
        # Until the executor has noticed, the surviving signer may still
        # serve a whole batch; what is checked is what happens after.
        deadline = time.monotonic() + 30
        while not signers._executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)

        bob = cluster.new_client("bob")  # a cold key cache: every key is signed
        for index, data in enumerate(files):
            # The same MLE keys as alice's: every chunk deduplicates.
            assert bob.upload(f"bob-{index}", data).new_chunks == 0
        assert _sign_batches(cluster) == (3, 3)
        assert signers.use_processes is False
        assert bob.download("bob-2").data == files[2]
        alice.close()
        bob.close()


def test_serve_km_reaps_its_signers_on_sigterm(tmp_path):
    org = tmp_path / "org"
    cli = [sys.executable, "-m", "repro.cli"]
    subprocess.run(
        [*cli, "org", "init", "--org", str(org), "--key-bits", "512"],
        check=True,
        env=CHILD_ENV,
    )
    server = subprocess.Popen(
        [*cli, "serve", "km", "--org", str(org), "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    )
    try:
        address = server.stdout.readline().split()[-1]
        # Drive one small-file-sized batch; it starts the signers.
        sign = (
            "import sys\n"
            "from repro.core.service import RemoteKeyManagerChannel\n"
            "from repro.net.tcp import TcpConnection\n"
            "host, port = sys.argv[1].rsplit(':', 1)\n"
            "connection = TcpConnection(host, int(port))\n"
            "channel = RemoteKeyManagerChannel(connection.client())\n"
            "assert len(channel.derive_batch('alice', list(range(2, 10)))) == 8\n"
            "connection.close()\n"
        )
        subprocess.run([sys.executable, "-c", sign, address], check=True, env=CHILD_ENV)
        children = _children_of(server.pid)
        assert children, "the signers never started"
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0
        deadline = time.monotonic() + 10
        while _alive(children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _alive(children) == []
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def _die_winding(states):
    """Stands in for the wind span on a worker: the worker is SIGKILLed
    while it holds a window's key states."""
    os.kill(os.getpid(), signal.SIGKILL)


def _records_after_two_rekeys(kill_winders: bool, monkeypatch) -> dict:
    """Two ACTIVE rekey rounds of 16 files (windows above the wind
    threshold) and the bytes they leave in the key store."""
    with TcpCluster(num_data_servers=2, rng=HmacDrbg(b"wind-kill")) as cluster:
        client = cluster.new_client("alice", rekey_workers=2)
        file_ids = [f"file-{index}" for index in range(16)]
        for index, file_id in enumerate(file_ids):
            client.upload(file_id, HmacDrbg(b"%d" % index).random_bytes(3000))
        if kill_winders:
            monkeypatch.setattr(parallel, "_wind_span", _die_winding)

        def wind_batches():
            return {
                mode: client.metrics.value("client_rekey_wind_batches_total", mode=mode)
                for mode in ("serial", "parallel")
            }

        before = wind_batches()
        for users in (["alice", "bob"], ["alice"]):
            result = client.rekey_many(
                file_ids, FilePolicy.for_users(users), RevocationMode.ACTIVE
            )
            assert result.files == len(file_ids)
        pool = client._rekey_pool
        wound = {mode: count - before[mode] for mode, count in wind_batches().items()}
        if kill_winders:
            # The first window's workers died mid-wind: its winds were
            # redone in-process, and the pool runs everything after that
            # in-process too (two windows and two stub batches) — none of
            # which counts as a parallel wind.
            assert (pool.parallel_batches, pool.serial_batches) == (0, 4)
            assert pool.use_processes is False
            assert wound == {"serial": 2, "parallel": 0}
        else:
            # Two windows wound on the workers; the stub files are far
            # too small to leave the process.
            assert (pool.parallel_batches, pool.serial_batches) == (2, 2)
            assert wound == {"serial": 0, "parallel": 2}
        records = cluster.keystore.get_many(file_ids)
        for file_id in file_ids[:2]:
            assert client.download(file_id).key_version == 2
        client.close()
    return records


def test_killed_wind_worker_redoes_the_window_in_process(monkeypatch):
    """A rekey worker killed while winding costs the window nothing but
    time: the winds are redone in-process and every record is the one a
    healthy pool produces."""
    before = {child.pid for child in multiprocessing.active_children()}
    healthy = _records_after_two_rekeys(False, monkeypatch)
    assert _records_after_two_rekeys(True, monkeypatch) == healthy
    assert {c.pid for c in multiprocessing.active_children()} <= before


def _children_of(pid: int) -> list[int]:
    listing = subprocess.run(
        ["ps", "-o", "pid=", "--ppid", str(pid)], capture_output=True, text=True
    )
    return [int(line) for line in listing.stdout.split()]


def _alive(pids: list[int]) -> list[int]:
    listing = subprocess.run(
        ["ps", "-o", "pid=,stat=", "-p", ",".join(map(str, pids))],
        capture_output=True,
        text=True,
    )
    return [
        int(line.split()[0])
        for line in listing.stdout.splitlines()
        if line.split() and not line.split()[1].startswith("Z")
    ]
