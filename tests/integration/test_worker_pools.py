"""Worker processes next to live servers: the key manager's signers
share a process with every TCP listener of an in-process ``TcpCluster``."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.core.cluster import TcpCluster
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
        client = cluster.new_client("alice")
        data = HmacDrbg(b"pools-data").random_bytes(3 * MiB // 2)
        result = client.upload("file", data)
        assert result.key_round_trips >= 1
        # The signers are up: every key window starts them.
        assert cluster.key_manager._signers.parallel_batches >= 1
        assert workers()

        for index in range(2):
            cluster.kill_data_server(index)
            cluster.restart_data_server(index)

        client.storage.probe_nodes()
        assert client.download("file").data == data
    # stop() reaped the signers.
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
