"""Process hygiene of a live cluster: a killed data server gets its port
back, and ``reed serve km`` signs on threads and exits cleanly."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.cluster import TcpCluster
from repro.crypto.drbg import HmacDrbg

MiB = 1 << 20
#: Child interpreters import the package under test, installed or not.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}


def test_data_servers_restart_on_their_ports():
    """Each data server is killed and restarted on its port while the
    cluster serves, and the file reads back whole."""
    with TcpCluster(
        num_data_servers=2, replicas=2, rng=HmacDrbg(b"pools")
    ) as cluster:
        client = cluster.new_client("alice")
        data = HmacDrbg(b"pools-data").random_bytes(3 * MiB // 2)
        result = client.upload("file", data)
        assert result.key_round_trips >= 1

        for index in range(2):
            cluster.kill_data_server(index)
            cluster.restart_data_server(index)

        client.storage.probe_nodes()
        assert client.download("file").data == data


def test_serve_km_signs_with_no_child_and_exits_on_sigterm(tmp_path):
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
        # One small-file-sized batch: split over the signer threads.
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
        assert _children_of(server.pid) == []
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()


def _children_of(pid: int) -> list[int]:
    listing = subprocess.run(
        ["ps", "-o", "pid=", "--ppid", str(pid)], capture_output=True, text=True
    )
    return [int(line) for line in listing.stdout.split()]
