"""The multi-process system over TCP, driven through the ``reed`` CLI.

A key manager, a key store and a storage server each run as their own
``reed serve`` process on ``--port 0`` (the printed ports are read
back, so nothing collides with a fixed port), a 4 MiB file goes up
with ``reed upload`` and comes back with ``reed download`` bit for bit,
and every server exits within 10 s of SIGTERM.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

SRC = Path(__file__).resolve().parents[2] / "src"
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ),
}
REED = [sys.executable, "-m", "repro.cli"]


def reed(*args: str) -> str:
    done = subprocess.run(
        [*REED, *args], env=ENV, capture_output=True, text=True, timeout=180
    )
    assert done.returncode == 0, f"reed {args[0]} failed:\n{done.stderr}"
    return done.stdout


def serve(role: str, org: Path, *extra: str) -> tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [*REED, "serve", role, "--org", str(org), "--port", "0", *extra],
        env=ENV,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    match = re.fullmatch(rf"{role} serving on (\S+:\d+)\n", line)
    assert match, f"{role} printed {line!r}"
    return process, match[1]


def test_upload_download_across_server_processes(tmp_path):
    org = tmp_path / "org"
    reed("org", "init", "--org", str(org), "--key-bits", "1024")
    servers: dict[str, tuple[subprocess.Popen, str]] = {}
    try:
        servers["km"] = serve("km", org)
        servers["keystore"] = serve("keystore", org, "--data", str(tmp_path / "ks"))
        servers["storage"] = serve("storage", org, "--data", str(tmp_path / "st"))
        data = random.Random(37).randbytes(4 * 1024 * 1024)
        source, restored = tmp_path / "in.bin", tmp_path / "out.bin"
        source.write_bytes(data)
        endpoints = [
            "--org", str(org), "--user", "alice",
            "--storage", servers["storage"][1],
            "--keystore", servers["keystore"][1],
            "--km", servers["km"][1],
        ]
        reed("upload", *endpoints, "--id", "f1", "--file", str(source))
        reed("download", *endpoints, "--id", "f1", "--out", str(restored))
        assert restored.read_bytes() == data
        for process, _ in servers.values():
            process.send_signal(signal.SIGTERM)
        for role, (process, _) in servers.items():
            assert process.wait(timeout=10) == 0, f"{role} exit status"
    finally:
        for process, _ in servers.values():
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
