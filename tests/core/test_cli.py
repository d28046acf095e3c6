"""Tests for the ``reed`` command-line tool against a real TCP cluster."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import OrgState, build_parser, main, start_service
from repro.workloads.synthetic import unique_data


@pytest.fixture(scope="module")
def org_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("org"))
    assert main(["org", "init", "--org", path, "--key-bits", "512"]) == 0
    return path


@pytest.fixture(scope="module")
def cluster(org_dir):
    """Two storage servers, a key store, and a key manager over TCP."""
    org = OrgState(org_dir)
    servers = {
        "s1": start_service("storage", org),
        "s2": start_service("storage", org),
        "keystore": start_service("keystore", org),
        "km": start_service("km", org),
    }
    yield servers
    for server in servers.values():
        server.stop()


def client_args(org_dir, cluster, user):
    def ep(name):
        host, port = cluster[name].address
        return f"{host}:{port}"

    return [
        "--org", org_dir,
        "--user", user,
        "--storage", f"{ep('s1')},{ep('s2')}",
        "--keystore", ep("keystore"),
        "--km", ep("km"),
        "--key-bits", "512",
    ]


class TestOrg:
    def test_init_creates_trust_root(self, org_dir):
        assert os.path.isfile(os.path.join(org_dir, "authority.master"))
        assert os.path.isfile(os.path.join(org_dir, "keymanager.rsa"))

    def test_double_init_rejected(self, org_dir):
        assert main(["org", "init", "--org", org_dir]) == 2

    def test_missing_org_reported(self, tmp_path, cluster, org_dir):
        code = main(
            ["ls", *client_args(str(tmp_path / "nowhere"), cluster, "alice")]
        )
        assert code == 2

    def test_derivation_keys_persist(self, org_dir):
        org = OrgState(org_dir)
        first = org.derivation_key("carol", 512)
        second = org.derivation_key("carol", 512)
        assert first.n == second.n


class TestFileLifecycle:
    def test_upload_download_roundtrip(self, org_dir, cluster, tmp_path):
        source = tmp_path / "input.bin"
        data = unique_data(120_000, seed=77)
        source.write_bytes(data)
        out = tmp_path / "output.bin"
        assert main([
            "upload", *client_args(org_dir, cluster, "alice"),
            "--id", "cli-file", "--file", str(source),
            "--policy", "alice or bob",
        ]) == 0
        assert main([
            "download", *client_args(org_dir, cluster, "bob"),
            "--id", "cli-file", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == data

    def test_ls(self, org_dir, cluster, tmp_path, capsys):
        source = tmp_path / "ls-input.bin"
        source.write_bytes(unique_data(30_000, seed=78))
        main([
            "upload", *client_args(org_dir, cluster, "alice"),
            "--id", "ls-file", "--file", str(source),
        ])
        capsys.readouterr()
        assert main(["ls", *client_args(org_dir, cluster, "alice")]) == 0
        assert "ls-file" in capsys.readouterr().out

    def test_revoke(self, org_dir, cluster, tmp_path):
        source = tmp_path / "rv-input.bin"
        data = unique_data(60_000, seed=79)
        source.write_bytes(data)
        out = tmp_path / "rv-out.bin"
        main([
            "upload", *client_args(org_dir, cluster, "alice"),
            "--id", "rv-file", "--file", str(source),
            "--policy", "alice or bob",
        ])
        assert main([
            "revoke", *client_args(org_dir, cluster, "alice"),
            "--id", "rv-file", "--users", "bob", "--mode", "active",
        ]) == 0
        # Bob is now denied (error exit), Alice still succeeds.
        assert main([
            "download", *client_args(org_dir, cluster, "bob"),
            "--id", "rv-file", "--out", str(out),
        ]) == 2
        assert main([
            "download", *client_args(org_dir, cluster, "alice"),
            "--id", "rv-file", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == data

    def test_missing_file_download_fails_cleanly(self, org_dir, cluster, tmp_path):
        assert main([
            "download", *client_args(org_dir, cluster, "alice"),
            "--id", "ghost", "--out", str(tmp_path / "x"),
        ]) == 2


class TestParser:
    def test_demo_runs(self):
        assert main(["demo"]) == 0

    def test_demo_exits_cleanly_in_a_fresh_interpreter(self):
        """The demo's key manager signs on worker processes; they are
        reaped before exit instead of being left to the garbage
        collector, whose shutdown of them races the interpreter's."""
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "demo"],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert done.returncode == 0
        assert "Traceback" not in done.stderr, done.stderr

    def test_endpoint_validation(self, org_dir, cluster):
        args = client_args(org_dir, cluster, "alice")
        args[args.index("--km") + 1] = "not-an-endpoint"
        assert main(["ls", *args]) == 2

    def test_parser_builds(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])  # command required

    def test_serve_once(self, org_dir, capsys):
        assert main([
            "serve", "keystore", "--org", org_dir, "--once",
        ]) == 0
        assert "keystore serving" in capsys.readouterr().out

    def test_serve_storage_runs_gc_daemon(self, org_dir):
        """A storage server started with --gc-interval compacts on its
        own: stranded dead space disappears without `reed gc run`."""
        import time

        from repro.core.service import RemoteStorageService
        from repro.crypto.hashing import fingerprint
        from repro.net.tcp import TcpConnection

        org = OrgState(org_dir)
        server = start_service(
            "storage", org, gc_threshold=0.2, gc_interval=0.05
        )
        try:
            host, port = server.address
            connection = TcpConnection(host, port)
            try:
                remote = RemoteStorageService(connection.client())
                pairs = [
                    (fingerprint(bytes([i]) * 64), bytes([i]) * 64)
                    for i in range(8)
                ]
                remote.chunk_put_batch(pairs)
                remote.flush()
                remote.chunk_release_batch([fp for fp, _ in pairs[:4]])
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    status = remote.gc_status()
                    if status["dead_bytes"] == 0 and status["passes"] > 0:
                        break
                    time.sleep(0.05)
                assert status["dead_bytes"] == 0
                assert status["bytes_reclaimed_total"] == 256
                # Survivors still served after the background compaction.
                assert remote.chunk_get_batch([pairs[5][0]]) == [pairs[5][1]]
            finally:
                connection.close()
        finally:
            server.stop()


class TestDurableStorage:
    def test_serve_storage_with_data_dir(self, org_dir, tmp_path):
        """`reed serve storage --data DIR` persists containers on disk."""
        org = OrgState(org_dir)
        data_dir = tmp_path / "srv"
        server = start_service("storage", org, data=str(data_dir))
        try:
            keystore = start_service("keystore", org)
            km = start_service("km", org)
            try:
                def ep(s):
                    host, port = s.address
                    return f"{host}:{port}"

                source = tmp_path / "durable.bin"
                payload = unique_data(50_000, seed=80)
                source.write_bytes(payload)
                args = [
                    "--org", org_dir, "--user", "alice",
                    "--storage", ep(server),
                    "--keystore", ep(keystore),
                    "--km", ep(km),
                    "--key-bits", "512",
                ]
                assert main([
                    "upload", *args, "--id", "durable", "--file", str(source),
                ]) == 0
                assert (data_dir / "container").exists()
            finally:
                keystore.stop()
                km.stop()
        finally:
            server.stop()


class TestGroupCommands:
    def test_group_lifecycle_via_cli(self, org_dir, cluster, tmp_path):
        args = client_args(org_dir, cluster, "pi")
        assert main([
            "group", "create", *args,
            "--group", "lab", "--policy", "pi or postdoc or student",
        ]) == 0

        source = tmp_path / "grp-input.bin"
        data = unique_data(40_000, seed=81)
        source.write_bytes(data)
        assert main([
            "group", "upload", *args,
            "--group", "lab", "--id", "grp-file", "--file", str(source),
        ]) == 0

        out = tmp_path / "grp-out.bin"
        assert main([
            "download", *client_args(org_dir, cluster, "student"),
            "--id", "grp-file", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == data

        assert main([
            "group", "revoke", *args,
            "--group", "lab", "--users", "student", "--mode", "active",
        ]) == 0
        assert main([
            "download", *client_args(org_dir, cluster, "student"),
            "--id", "grp-file", "--out", str(out),
        ]) == 2
        assert main([
            "download", *client_args(org_dir, cluster, "postdoc"),
            "--id", "grp-file", "--out", str(out),
        ]) == 0

    def test_group_members_listing(self, org_dir, cluster, tmp_path, capsys):
        args = client_args(org_dir, cluster, "owner2")
        main(["group", "create", *args, "--group", "g2", "--policy", "owner2"])
        source = tmp_path / "m.bin"
        source.write_bytes(unique_data(20_000, seed=82))
        main([
            "group", "upload", *args,
            "--group", "g2", "--id", "member-file", "--file", str(source),
        ])
        capsys.readouterr()
        assert main(["group", "members", *args, "--group", "g2"]) == 0
        assert "member-file" in capsys.readouterr().out


class TestGcCommand:
    def _endpoints(self, cluster):
        return ",".join(
            f"{cluster[name].address[0]}:{cluster[name].address[1]}"
            for name in ("s1", "s2")
        )

    def test_status_and_run(self, org_dir, cluster, tmp_path, capsys):
        # Upload a file, then delete it after a second file pinned half
        # its chunks, leaving dead space for the GC to report and reclaim.
        doomed = tmp_path / "doomed.bin"
        block = unique_data(40_000, seed=88)
        doomed.write_bytes(block + unique_data(40_000, seed=89))
        kept = tmp_path / "kept.bin"
        kept.write_bytes(block)
        args = client_args(org_dir, cluster, "alice")
        assert main([
            "upload", *args, "--id", "gc-doomed", "--file", str(doomed),
        ]) == 0
        assert main([
            "upload", *args, "--id", "gc-kept", "--file", str(kept),
        ]) == 0
        assert main(["rm", *args, "--id", "gc-doomed"]) == 0

        endpoints = self._endpoints(cluster)
        assert main(["gc", "status", "--endpoints", endpoints]) == 0
        status_out = capsys.readouterr().out
        assert "dead" in status_out and "candidate" in status_out

        assert main([
            "gc", "run", "--endpoints", endpoints, "--threshold", "0.1",
        ]) == 0
        run_out = capsys.readouterr().out
        assert "last pass:" in run_out

        # The kept file still restores bit-identically post-compaction.
        out = tmp_path / "kept-restored.bin"
        assert main([
            "download", *args, "--id", "gc-kept", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == block
