"""Tests for group rekeying (one policy change over many files)."""

import pytest

from repro.core.groups import GroupManager
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.util.errors import AccessDeniedError, ConfigurationError
from repro.workloads.synthetic import unique_data


@pytest.fixture()
def pi(system):
    return system.new_client("pi", cache_bytes=1 << 20)


@pytest.fixture()
def groups(pi):
    return GroupManager(pi)


@pytest.fixture()
def project(system, pi, groups):
    """A group with three files shared with two team members."""
    policy = FilePolicy.for_users(["pi", "postdoc", "student"])
    groups.create_group("genomics", policy)
    payloads = {}
    for i in range(3):
        payloads[f"batch-{i}"] = unique_data(40_000, seed=500 + i)
        groups.upload("genomics", f"batch-{i}", payloads[f"batch-{i}"])
    return payloads


class TestGroupLifecycle:
    def test_create_requires_owner(self, system):
        reader = system.new_client("reader", owner=False)
        with pytest.raises(ConfigurationError):
            GroupManager(reader)

    def test_duplicate_group_rejected(self, groups):
        groups.create_group("g", FilePolicy.for_users(["pi"]))
        with pytest.raises(ConfigurationError):
            groups.create_group("g", FilePolicy.for_users(["pi"]))

    def test_members_listed(self, groups, project):
        assert groups.members("genomics") == ["batch-0", "batch-1", "batch-2"]

    def test_owner_reads_group_files(self, pi, project):
        for file_id, expected in project.items():
            assert pi.download(file_id).data == expected

    def test_authorized_member_reads_group_files(self, system, project):
        postdoc = system.new_client("postdoc", owner=False)
        for file_id, expected in project.items():
            assert postdoc.download(file_id).data == expected

    def test_outsider_denied(self, system, project):
        outsider = system.new_client("outsider", owner=False)
        with pytest.raises(AccessDeniedError):
            outsider.download("batch-0")

    def test_adopt_existing_file(self, system, pi, groups):
        groups.create_group("g", FilePolicy.for_users(["pi", "postdoc"]))
        data = unique_data(20_000, seed=600)
        pi.upload("standalone", data)
        groups.adopt("g", "standalone")
        assert groups.members("g") == ["standalone"]
        postdoc = system.new_client("postdoc", owner=False)
        assert postdoc.download("standalone").data == data

    def test_double_adopt_rejected(self, pi, groups):
        groups.create_group("g", FilePolicy.for_users(["pi"]))
        pi.upload("f", unique_data(10_000, seed=601))
        groups.adopt("g", "f")
        with pytest.raises(ConfigurationError):
            groups.adopt("g", "f")


class TestGroupRekey:
    def test_lazy_rekey_revokes_everywhere(self, system, pi, groups, project):
        student = system.new_client("student", owner=False)
        assert student.download("batch-1").data == project["batch-1"]
        result = groups.revoke_users("genomics", {"student"})
        assert result.abe_operations == 1
        assert result.files_rewrapped == 3
        assert result.stub_bytes_reencrypted == 0
        for file_id in project:
            with pytest.raises(AccessDeniedError):
                student.download(file_id)
        # Remaining member and owner unaffected.
        postdoc = system.new_client("postdoc", owner=False)
        for file_id, expected in project.items():
            assert postdoc.download(file_id).data == expected
            assert pi.download(file_id).data == expected

    def test_active_rekey_moves_only_stub_bytes(self, system, pi, groups, project):
        total_data = sum(len(d) for d in project.values())
        result = groups.revoke_users(
            "genomics", {"student"}, RevocationMode.ACTIVE
        )
        assert result.mode is RevocationMode.ACTIVE
        assert 0 < result.stub_bytes_reencrypted < total_data / 10
        for file_id, expected in project.items():
            assert pi.download(file_id).data == expected

    def test_active_rekey_changes_file_keys(self, system, pi, groups, project):
        before = {fid: system.keystore.get(fid).key_version for fid in project}
        groups.rekey(
            "genomics",
            FilePolicy.for_users(["pi", "postdoc"]),
            RevocationMode.ACTIVE,
        )
        after = {fid: system.keystore.get(fid).key_version for fid in project}
        assert all(after[fid] == before[fid] + 1 for fid in project)

    def test_repeated_group_rekeys(self, system, pi, groups, project):
        for version in range(1, 4):
            result = groups.rekey(
                "genomics", FilePolicy.for_users(["pi", "postdoc"])
            )
            assert result.new_group_version == version
        postdoc = system.new_client("postdoc", owner=False)
        for file_id, expected in project.items():
            assert postdoc.download(file_id).data == expected

    def test_group_rekey_preserves_dedup(self, system, pi, groups, project):
        groups.rekey(
            "genomics",
            FilePolicy.for_users(["pi"]),
            RevocationMode.ACTIVE,
        )
        other = system.new_client("other")
        result = other.upload("dup-check", project["batch-0"])
        assert result.new_chunks == 0

    def test_amortization_vs_per_file(self, pi, groups, project):
        """The design goal: group rekey performs one ABE encryption
        regardless of member count (per-file rekeying would do three)."""

        def seals() -> float:
            return pi.metrics.value("client_abe_headers_total", op="seal")

        before = seals()
        groups.rekey("genomics", FilePolicy.for_users(["pi", "postdoc"]))
        assert seals() - before == 1
