"""Tests for group rekeying (one policy change over many files)."""

import pytest

from repro.core.groups import GroupManager
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.core.system import build_system
from repro.crypto.drbg import HmacDrbg
from repro.obs import scope as obs_scope
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
        before = [r.key_version for r in system.keystore.get_many(list(project))]
        groups.rekey(
            "genomics",
            FilePolicy.for_users(["pi", "postdoc"]),
            RevocationMode.ACTIVE,
        )
        after = [r.key_version for r in system.keystore.get_many(list(project))]
        assert after == [version + 1 for version in before]

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


class TestGroupUploadCost:
    def test_upload_seals_straight_into_the_group(self, pi, groups):
        """A group upload reads the group record and writes the member's
        group envelope: two keystore round trips, one CP-ABE open (the
        group's) and no CP-ABE seal."""
        groups.create_group("g", FilePolicy.for_users(["pi", "postdoc"]))

        def headers(op: str) -> float:
            return pi.metrics.value("client_abe_headers_total", op=op)

        seals, opens = headers("seal"), headers("open")
        with obs_scope.attribution() as scope:
            groups.upload("g", "f", unique_data(30_000, seed=610))
        assert scope.get_int("keystore_round_trips") == 2
        assert headers("seal") - seals == 0
        assert headers("open") - opens == 1


class TestMembersChangeOnlyThroughTheirGroup:
    """A per-file rekey of a group member is refused, naming the group,
    before anything is written."""

    @pytest.fixture()
    def system(self):
        return build_system(num_data_servers=2, rng=HmacDrbg(b"group-member"))

    @pytest.fixture()
    def alice(self, system):
        return system.new_client("alice")

    def _stored(self, system, file_id: str) -> bytes:
        [record] = system.keystore.get_many([file_id])
        return record.encode()

    def test_revoke_users_on_a_member_cannot_lock_everyone_out(
        self, system, alice
    ):
        groups = GroupManager(alice)
        groups.create_group("G", FilePolicy.for_users(["alice", "bob"]))
        data = unique_data(20_000, seed=620)
        groups.upload("G", "f", data)
        before = self._stored(system, "f")
        for mode in RevocationMode:
            with pytest.raises(ConfigurationError, match="'G'"):
                alice.revoke_users("f", {"bob"}, mode)
        assert self._stored(system, "f") == before
        bob = system.new_client("bob", owner=False)
        assert alice.download("f").data == data
        assert bob.download("f").data == data
        # The group still rekeys, and that is how bob loses access.
        groups.revoke_users("G", {"bob"}, RevocationMode.ACTIVE)
        assert alice.download("f").data == data
        with pytest.raises(AccessDeniedError):
            bob.download("f")

    def test_rekey_many_on_a_member_cannot_widen_access_later(
        self, system, alice
    ):
        groups = GroupManager(alice)
        groups.create_group("G", FilePolicy.for_users(["alice", "bob", "carol"]))
        data = unique_data(20_000, seed=621)
        groups.upload("G", "h", data)
        before = self._stored(system, "h")
        with pytest.raises(ConfigurationError, match="'G'"):
            alice.rekey_many(
                ["h"], FilePolicy.for_users(["alice"]), RevocationMode.ACTIVE
            )
        with pytest.raises(ConfigurationError, match="'G'"):
            alice.rekey("h", FilePolicy.for_users(["alice"]))
        assert self._stored(system, "h") == before
        groups.revoke_users("G", {"carol"})
        bob = system.new_client("bob", owner=False)
        carol = system.new_client("carol", owner=False)
        assert bob.download("h").data == data
        with pytest.raises(AccessDeniedError):
            carol.download("h")

    def test_adopting_a_member_of_another_group_writes_nothing(
        self, system, alice
    ):
        groups = GroupManager(alice)
        groups.create_group("G", FilePolicy.for_users(["alice"]))
        groups.create_group("H", FilePolicy.for_users(["alice", "bob"]))
        groups.upload("G", "f", unique_data(10_000, seed=622))
        before = self._stored(system, "f")
        with pytest.raises(ConfigurationError, match="'G'"):
            groups.adopt("H", "f")
        assert self._stored(system, "f") == before
        assert groups.members("H") == []


class TestListedFilesThatLeftTheGroup:
    """A group rekey drops from the manifest every listed file whose
    key state is no longer one of the group's envelopes, and rekeys only
    the rest."""

    @pytest.fixture()
    def system(self):
        return build_system(num_data_servers=2, rng=HmacDrbg(b"group-left"))

    @pytest.fixture()
    def alice(self, system):
        return system.new_client("alice")

    @pytest.fixture()
    def groups(self, alice):
        groups = GroupManager(alice)
        groups.create_group("G", FilePolicy.for_users(["alice", "bob"]))
        return groups

    @pytest.fixture()
    def members(self, groups):
        payloads = {
            file_id: unique_data(20_000, seed=630 + index)
            for index, file_id in enumerate(("f", "h"))
        }
        for file_id, data in payloads.items():
            groups.upload("G", file_id, data)
        return payloads

    def test_reuploaded_file_is_not_pulled_back_into_the_group(
        self, system, alice, groups, members
    ):
        private = b"private" * 1000
        alice.upload("f", private)  # owner-only now
        result = groups.rekey(
            "G", FilePolicy.for_users(["alice", "bob"]), RevocationMode.LAZY
        )
        assert result.files_rewrapped == 1
        assert groups.members("G") == ["h"]
        bob = system.new_client("bob", owner=False)
        with pytest.raises(AccessDeniedError):
            bob.download("f")
        assert alice.download("f").data == private
        assert bob.download("h").data == members["h"]

    @pytest.mark.parametrize("mode", list(RevocationMode))
    def test_deleted_member_does_not_block_revocation(
        self, system, alice, groups, members, mode
    ):
        alice.delete("h")
        result = groups.revoke_users("G", {"bob"}, mode)
        assert result.files_rewrapped == 1
        assert groups.members("G") == ["f"]
        bob = system.new_client("bob", owner=False)
        with pytest.raises(AccessDeniedError):
            bob.download("f")
        assert alice.download("f").data == members["f"]

    def test_members_leaves_out_files_that_left_before_a_rekey(
        self, alice, groups, members
    ):
        assert groups.members("G") == ["f", "h"]
        alice.delete("h")
        alice.upload("f", b"private" * 1000)  # owner-only now
        assert groups.members("G") == []

    def test_member_moved_into_another_group_is_dropped(
        self, system, alice, groups, members
    ):
        groups.create_group("H", FilePolicy.for_users(["alice", "carol"]))
        moved = unique_data(20_000, seed=640)
        groups.upload("H", "f", moved)
        groups.revoke_users("G", {"bob"})
        assert groups.members("G") == ["h"]
        assert groups.members("H") == ["f"]
        carol = system.new_client("carol", owner=False)
        assert carol.download("f").data == moved
        with pytest.raises(AccessDeniedError):
            system.new_client("bob", owner=False).download("f")

    @pytest.mark.parametrize(
        ("mode", "store_round_trips"),
        [(RevocationMode.LAZY, 2), (RevocationMode.ACTIVE, 6)],
    )
    def test_one_window_group_rekey_round_trips(
        self, groups, members, mode, store_round_trips
    ):
        """The member records are read once, and the run's fetch stage
        skips its own read: a group that fits one window makes four
        keystore round trips (group record read and write, member
        records read and write)."""
        result = groups.revoke_users("G", {"bob"}, mode)
        assert result.files_rewrapped == 2
        assert result.batches == 1
        assert result.keystore_round_trips == 4
        assert result.store_round_trips == store_round_trips
