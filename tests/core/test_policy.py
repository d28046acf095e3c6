"""Tests for file policies."""

import pytest

from repro.core.policy import FilePolicy
from repro.util.errors import ConfigurationError


class TestForUsers:
    def test_allows_each_user(self):
        policy = FilePolicy.for_users(["alice", "bob", "carol"])
        for user in ("alice", "bob", "carol"):
            assert policy.allows({user})
        assert not policy.allows({"mallory"})

    def test_single_user(self):
        policy = FilePolicy.for_users(["alice"])
        assert policy.allows({"alice"})
        assert policy.authorized_users == ["alice"]

    def test_canonical_ordering(self):
        a = FilePolicy.for_users(["bob", "alice"])
        b = FilePolicy.for_users(["alice", "bob"])
        assert a.text == b.text

    def test_text_parses_back(self):
        policy = FilePolicy.for_users(["alice", "bob"])
        assert FilePolicy.parse(policy.text).tree == policy.tree


class TestRevocation:
    def test_without_users(self):
        policy = FilePolicy.for_users(["alice", "bob", "carol"])
        revoked = policy.without_users({"bob"})
        assert revoked.authorized_users == ["alice", "carol"]
        assert not revoked.allows({"bob"})

    def test_revoking_unknown_user_is_noop(self):
        policy = FilePolicy.for_users(["alice", "bob"])
        assert policy.without_users({"zed"}).authorized_users == ["alice", "bob"]

    def test_cannot_revoke_everyone(self):
        policy = FilePolicy.for_users(["alice"])
        with pytest.raises(ConfigurationError):
            policy.without_users({"alice"})

    def test_single_leaf(self):
        policy = FilePolicy.parse("alice")
        assert policy.without_users({"bob"}).authorized_users == ["alice"]

    @pytest.mark.parametrize(
        "text",
        [
            "(alice or bob) and dept:eng",
            "(alice and bob)",
            "(alice or (bob and dept:eng))",
        ],
    )
    def test_refuses_to_widen_a_non_or_policy(self, text):
        """Rebuilding such a tree as an OR of its attributes would let
        alice alone, or anyone holding ``dept:eng``, read."""
        with pytest.raises(ConfigurationError):
            FilePolicy.parse(text).without_users({"bob"})


class TestParse:
    def test_rich_policy(self):
        policy = FilePolicy.parse("(alice or bob) and dept:genomics")
        assert policy.allows({"alice", "dept:genomics"})
        assert not policy.allows({"alice"})
