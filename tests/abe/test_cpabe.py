"""Tests for the CP-ABE-style policy encryption."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.abe import access_tree as at
from repro.abe.cpabe import (
    AbeCiphertext,
    AbeOpener,
    AbeSealer,
    AttributeAuthority,
    _item_keys,
    abe_decrypt,
    abe_encrypt,
)
from repro.crypto.drbg import HmacDrbg
from repro.util.errors import (
    AccessDeniedError,
    ConfigurationError,
    CorruptionError,
    IntegrityError,
)


@pytest.fixture()
def authority():
    return AttributeAuthority(master_secret=b"\x11" * 32)


def encrypt(authority, policy_text, plaintext, seed=b"abe"):
    tree = at.parse_policy(policy_text)
    return abe_encrypt(
        authority.wrap_keys_for(tree), tree, plaintext, rng=HmacDrbg(seed)
    )


class TestAuthority:
    def test_attribute_keys_deterministic(self, authority):
        assert authority.attribute_key("a") == authority.attribute_key("a")
        assert authority.attribute_key("a") != authority.attribute_key("b")

    def test_different_masters_different_keys(self):
        a = AttributeAuthority(master_secret=b"\x01" * 32)
        b = AttributeAuthority(master_secret=b"\x02" * 32)
        assert a.attribute_key("x") != b.attribute_key("x")

    def test_issue_default_identifier_attribute(self, authority):
        key = authority.issue_private_key("alice")
        assert key.attributes == {"alice"}

    def test_issue_custom_attributes(self, authority):
        key = authority.issue_private_key("alice", {"alice", "dept:g"})
        assert key.attributes == {"alice", "dept:g"}

    def test_bad_master_size(self):
        with pytest.raises(ConfigurationError):
            AttributeAuthority(master_secret=b"short")


class TestEncryptDecrypt:
    def test_or_policy(self, authority):
        ct = encrypt(authority, "alice or bob", b"key state")
        assert abe_decrypt(authority.issue_private_key("alice"), ct) == b"key state"
        assert abe_decrypt(authority.issue_private_key("bob"), ct) == b"key state"

    def test_unauthorized_denied(self, authority):
        ct = encrypt(authority, "alice or bob", b"secret")
        with pytest.raises(AccessDeniedError):
            abe_decrypt(authority.issue_private_key("carol"), ct)

    def test_and_policy(self, authority):
        ct = encrypt(authority, "alice and dept:g", b"secret")
        full = authority.issue_private_key("alice", {"alice", "dept:g"})
        partial = authority.issue_private_key("alice", {"alice"})
        assert abe_decrypt(full, ct) == b"secret"
        with pytest.raises(AccessDeniedError):
            abe_decrypt(partial, ct)

    def test_threshold_policy(self, authority):
        ct = encrypt(authority, "2 of (a, b, c)", b"secret")
        two = authority.issue_private_key("u", {"a", "c"})
        one = authority.issue_private_key("u", {"b"})
        assert abe_decrypt(two, ct) == b"secret"
        with pytest.raises(AccessDeniedError):
            abe_decrypt(one, ct)

    def test_nested_policy(self, authority):
        ct = encrypt(authority, "(alice or bob) and (x and y)", b"s")
        ok = authority.issue_private_key("bob", {"bob", "x", "y"})
        assert abe_decrypt(ok, ct) == b"s"

    def test_extra_attributes_harmless(self, authority):
        ct = encrypt(authority, "alice", b"s")
        key = authority.issue_private_key("alice", {"alice", "z", "w"})
        assert abe_decrypt(key, ct) == b"s"

    @given(st.binary(max_size=512))
    def test_arbitrary_plaintexts(self, plaintext):
        authority = AttributeAuthority(master_secret=b"\x11" * 32)
        ct = encrypt(authority, "alice", plaintext)
        assert abe_decrypt(authority.issue_private_key("alice"), ct) == plaintext

    def test_randomized_ciphertexts(self, authority):
        a = encrypt(authority, "alice", b"same", seed=b"one")
        b = encrypt(authority, "alice", b"same", seed=b"two")
        assert a.body != b.body

    def test_500_user_or_policy(self, authority):
        users = [f"user{i}" for i in range(500)]
        tree = at.or_of_identifiers(users)
        ct = abe_encrypt(
            authority.wrap_keys_for(tree), tree, b"s", rng=HmacDrbg(b"big")
        )
        assert len(ct.wrapped_shares) == 500
        assert abe_decrypt(authority.issue_private_key("user123"), ct) == b"s"


class TestWireFormat:
    def test_ciphertext_roundtrip(self, authority):
        ct = encrypt(authority, "(alice or bob) and c", b"payload")
        decoded = AbeCiphertext.decode(ct.encode())
        key = authority.issue_private_key("alice", {"alice", "c"})
        assert abe_decrypt(key, decoded) == b"payload"

    def test_share_count_mismatch_rejected(self, authority):
        ct = encrypt(authority, "alice or bob", b"p")
        broken = AbeCiphertext(
            policy=ct.policy,
            wrapped_shares=ct.wrapped_shares[:1],
            nonce=ct.nonce,
            index=ct.index,
            body=ct.body,
            mac=ct.mac,
        )
        with pytest.raises(CorruptionError):
            AbeCiphertext.decode(broken.encode())


class TestTampering:
    def test_tampered_body_detected(self, authority):
        ct = encrypt(authority, "alice", b"payload")
        bad = AbeCiphertext(
            policy=ct.policy,
            wrapped_shares=ct.wrapped_shares,
            nonce=ct.nonce,
            index=ct.index,
            body=ct.body[:-1] + bytes([ct.body[-1] ^ 1]),
            mac=ct.mac,
        )
        with pytest.raises(IntegrityError):
            abe_decrypt(authority.issue_private_key("alice"), bad)

    def test_tampered_share_detected(self, authority):
        ct = encrypt(authority, "alice", b"payload")
        share = bytearray(ct.wrapped_shares[0])
        share[5] ^= 0x01
        bad = AbeCiphertext(
            policy=ct.policy,
            wrapped_shares=(bytes(share),),
            nonce=ct.nonce,
            index=ct.index,
            body=ct.body,
            mac=ct.mac,
        )
        with pytest.raises(IntegrityError):
            abe_decrypt(authority.issue_private_key("alice"), bad)

    def test_swapped_policy_detected(self, authority):
        """Re-binding a ciphertext to a looser policy must fail the MAC."""
        ct = encrypt(authority, "alice", b"payload")
        other = encrypt(authority, "mallory", b"payload", seed=b"m")
        frankenstein = AbeCiphertext(
            policy=other.policy,
            wrapped_shares=other.wrapped_shares,
            nonce=other.nonce,
            index=ct.index,
            body=ct.body,
            mac=ct.mac,
        )
        with pytest.raises((IntegrityError, AccessDeniedError)):
            abe_decrypt(authority.issue_private_key("mallory"), frankenstein)

    def test_missing_wrap_key_rejected(self, authority):
        tree = at.parse_policy("alice or bob")
        with pytest.raises(ConfigurationError):
            abe_encrypt({"alice": b"\x01" * 32}, tree, b"p", rng=HmacDrbg(b"x"))


def sealer(authority, policy_text, seed=b"run"):
    tree = at.parse_policy(policy_text)
    return AbeSealer(authority.wrap_keys_for(tree), tree, rng=HmacDrbg(seed))


def flip(data: bytes, position: int) -> bytes:
    return data[:position] + bytes([data[position] ^ 0x01]) + data[position + 1 :]


class CountingOpener:
    """An :class:`AbeOpener` that counts the headers it really opens."""

    def __init__(self, private_key):
        self.headers = 0
        self.opener = AbeOpener(private_key, on_header=self._count)

    def _count(self):
        self.headers += 1

    def open(self, ciphertext):
        return self.opener.open(ciphertext)


class TestSharedHeader:
    """Many items under one encapsulation (one rekey run's records)."""

    def test_items_share_the_header_and_number_themselves(self, authority):
        run = sealer(authority, "alice or bob or carol")
        items = [run.seal(f"state {i}".encode()) for i in range(4)]
        assert [item.index for item in items] == [0, 1, 2, 3]
        assert len({item.header for item in items}) == 1
        bob = authority.issue_private_key("bob")
        for i, item in enumerate(items):
            decoded = AbeCiphertext.decode(item.encode())
            assert abe_decrypt(bob, decoded) == f"state {i}".encode()

    def test_items_derive_pairwise_distinct_keys(self, authority):
        run = sealer(authority, "alice or bob")
        keys = [key for i in range(16) for key in _item_keys(run._secret, i)]
        assert len(set(keys)) == len(keys)
        # Same plaintext, same header nonce: distinct keys show as
        # distinct bodies and MACs.
        items = [run.seal(b"same plaintext") for _ in range(16)]
        assert len({item.body for item in items}) == 16
        assert len({item.mac for item in items}) == 16

    def test_item_under_another_index_fails(self, authority):
        run = sealer(authority, "alice or bob")
        items = [run.seal(b"state %d" % i) for i in range(3)]
        alice = authority.issue_private_key("alice")
        for i, item in enumerate(items):
            for j in range(3):
                if i == j:
                    continue
                moved = dataclasses.replace(item, index=j)
                with pytest.raises(IntegrityError):
                    abe_decrypt(alice, moved)

    @pytest.mark.parametrize("policy_text", ["alice", "alice or bob"])
    def test_flipped_reader_share_fails(self, authority, policy_text):
        item = sealer(authority, policy_text).seal(b"state")
        alice = authority.issue_private_key("alice")
        share = item.wrapped_shares[0]  # alice's leaf
        for position in range(len(share)):
            shares = (flip(share, position),) + item.wrapped_shares[1:]
            bad = dataclasses.replace(item, wrapped_shares=shares)
            with pytest.raises(IntegrityError):
                abe_decrypt(alice, bad)

    @pytest.mark.parametrize("policy_text", ["alice", "alice or bob"])
    def test_flipped_header_nonce_fails(self, authority, policy_text):
        item = sealer(authority, policy_text).seal(b"state")
        alice = authority.issue_private_key("alice")
        for position in range(len(item.nonce)):
            bad = dataclasses.replace(item, nonce=flip(item.nonce, position))
            with pytest.raises(IntegrityError):
                abe_decrypt(alice, bad)

    def test_memo_opens_each_header_once(self, authority):
        first = sealer(authority, "alice or bob", seed=b"r1")
        second = sealer(authority, "alice or bob", seed=b"r2")
        items = [first.seal(b"a"), second.seal(b"b"), first.seal(b"c")]
        opener = CountingOpener(authority.issue_private_key("alice"))
        assert [opener.open(item) for item in items * 2] == [b"a", b"b", b"c"] * 2
        assert opener.headers == 2

    def test_memo_hit_still_checks_every_mac(self, authority):
        run = sealer(authority, "alice or bob")
        items = [run.seal(b"state 0"), run.seal(b"state 1")]
        opener = CountingOpener(authority.issue_private_key("alice"))
        assert opener.open(items[0]) == b"state 0"
        forged = dataclasses.replace(items[1], body=flip(items[1].body, 0))
        with pytest.raises(IntegrityError):
            opener.open(forged)
        spliced = dataclasses.replace(items[1], body=items[0].body)
        with pytest.raises(IntegrityError):
            opener.open(spliced)
        assert opener.headers == 1
        assert opener.open(items[1]) == b"state 1"

    def test_memo_hit_still_checks_the_policy(self, authority):
        item = sealer(authority, "alice or bob").seal(b"state")
        opener = AbeOpener(authority.issue_private_key("alice"))
        assert opener.open(item) == b"state"
        # Same header bytes, but a tree alice no longer satisfies.
        narrowed = dataclasses.replace(item, policy=at.parse_policy("bob"))
        with pytest.raises(AccessDeniedError):
            opener.open(narrowed)

    def test_header_differing_in_any_byte_misses_the_memo(self, authority):
        item = sealer(authority, "alice or bob or carol").seal(b"state")
        opener = CountingOpener(authority.issue_private_key("alice"))
        assert opener.open(item) == b"state"
        variants = [
            dataclasses.replace(item, policy_blob=flip(item.policy_blob, p))
            for p in range(len(item.policy_blob))
        ]
        variants += [
            dataclasses.replace(item, nonce=flip(item.nonce, p))
            for p in range(len(item.nonce))
        ]
        for leaf, share in enumerate(item.wrapped_shares):
            for p in range(len(share)):
                shares = list(item.wrapped_shares)
                shares[leaf] = flip(share, p)
                variants.append(
                    dataclasses.replace(item, wrapped_shares=tuple(shares))
                )
        for count, variant in enumerate(variants, start=2):
            try:
                opener.open(variant)
            except IntegrityError:
                pass  # every variant alice's share or the MAC depends on
            assert opener.headers == count
        # The untouched header is still a hit.
        assert opener.open(item) == b"state"
        assert opener.headers == len(variants) + 1

    def test_user_dropped_by_next_run_denied_on_every_record(self, authority):
        run_r = sealer(authority, "alice or bob or carol", seed=b"r")
        run_next = sealer(authority, "alice or carol", seed=b"r+1")
        states = [b"state %d" % i for i in range(8)]
        old = [run_r.seal(state) for state in states]
        new = [run_next.seal(state) for state in states]
        bob = CountingOpener(authority.issue_private_key("bob"))
        assert [bob.open(item) for item in old] == states
        for item in new:
            with pytest.raises(AccessDeniedError):
                bob.open(item)
        assert bob.headers == 1
        carol = authority.issue_private_key("carol")
        assert [abe_decrypt(carol, item) for item in new] == states
