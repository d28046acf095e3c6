"""Tests for RSA key regression (lazy-revocation key derivation)."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.keyreg.rsa_keyreg import KeyRegressionOwner, KeyState
from repro.util.errors import ConfigurationError


@pytest.fixture()
def owner(rsa_512):
    return KeyRegressionOwner(private_key=rsa_512, rng=HmacDrbg(b"kr"))


class TestWindUnwind:
    def test_unwind_inverts_wind(self, owner):
        s0 = owner.initial_state()
        s1 = owner.wind(s0)
        member = owner.member()
        assert member.unwind(s1) == s0

    def test_three_prime_winds_match_pow_and_unwind(self, rsa_1024):
        assert len(rsa_1024.primes) == 3
        owner = KeyRegressionOwner(private_key=rsa_1024, rng=HmacDrbg(b"three"))
        states = [owner.initial_state()]
        for _ in range(8):
            states.append(owner.wind(states[-1]))
        for before, after in zip(states, states[1:]):
            assert after.value == pow(before.value, rsa_1024.d, rsa_1024.n)
        member = owner.member()
        assert [member.unwind(state) for state in states[1:]] == states[:-1]

    def test_long_chain(self, owner):
        member = owner.member()
        state = owner.initial_state()
        chain = [state]
        for _ in range(10):
            state = owner.wind(state)
            chain.append(state)
        # A member holding the final state can reach every earlier state.
        current = chain[-1]
        for expected in reversed(chain[:-1]):
            current = member.unwind(current)
            assert current == expected

    def test_unwind_to(self, owner):
        member = owner.member()
        s0 = owner.initial_state()
        s5 = owner.wind_to(s0, 5)
        assert member.unwind_to(s5, 2) == owner.wind_to(s0, 2)
        assert member.unwind_to(s5, 5) == s5

    def test_versions_track(self, owner):
        s0 = owner.initial_state()
        assert s0.version == 0
        assert owner.wind(s0).version == 1
        assert owner.wind_to(s0, 7).version == 7

    def test_cannot_unwind_below_zero(self, owner):
        with pytest.raises(ConfigurationError):
            owner.member().unwind(owner.initial_state())

    def test_cannot_derive_future(self, owner):
        member = owner.member()
        s0 = owner.initial_state()
        with pytest.raises(ConfigurationError):
            member.unwind_to(s0, 1)
        with pytest.raises(ConfigurationError):
            owner.wind_to(owner.wind(s0), 0)

    def test_forward_secrecy_direction(self, owner):
        """A member cannot compute the next state: applying the public
        operation goes backward, not forward."""
        member = owner.member()
        s0 = owner.initial_state()
        s1 = owner.wind(s0)
        s2 = owner.wind(s1)
        # The member operation on s1 recovers s0, not s2.
        stepped = member.unwind(s1)
        assert stepped.value == s0.value
        assert stepped.value != s2.value


class TestDerivedKeys:
    def test_key_size(self, owner):
        assert len(owner.initial_state().derive_key()) == 32

    def test_distinct_versions_distinct_keys(self, owner):
        s0 = owner.initial_state()
        s1 = owner.wind(s0)
        assert s0.derive_key() != s1.derive_key()

    def test_key_deterministic(self, owner):
        state = owner.initial_state()
        assert state.derive_key() == state.derive_key()

    def test_distinct_initial_states(self, rsa_512):
        owner = KeyRegressionOwner(private_key=rsa_512, rng=HmacDrbg(b"x"))
        assert owner.initial_state().value != owner.initial_state().value


class TestEncoding:
    def test_state_roundtrip(self, owner):
        state = owner.wind(owner.initial_state())
        assert KeyState.decode(state.encode()) == state

    def test_encoding_binds_version(self, owner):
        state = owner.initial_state()
        relabeled = KeyState(version=3, value=state.value)
        assert state.derive_key() != relabeled.derive_key()
