"""RSA key regression (Fu, Kamara, Kohno — NDSS 2006).

Key regression gives REED lazy revocation (Section IV-C): a serial
sequence of *key states* where

* the **owner**, holding the private *derivation key*, can *wind* the
  state forward (``stm_{i+1} = stm_i^d mod N``), and
* any **member**, holding only the public derivation key, can *unwind*
  backward (``stm_{i-1} = stm_i^e mod N``) but can never move forward —
  computing forward would require inverting RSA.

A user given the current state can therefore derive every previous state
(and so the file keys of not-yet-re-encrypted data), while a user revoked
before state ``i+1`` can derive nothing from state ``i`` onward.  REED's
per-file key is the hash of the current key state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.hashing import sha256
from repro.crypto.rsa import (
    DEFAULT_KEY_BITS,
    RSAPrivateKey,
    RSAPublicKey,
    generate_keypair,
)
from repro.util.codec import Decoder, Encoder
from repro.util.errors import ConfigurationError

#: Derived symmetric key size (file keys are SHA-256 outputs).
DERIVED_KEY_SIZE = 32


@dataclass(frozen=True)
class KeyState:
    """One state in the regression chain: a version number and an RSA value."""

    version: int
    value: int

    def encode(self) -> bytes:
        return Encoder().uint(self.version).bigint(self.value).done()

    @classmethod
    def decode(cls, data: bytes) -> "KeyState":
        dec = Decoder(data)
        state = cls(version=dec.uint(), value=dec.bigint())
        dec.expect_end()
        return state

    def derive_key(self) -> bytes:
        """The symmetric key for this state: ``H(version || value)``.

        Binding the version in prevents two numerically equal states of
        different versions (probability ~0, but free to exclude) from
        colliding into one file key.
        """
        return sha256(self.encode())


class KeyRegressionOwner:
    """The file owner's side: can wind states forward.

    The owner's keypair is the user's *derivation key pair* (Section
    IV-C): the private half winds, the public half is shared so members
    can unwind.
    """

    def __init__(
        self,
        private_key: RSAPrivateKey | None = None,
        key_bits: int = DEFAULT_KEY_BITS,
        rng: RandomSource | None = None,
    ) -> None:
        self._rng = rng or SYSTEM_RANDOM
        self._private_key = private_key or generate_keypair(key_bits, rng=self._rng)

    @property
    def public_key(self) -> RSAPublicKey:
        return self._private_key.public

    def member(self) -> "KeyRegressionMember":
        return KeyRegressionMember(self.public_key)

    def initial_state(self) -> KeyState:
        """Draw a fresh version-0 state uniformly from the RSA domain."""
        value = 1 + self._rng.randint_below(self._private_key.n - 1)
        return KeyState(version=0, value=value)

    def wind(self, state: KeyState) -> KeyState:
        """Advance one version (a private RSA operation)."""
        return KeyState(
            version=state.version + 1, value=self._private_key.apply(state.value)
        )

    def wind_to(self, state: KeyState, version: int) -> KeyState:
        if version < state.version:
            raise ConfigurationError("cannot wind backward; use a member unwind")
        while state.version < version:
            state = self.wind(state)
        return state


class KeyRegressionMember:
    """A member's side: can only unwind states backward."""

    def __init__(self, public_key: RSAPublicKey) -> None:
        self._public_key = public_key

    @property
    def public_key(self) -> RSAPublicKey:
        return self._public_key

    def unwind(self, state: KeyState) -> KeyState:
        """Step back one version (a public RSA operation)."""
        if state.version == 0:
            raise ConfigurationError("cannot unwind below version 0")
        return KeyState(
            version=state.version - 1, value=self._public_key.apply(state.value)
        )

    def unwind_to(self, state: KeyState, version: int) -> KeyState:
        """Derive the state of an earlier ``version`` from a later one.

        This is how an authorized user reads a file that was last
        (re-)encrypted under an older file key: unwind the current state
        to the version recorded in the file's metadata.
        """
        if version > state.version:
            raise ConfigurationError(
                f"cannot derive future state {version} from version {state.version}"
            )
        while state.version > version:
            state = self.unwind(state)
        return state
