"""Key-state envelopes: how an encrypted key state is sealed.

Two envelope kinds live in the key store:

* **ABE envelopes** — the key state is CP-ABE-encrypted directly under
  the file's policy (the paper's per-file design, Section IV-C), as one
  item of an encapsulation that every record of one rekey run shares.
* **Group envelopes** — the key state is symmetrically encrypted under a
  *group key* derived from a group-level key state, which is itself
  ABE-protected.  This is the indirection that makes group rekeying
  (Section IV-D, "generalize rekeying for a group of files") cost one
  ABE operation per group instead of one per file — see
  :mod:`repro.core.groups`.

Envelopes are tagged so the client can open either transparently.
Tag 1 was the ABE envelope before items: its ciphertext has no item
index, so it is refused by name rather than misread.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abe.cpabe import AbeCiphertext
from repro.crypto.cipher import SymmetricCipher, get_cipher
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.hashing import hmac_sha256, kdf
from repro.util.bytesutil import ct_equal
from repro.util.codec import Decoder, Encoder
from repro.util.errors import CorruptionError, IntegrityError

TAG_ABE = 3
TAG_GROUP = 2
#: The retired per-file ABE envelope (no item index).
_TAG_ABE_V1 = 1

_NONCE = 16
_MAC = 32


@dataclass(frozen=True)
class GroupEnvelope:
    """A key state sealed under a group key of a specific version."""

    group_id: str
    group_version: int
    nonce: bytes
    body: bytes
    mac: bytes


def seal_abe(ciphertext: AbeCiphertext) -> bytes:
    """Wrap an ABE ciphertext as a tagged envelope."""
    return Encoder().uint(TAG_ABE).blob(ciphertext.encode()).done()


def seal_group(
    group_id: str,
    group_version: int,
    group_key: bytes,
    key_state_bytes: bytes,
    cipher: SymmetricCipher | None = None,
    rng: RandomSource | None = None,
) -> bytes:
    """Seal a file's key state under a group key."""
    cipher = cipher or get_cipher()
    rng = rng or SYSTEM_RANDOM
    nonce = rng.random_bytes(_NONCE)
    body = cipher.encrypt(
        kdf(group_key, "group-envelope-enc"),
        nonce[: cipher.nonce_size],
        key_state_bytes,
    )
    header = Encoder().text(group_id).uint(group_version).done()
    mac = hmac_sha256(kdf(group_key, "group-envelope-mac"), header + nonce + body)
    return (
        Encoder()
        .uint(TAG_GROUP)
        .text(group_id)
        .uint(group_version)
        .blob(nonce)
        .blob(body)
        .blob(mac)
        .done()
    )


def open_group(
    envelope: GroupEnvelope,
    group_key: bytes,
    cipher: SymmetricCipher | None = None,
) -> bytes:
    """Decrypt a group envelope; raises on tampering or a wrong key."""
    cipher = cipher or get_cipher()
    header = Encoder().text(envelope.group_id).uint(envelope.group_version).done()
    expected = hmac_sha256(
        kdf(group_key, "group-envelope-mac"), header + envelope.nonce + envelope.body
    )
    if not ct_equal(expected, envelope.mac):
        raise IntegrityError("group envelope failed authentication")
    return cipher.decrypt(
        kdf(group_key, "group-envelope-enc"),
        envelope.nonce[: cipher.nonce_size],
        envelope.body,
    )


def decode_envelope(data: bytes) -> tuple[int, AbeCiphertext | GroupEnvelope]:
    """Parse a tagged envelope into (tag, payload)."""
    dec = Decoder(data)
    tag = dec.uint()
    if tag == TAG_ABE:
        ciphertext = AbeCiphertext.decode(dec.blob())
        dec.expect_end()
        return TAG_ABE, ciphertext
    if tag == TAG_GROUP:
        envelope = GroupEnvelope(
            group_id=dec.text(),
            group_version=dec.uint(),
            nonce=dec.blob(),
            body=dec.blob(),
            mac=dec.blob(),
        )
        dec.expect_end()
        return TAG_GROUP, envelope
    if tag == _TAG_ABE_V1:
        raise CorruptionError(
            f"unsupported ABE envelope tag {tag} (sealed before item indexes)"
        )
    raise CorruptionError(f"unknown key-state envelope tag {tag}")
