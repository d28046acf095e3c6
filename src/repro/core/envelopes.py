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
Retired tags are refused by name rather than misread: tag 1 was the ABE
envelope before items (no item index), and tags 2 (group) and 3 (ABE)
were sealed under the SHAKE-256 keystream, which would open under
AES-256-CTR with a valid MAC into garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abe.cpabe import AbeCiphertext
from repro.crypto.cipher import AES256CTR
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.hashing import hmac_sha256, kdf
from repro.util.bytesutil import ct_equal
from repro.util.codec import Decoder, Encoder
from repro.util.errors import CorruptionError, IntegrityError

TAG_ABE = 4
TAG_GROUP = 5
#: Retired tags: what they sealed, and why they no longer open.
_RETIRED_TAGS = {
    1: "ABE envelope tag 1 (sealed before item indexes)",
    2: "group envelope tag 2 (sealed under SHAKE-256)",
    3: "ABE envelope tag 3 (sealed under SHAKE-256)",
}

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
    rng: RandomSource | None = None,
) -> bytes:
    """Seal a file's key state under a group key."""
    rng = rng or SYSTEM_RANDOM
    nonce = rng.random_bytes(_NONCE)
    body = AES256CTR.encrypt(
        kdf(group_key, "group-envelope-enc"), nonce, key_state_bytes
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


def open_group(envelope: GroupEnvelope, group_key: bytes) -> bytes:
    """Decrypt a group envelope; raises on tampering or a wrong key."""
    header = Encoder().text(envelope.group_id).uint(envelope.group_version).done()
    expected = hmac_sha256(
        kdf(group_key, "group-envelope-mac"), header + envelope.nonce + envelope.body
    )
    if not ct_equal(expected, envelope.mac):
        raise IntegrityError("group envelope failed authentication")
    return AES256CTR.decrypt(
        kdf(group_key, "group-envelope-enc"), envelope.nonce, envelope.body
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
    if tag in _RETIRED_TAGS:
        raise CorruptionError(f"unsupported {_RETIRED_TAGS[tag]}")
    raise CorruptionError(f"unknown key-state envelope tag {tag}")
