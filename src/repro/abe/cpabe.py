"""CP-ABE-style policy encryption over access trees.

REED protects each file's *key state* with ciphertext-policy
attribute-based encryption (the paper uses the Bethencourt–Sahai–Waters
scheme via the ``cpabe`` toolkit).  Pairing-based ABE is impractical to
rebuild faithfully here, so this module implements the **access-tree
layer of BSW CP-ABE exactly** — a fresh random secret shared down the
policy tree with Shamir sharing at every threshold gate — and replaces
the pairing layer with symmetric per-attribute keys issued by an
attribute authority (see DESIGN.md §3 for the substitution argument).

Concretely:

* The authority holds a master secret; the key for attribute ``a`` is
  ``HMAC(master, a)``.  Users receive the keys for their attributes
  (their *private access key*); file owners receive *wrap keys* for the
  attributes appearing in a policy they encrypt under.
* ``encrypt`` draws a random root secret, Shamir-shares it down the tree
  (child ``i`` of a gate holds share point ``x = i + 1``), wraps each
  leaf's share under that leaf's attribute key, and encrypts the payload
  under a key derived from the root secret, with an HMAC binding the
  policy, nonce, and body.
* ``decrypt`` selects a satisfying subset of children at every gate,
  unwraps leaf shares, interpolates gate-by-gate back to the root
  secret, and verifies the HMAC — an unsatisfied policy (or tampered
  ciphertext) raises :class:`AccessDeniedError` /
  :class:`IntegrityError`.

Cost shape matches the paper's measurements: encryption work is linear
in the number of leaves (Experiment A.4(a): rekey delay grows with the
user count), decryption of an OR-of-identifiers policy touches one leaf
(the paper notes CP-ABE decryption time is constant for REED policies).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.abe import access_tree as at
from repro.crypto import shamir
from repro.crypto.cipher import SymmetricCipher, get_cipher
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.hashing import hmac_sha256, kdf
from repro.util.bytesutil import ct_equal, xor_bytes
from repro.util.codec import Decoder, Encoder
from repro.util.errors import (
    AccessDeniedError,
    ConfigurationError,
    CorruptionError,
    IntegrityError,
)

#: Encoded share length (4-byte point + 33-byte field value).
_SHARE_BYTES = 4 + shamir.SHARE_VALUE_SIZE

_NONCE_SIZE = 16
_MAC_SIZE = 32


@dataclass(frozen=True)
class PrivateAccessKey:
    """A user's private access key: their attribute set and its keys."""

    user_id: str
    attribute_keys: dict[str, bytes]

    @property
    def attributes(self) -> set[str]:
        return set(self.attribute_keys)


@dataclass(frozen=True)
class AbeCiphertext:
    """A policy-bound ciphertext.

    ``wrapped_shares`` holds one wrapped Shamir share per leaf, in
    pre-order leaf order; the policy tree is stored alongside so any
    authorized user can decrypt without out-of-band context.
    """

    policy: at.Node
    wrapped_shares: tuple[bytes, ...]
    nonce: bytes
    body: bytes
    mac: bytes
    #: ``policy`` encoded: what the MAC binds and :meth:`encode` writes.
    #: Encoded once — from the tree when not given, kept as read by
    #: :meth:`decode`.
    policy_blob: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        if not self.policy_blob:
            object.__setattr__(self, "policy_blob", at.encode_tree(self.policy))

    def encode(self) -> bytes:
        enc = Encoder()
        enc.blob(self.policy_blob)
        enc.uint(len(self.wrapped_shares))
        for share in self.wrapped_shares:
            enc.blob(share)
        enc.blob(self.nonce)
        enc.blob(self.body)
        enc.blob(self.mac)
        return enc.done()

    @classmethod
    def decode(cls, data: bytes) -> "AbeCiphertext":
        dec = Decoder(data)
        policy_blob = dec.blob()
        policy = at.decode_tree(policy_blob)
        count = dec.uint()
        if count != at.leaf_count(policy):
            raise CorruptionError("share count does not match policy leaves")
        shares = tuple(dec.blob() for _ in range(count))
        nonce = dec.blob()
        body = dec.blob()
        mac = dec.blob()
        dec.expect_end()
        return cls(
            policy=policy,
            wrapped_shares=shares,
            nonce=nonce,
            body=body,
            mac=mac,
            policy_blob=policy_blob,
        )


class AttributeAuthority:
    """Issues per-attribute keys from a master secret.

    In the paper's deployment this is the organization's CP-ABE authority
    that provisions each user's private access key (Section IV-C).
    """

    def __init__(self, master_secret: bytes | None = None, rng: RandomSource | None = None) -> None:
        rng = rng or SYSTEM_RANDOM
        self._master = master_secret if master_secret is not None else rng.random_bytes(32)
        if len(self._master) != 32:
            raise ConfigurationError("master secret must be 32 bytes")

    def attribute_key(self, attribute: str) -> bytes:
        return hmac_sha256(self._master, b"attr|" + attribute.encode("utf-8"))

    def issue_private_key(self, user_id: str, attributes: set[str] | None = None) -> PrivateAccessKey:
        """Issue a user's private access key.

        REED treats each user's unique identifier as an attribute
        (Section IV-C), so by default the key carries just that one
        attribute; richer attribute sets are supported for more
        sophisticated trees.
        """
        attrs = attributes if attributes is not None else {user_id}
        return PrivateAccessKey(
            user_id=user_id,
            attribute_keys={a: self.attribute_key(a) for a in attrs},
        )

    def wrap_keys_for(self, policy: at.Node) -> dict[str, bytes]:
        """Wrap keys an encryptor needs for every attribute in a policy."""
        return {a: self.attribute_key(a) for a in at.attributes_of(policy)}


def _wrap_share(
    attribute_key: bytes, nonce: bytes, leaf_index: int, share: shamir.Share
) -> bytes:
    pad = kdf(
        attribute_key,
        f"share-wrap|{nonce.hex()}|{leaf_index}",
        _SHARE_BYTES,
    )
    return xor_bytes(share.encode(), pad)


def _unwrap_share(
    attribute_key: bytes, nonce: bytes, leaf_index: int, wrapped: bytes
) -> shamir.Share:
    if len(wrapped) != _SHARE_BYTES:
        raise CorruptionError("wrapped share has the wrong length")
    pad = kdf(
        attribute_key,
        f"share-wrap|{nonce.hex()}|{leaf_index}",
        _SHARE_BYTES,
    )
    return shamir.Share.decode(xor_bytes(wrapped, pad))


def _share_down(
    node: at.Node,
    secret: int,
    wrap_keys: dict[str, bytes],
    nonce: bytes,
    rng: RandomSource,
    out: list[bytes],
) -> None:
    """Recursively share ``secret`` down the tree, appending leaf wraps."""
    if isinstance(node, at.Leaf):
        key = wrap_keys.get(node.attribute)
        if key is None:
            raise ConfigurationError(
                f"no wrap key for policy attribute {node.attribute!r}"
            )
        out.append(
            _wrap_share(key, nonce, len(out), shamir.Share(x=1, y=secret))
        )
        return
    shares = shamir.split_secret(
        secret, node.threshold, len(node.children), rng=rng
    )
    for child, share in zip(node.children, shares):
        _share_down(child, share.y, wrap_keys, nonce, rng, out)


def _recover_up(
    node: at.Node,
    private_key: PrivateAccessKey,
    wrapped: tuple[bytes, ...],
    nonce: bytes,
    leaf_cursor: list[int],
) -> int | None:
    """Recursively recover this node's secret, or None if unsatisfied.

    ``leaf_cursor`` tracks the pre-order leaf index so each node knows
    which wrapped shares belong to its subtree.
    """
    if isinstance(node, at.Leaf):
        index = leaf_cursor[0]
        leaf_cursor[0] += 1
        key = private_key.attribute_keys.get(node.attribute)
        if key is None:
            return None
        return _unwrap_share(key, nonce, index, wrapped[index]).y
    child_shares: list[shamir.Share] = []
    for position, child in enumerate(node.children, start=1):
        value = _recover_up(child, private_key, wrapped, nonce, leaf_cursor)
        if value is not None:
            child_shares.append(shamir.Share(x=position, y=value))
    if len(child_shares) < node.threshold:
        return None
    return shamir.recover_secret(child_shares[: node.threshold])


def abe_encrypt(
    wrap_keys: dict[str, bytes],
    policy: at.Node,
    plaintext: bytes,
    cipher: SymmetricCipher | None = None,
    rng: RandomSource | None = None,
) -> AbeCiphertext:
    """Encrypt ``plaintext`` so only attribute sets satisfying ``policy``
    can decrypt."""
    cipher = cipher or get_cipher()
    rng = rng or SYSTEM_RANDOM
    nonce = rng.random_bytes(_NONCE_SIZE)
    root_secret = rng.randint_below(2**256)  # fits in a 32-byte share
    wrapped: list[bytes] = []
    _share_down(policy, root_secret, wrap_keys, nonce, rng, wrapped)
    secret_bytes = shamir.secret_to_bytes(root_secret)
    payload_key = kdf(secret_bytes, "abe-payload-key")
    body = cipher.encrypt(payload_key, nonce[: cipher.nonce_size], plaintext)
    mac_key = kdf(secret_bytes, "abe-mac-key")
    policy_blob = at.encode_tree(policy)
    mac = hmac_sha256(mac_key, policy_blob + nonce + body)
    return AbeCiphertext(
        policy=policy,
        wrapped_shares=tuple(wrapped),
        nonce=nonce,
        body=body,
        mac=mac,
        policy_blob=policy_blob,
    )


def abe_decrypt(
    private_key: PrivateAccessKey,
    ciphertext: AbeCiphertext,
    cipher: SymmetricCipher | None = None,
) -> bytes:
    """Decrypt a policy ciphertext with a user's private access key.

    Raises :class:`AccessDeniedError` if the user's attributes do not
    satisfy the policy, and :class:`IntegrityError` if the ciphertext
    fails its MAC (tampering, or inconsistent shares).
    """
    cipher = cipher or get_cipher()
    if not at.satisfies(ciphertext.policy, private_key.attributes):
        raise AccessDeniedError(
            f"user {private_key.user_id!r} does not satisfy the policy "
            f"{at.format_policy(ciphertext.policy)}"
        )
    secret = _recover_up(
        ciphertext.policy,
        private_key,
        ciphertext.wrapped_shares,
        ciphertext.nonce,
        leaf_cursor=[0],
    )
    if secret is None:
        raise AccessDeniedError(
            f"user {private_key.user_id!r} could not reconstruct the policy secret"
        )
    secret_bytes = shamir.secret_to_bytes(secret)
    mac_key = kdf(secret_bytes, "abe-mac-key")
    expected = hmac_sha256(
        mac_key, ciphertext.policy_blob + ciphertext.nonce + ciphertext.body
    )
    if not ct_equal(expected, ciphertext.mac):
        raise IntegrityError("ABE ciphertext failed its integrity check")
    payload_key = kdf(secret_bytes, "abe-payload-key")
    return cipher.decrypt(
        payload_key, ciphertext.nonce[: cipher.nonce_size], ciphertext.body
    )
