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
* An :class:`AbeSealer` is one *encapsulation* (a KEM/DEM split).  It
  draws a nonce and a random root secret, Shamir-shares the secret down
  the tree (child ``i`` of a gate holds share point ``x = i + 1``) and
  wraps each leaf's share under that leaf's attribute key: the
  *header*.  It then seals any number of *items* under that header.
  Item ``i`` is encrypted under a payload key derived from the root
  secret and ``i``, with an HMAC (keyed from the root secret and ``i``)
  binding the policy, the header nonce, ``i`` and the body, so no
  (key, nonce) pair repeats across items.  :func:`abe_encrypt` is a
  sealer with one item.
* An :class:`AbeOpener` selects a satisfying subset of children at
  every gate, unwraps leaf shares and interpolates gate-by-gate back to
  the root secret, then verifies the item's HMAC — an unsatisfied
  policy (or tampered ciphertext) raises :class:`AccessDeniedError` /
  :class:`IntegrityError`.  It remembers the secret of every header it
  opened, keyed by the header's exact bytes, so items sharing a header
  cost one header open; the policy check and every item's HMAC still
  run per item.  :func:`abe_decrypt` is an opener used once.

Cost shape matches the paper's measurements: encryption work is linear
in the number of leaves (Experiment A.4(a): rekey delay grows with the
user count) per *encapsulation* — once per rekey run, not per file —
and decryption of an OR-of-identifiers policy touches one leaf (the
paper notes CP-ABE decryption time is constant for REED policies).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.abe import access_tree as at
from repro.crypto import shamir
from repro.crypto.cipher import AES256CTR, Aes256CtrCipher
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
from repro.util.lru import LRUCache

#: Encoded share length (4-byte point + 33-byte field value).
_SHARE_BYTES = 4 + shamir.SHARE_VALUE_SIZE

_NONCE_SIZE = 16

#: Headers an :class:`AbeOpener` remembers, least recently used out: a
#: run's old records share a few headers, and a long run over records
#: of many earlier runs must not hold every one of them.
_MEMO_HEADERS = 256


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
    """One item sealed under a policy header.

    The *header* is the policy, one wrapped Shamir share per leaf (in
    pre-order leaf order) and the nonce: every item of one
    :class:`AbeSealer` carries the same header bytes, so any authorized
    user can decrypt without out-of-band context.  ``index`` numbers
    the item within its header.
    """

    policy: at.Node
    wrapped_shares: tuple[bytes, ...]
    nonce: bytes
    index: int
    body: bytes
    mac: bytes
    #: ``policy`` encoded: what the MAC binds and :meth:`encode` writes.
    #: Encoded once — from the tree when not given, kept as read by
    #: :meth:`decode`.
    policy_blob: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        if not self.policy_blob:
            object.__setattr__(self, "policy_blob", at.encode_tree(self.policy))

    @property
    def header(self) -> tuple[bytes, tuple[bytes, ...], bytes]:
        """The header's exact bytes: equal for items of one sealer."""
        return (self.policy_blob, self.wrapped_shares, self.nonce)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.blob(self.policy_blob)
        enc.uint(len(self.wrapped_shares))
        for share in self.wrapped_shares:
            enc.blob(share)
        enc.blob(self.nonce)
        enc.uint(self.index)
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
        index = dec.uint()
        body = dec.blob()
        mac = dec.blob()
        dec.expect_end()
        return cls(
            policy=policy,
            wrapped_shares=shares,
            nonce=nonce,
            index=index,
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
        share = _unwrap_share(key, nonce, index, wrapped[index])
        if share.x != 1:  # every leaf share is wrapped at x = 1
            raise IntegrityError("ABE header holds a tampered share")
        return share.y
    child_shares: list[shamir.Share] = []
    for position, child in enumerate(node.children, start=1):
        value = _recover_up(child, private_key, wrapped, nonce, leaf_cursor)
        if value is not None:
            child_shares.append(shamir.Share(x=position, y=value))
    if len(child_shares) < node.threshold:
        return None
    return shamir.recover_secret(child_shares[: node.threshold])


def _item_keys(secret: bytes, index: int) -> tuple[bytes, bytes]:
    """Item ``index``'s payload and MAC keys under a header's secret."""
    return (
        kdf(secret, f"abe-payload-key|{index}"),
        kdf(secret, f"abe-mac-key|{index}"),
    )


def _item_mac(
    mac_key: bytes, policy_blob: bytes, nonce: bytes, index: int, body: bytes
) -> bytes:
    return hmac_sha256(
        mac_key,
        Encoder().blob(policy_blob).blob(nonce).uint(index).blob(body).done(),
    )


class AbeSealer:
    """One encapsulation under ``policy``: items sealed under one header.

    The constructor does the work linear in the policy's leaves — it
    draws the nonce and the root secret, shares the secret down the
    tree and wraps every leaf share.  :meth:`seal` then costs two KDFs,
    a cipher pass and an HMAC per item, and numbers items 0, 1, 2, ...
    """

    def __init__(
        self,
        wrap_keys: dict[str, bytes],
        policy: at.Node,
        cipher: Aes256CtrCipher = AES256CTR,
        rng: RandomSource | None = None,
    ) -> None:
        rng = rng or SYSTEM_RANDOM
        self._policy = policy
        self._cipher = cipher
        self._nonce = rng.random_bytes(_NONCE_SIZE)
        root_secret = rng.randint_below(2**256)  # fits in a 32-byte share
        wrapped: list[bytes] = []
        _share_down(policy, root_secret, wrap_keys, self._nonce, rng, wrapped)
        self._wrapped = tuple(wrapped)
        self._secret = shamir.secret_to_bytes(root_secret)
        self._policy_blob = at.encode_tree(policy)
        self._items = 0

    def seal(self, plaintext: bytes) -> AbeCiphertext:
        """Seal ``plaintext`` as the header's next item."""
        index = self._items
        self._items += 1
        payload_key, mac_key = _item_keys(self._secret, index)
        body = self._cipher.encrypt(payload_key, self._nonce, plaintext)
        return AbeCiphertext(
            policy=self._policy,
            wrapped_shares=self._wrapped,
            nonce=self._nonce,
            index=index,
            body=body,
            mac=_item_mac(mac_key, self._policy_blob, self._nonce, index, body),
            policy_blob=self._policy_blob,
        )


class AbeOpener:
    """Opens items with one user's private access key, each header once.

    The memo maps a header's exact bytes to the secret they open to
    (the last :data:`_MEMO_HEADERS` headers), so scope an opener to one
    batch of work (a rekey run) and let the memo die with it.
    ``on_header`` is called once per header actually opened.  The policy
    check and the item's HMAC run on every open.
    """

    def __init__(
        self,
        private_key: PrivateAccessKey,
        cipher: Aes256CtrCipher = AES256CTR,
        on_header: Callable[[], None] | None = None,
    ) -> None:
        self._key = private_key
        self._cipher = cipher
        self._on_header = on_header
        self._secrets: LRUCache[tuple, bytes] = LRUCache(_MEMO_HEADERS)

    def _open_header(self, ciphertext: AbeCiphertext) -> bytes:
        if self._on_header is not None:
            self._on_header()
        secret = _recover_up(
            ciphertext.policy,
            self._key,
            ciphertext.wrapped_shares,
            ciphertext.nonce,
            leaf_cursor=[0],
        )
        if secret is None:
            raise AccessDeniedError(
                f"user {self._key.user_id!r} could not reconstruct the policy secret"
            )
        if secret >= 2**256:  # only tampered shares land outside 32 bytes
            raise IntegrityError("ABE header shares are inconsistent")
        return shamir.secret_to_bytes(secret)

    def open(self, ciphertext: AbeCiphertext) -> bytes:
        """Decrypt one item.

        Raises :class:`AccessDeniedError` if the user's attributes do
        not satisfy the policy, and :class:`IntegrityError` if the item
        fails its MAC (tampering, or inconsistent shares).
        """
        if not at.satisfies(ciphertext.policy, self._key.attributes):
            raise AccessDeniedError(
                f"user {self._key.user_id!r} does not satisfy the policy "
                f"{at.format_policy(ciphertext.policy)}"
            )
        header = ciphertext.header
        secret = self._secrets.get(header)
        if secret is None:
            secret = self._open_header(ciphertext)
            self._secrets.put(header, secret)
        payload_key, mac_key = _item_keys(secret, ciphertext.index)
        expected = _item_mac(
            mac_key,
            ciphertext.policy_blob,
            ciphertext.nonce,
            ciphertext.index,
            ciphertext.body,
        )
        if not ct_equal(expected, ciphertext.mac):
            raise IntegrityError("ABE ciphertext failed its integrity check")
        return self._cipher.decrypt(payload_key, ciphertext.nonce, ciphertext.body)


def abe_encrypt(
    wrap_keys: dict[str, bytes],
    policy: at.Node,
    plaintext: bytes,
    cipher: Aes256CtrCipher = AES256CTR,
    rng: RandomSource | None = None,
) -> AbeCiphertext:
    """Encrypt ``plaintext`` so only attribute sets satisfying ``policy``
    can decrypt: a sealer with one item."""
    return AbeSealer(wrap_keys, policy, cipher, rng).seal(plaintext)


def abe_decrypt(
    private_key: PrivateAccessKey,
    ciphertext: AbeCiphertext,
    cipher: Aes256CtrCipher = AES256CTR,
) -> bytes:
    """Decrypt a policy ciphertext with a user's private access key: an
    opener used once (see :meth:`AbeOpener.open` for the errors)."""
    return AbeOpener(private_key, cipher).open(ciphertext)
