"""Golden vectors: the on-disk formats are frozen.

A storage system's encodings are a compatibility contract — data written
today must decrypt tomorrow.  These tests pin exact outputs of every
deterministic transformation (both schemes' CAONT under the AES-256-CTR
cipher, the codec, CP-ABE items and their envelope) against recorded hex
digests; any change to a construction or an encoding breaks them loudly.

If a break is *intentional* (a format revision), regenerate the vectors
and bump the recipe/record format constants so old data is detected
rather than misread.
"""

import hashlib

import pytest

from repro.abe import access_tree as at
from repro.abe.cpabe import AbeSealer, AttributeAuthority, abe_decrypt
from repro.core import envelopes
from repro.core.schemes import get_scheme
from repro.crypto.drbg import HmacDrbg
from repro.storage.recipes import ChunkRef, FileRecipe
from repro.util.codec import Encoder
from repro.util.errors import CorruptionError

CHUNK = bytes(range(256)) * 4  # 1024 deterministic bytes
MLE_KEY = bytes(range(32))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


class TestSchemeVectors:
    """Trimmed package + stub digests for both schemes."""

    GOLDEN = {
        ("basic", "aes256ctr"): (
            "286d591c815deefc72bbb90d9a672bcb",
            "9d9f7d776c8023a25932c25c31adb233",
        ),
        ("enhanced", "aes256ctr"): (
            "bc3cb58a646ea02df89e60270bdc8bd7",
            "4a84129da592d20fb5fd0edd62fb5732",
        ),
    }

    def test_scheme_outputs_frozen(self):
        for (scheme_name, cipher_name), expected in self.GOLDEN.items():
            split = get_scheme(scheme_name).encrypt_chunk(CHUNK, MLE_KEY)
            observed = (digest(split.trimmed_package), digest(split.stub))
            assert observed == expected, (
                f"{scheme_name}/{cipher_name} output changed — on-disk "
                "format break! If intentional, regenerate golden vectors."
            )


class TestAbeVector:
    """Items 0 and 1 of one encapsulation under a 3-leaf OR policy."""

    GOLDEN = (
        "8021269d8f30fd9a032e8715539f1a20",
        "7ef1a69ddd490795ca74f9c925b49383",
    )

    def test_abe_items_frozen(self):
        authority = AttributeAuthority(master_secret=bytes(range(32)))
        tree = at.parse_policy("alice or bob or carol")
        sealer = AbeSealer(
            authority.wrap_keys_for(tree), tree, rng=HmacDrbg(b"golden-abe")
        )
        items = [sealer.seal(f"key state {i}".encode()) for i in range(2)]
        assert [item.index for item in items] == [0, 1]
        assert items[0].header == items[1].header
        assert tuple(digest(item.encode()) for item in items) == self.GOLDEN, (
            "ABE item encoding changed — on-disk format break! If "
            "intentional, regenerate golden vectors and bump the envelope tag."
        )
        bob = authority.issue_private_key("bob")
        assert abe_decrypt(bob, items[1]) == b"key state 1"

    def test_old_abe_envelope_tag_refused_by_name(self):
        # Tag 1 envelopes hold ABE ciphertexts sealed before items had
        # an index; they are refused, never misread.
        legacy = Encoder().uint(1).blob(b"\x00" * 64).done()
        with pytest.raises(CorruptionError, match="unsupported ABE envelope tag 1"):
            envelopes.decode_envelope(legacy)

    @pytest.mark.parametrize("tag, kind", [(2, "group"), (3, "ABE")])
    def test_shake256_envelope_tags_refused_by_name(self, tag, kind):
        # Key states sealed under SHAKE-256 would pass their MAC under
        # AES-256-CTR and decrypt to garbage; their tags are refused.
        legacy = Encoder().uint(tag).blob(b"\x00" * 64).done()
        with pytest.raises(
            CorruptionError,
            match=f"unsupported {kind} envelope tag {tag} \\(sealed under SHAKE-256",
        ):
            envelopes.decode_envelope(legacy)


class TestEncodingVectors:
    def test_recipe_encoding_frozen(self):
        recipe = FileRecipe(
            file_id="golden",
            pathname="/tmp/file",
            size=300,
            scheme="enhanced",
            key_version=2,
            chunks=(
                ChunkRef(fingerprint=bytes(range(32)), length=100),
                ChunkRef(fingerprint=bytes(reversed(range(32))), length=200),
            ),
        )
        assert digest(recipe.encode()) == "07944d9a798ba3f5ab3521720e28dd76"

    @staticmethod
    def _legacy_recipe(version: int) -> bytes:
        return (
            Encoder()
            .uint(version)
            .text("golden")
            .text("/tmp/file")
            .uint(100)
            .text("enhanced")
            .uint(2)
            .uint(1)
            .blob(bytes(range(32)))
            .uint(100)
            .done()
        )

    def test_format_1_recipe_refused_by_name(self):
        # Format 1 recipes point at chunks written under the retired
        # HashCTR default cipher; they are refused, never misread.
        with pytest.raises(CorruptionError, match="unsupported recipe format 1"):
            FileRecipe.decode(self._legacy_recipe(1))

    def test_format_2_recipe_refused_by_name(self):
        # Format 2 recipes point at chunks written under SHAKE-256.
        with pytest.raises(
            CorruptionError, match=r"unsupported recipe format 2 \(SHAKE-256"
        ):
            FileRecipe.decode(self._legacy_recipe(2))

    def test_codec_primitives_frozen(self):
        data = (
            Encoder()
            .uint(300)
            .text("stable")
            .blob(b"\x00\x01\x02")
            .bigint(2**64 + 1)
            .boolean(True)
            .done()
        )
        assert data.hex() == (
            "ac0206737461626c65030001020901000000000000000101"
        )
