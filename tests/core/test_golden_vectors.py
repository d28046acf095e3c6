"""Golden vectors: the on-disk formats are frozen.

A storage system's encodings are a compatibility contract — data written
today must decrypt tomorrow.  These tests pin exact outputs of every
deterministic transformation (schemes under both ciphers, CAONT, the
codec) against recorded hex digests; any change to a construction or an
encoding breaks them loudly.

If a break is *intentional* (a format revision), regenerate the vectors
and bump the recipe/record format constants so old data is detected
rather than misread.
"""

import hashlib

import pytest

from repro.aont.caont import caont_transform
from repro.core.schemes import get_scheme
from repro.crypto.cipher import get_cipher
from repro.storage.recipes import ChunkRef, FileRecipe
from repro.util.codec import Encoder
from repro.util.errors import CorruptionError

CHUNK = bytes(range(256)) * 4  # 1024 deterministic bytes
MLE_KEY = bytes(range(32))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


class TestSchemeVectors:
    """Trimmed package + stub digests for both schemes and ciphers."""

    GOLDEN = {
        ("basic", "shake256"): (
            "9b0af91c8638b877eb628d15ed4ef678",
            "dfd06dad9db5a091d1c7b84ee3520e25",
        ),
        ("enhanced", "shake256"): (
            "1b2e3e22b4e50498a21d04be883ac5d1",
            "dd4fb6449de2542e9bea2aad7b6a57b0",
        ),
        ("basic", "aes256"): (
            "286d591c815deefc72bbb90d9a672bcb",
            "9d9f7d776c8023a25932c25c31adb233",
        ),
        ("enhanced", "aes256"): (
            "bc3cb58a646ea02df89e60270bdc8bd7",
            "4a84129da592d20fb5fd0edd62fb5732",
        ),
    }

    def test_scheme_outputs_frozen(self):
        observed = {}
        for (scheme_name, cipher_name), expected in self.GOLDEN.items():
            scheme = get_scheme(scheme_name, cipher=get_cipher(cipher_name))
            split = scheme.encrypt_chunk(CHUNK, MLE_KEY)
            observed[(scheme_name, cipher_name)] = (
                digest(split.trimmed_package),
                digest(split.stub),
            )
            assert observed[(scheme_name, cipher_name)] == expected, (
                f"{scheme_name}/{cipher_name} output changed — on-disk "
                "format break! If intentional, regenerate golden vectors."
            )


class TestCaontVector:
    def test_caont_frozen(self):
        package = caont_transform(CHUNK)
        assert digest(package.head) == "16a3f342c26bdeba8af0014a5518999e"
        assert digest(package.tail) == "cdbce82913f7e325c002eaf76a8462f2"


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
        assert digest(recipe.encode()) == "28d69911a9cb4a55199b990d704984b8"

    def test_format_1_recipe_refused_by_name(self):
        # Format 1 recipes point at chunks written under the retired
        # HashCTR default cipher; they are refused, never misread.
        legacy = (
            Encoder()
            .uint(1)
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
        with pytest.raises(CorruptionError, match="unsupported recipe format 1"):
            FileRecipe.decode(legacy)

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
