"""Component microbenchmarks.

Raw throughput of every primitive on the REED data path, to localize
bottlenecks and to quantify the substrate costs recorded in DESIGN.md §3
(the SHAKE-256 mask, RSA signing, Rabin chunking, access-tree
encryption).
"""

import pytest

from benchmarks.common import mib_per_s, save_result
from repro.abe import access_tree as at
from repro.abe.cpabe import AbeSealer, AttributeAuthority, abe_encrypt
from repro.aont.caont import caont_revert, caont_transform
from repro.chunking.rabin import rabin_chunks
from repro.core.schemes import get_scheme
from repro.crypto import blindrsa, shamir
from repro.crypto.cipher import SHAKE256
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import sha256
from repro.crypto.rsa import fdh_sign, generate_keypair
from repro.util.units import KiB
from repro.workloads.synthetic import unique_data

KEY32 = bytes(range(32))
CHUNK_8K = unique_data(8 * KiB, seed=90)


@pytest.fixture(scope="module")
def rsa1024():
    return generate_keypair(1024, rng=HmacDrbg(b"bench-rsa"))


class TestHashing:
    def test_sha256_8k(self, benchmark):
        benchmark(sha256, CHUNK_8K)
        rate = mib_per_s(len(CHUNK_8K), benchmark.stats["mean"])
        save_result("components", f"sha256 8KB: {rate:.0f} MB/s")


class TestCiphers:
    def test_shake256_mask_8k(self, benchmark):
        benchmark(SHAKE256.mask, KEY32, 8 * KiB)
        rate = mib_per_s(8 * KiB, benchmark.stats["mean"])
        save_result("components", f"shake256 mask 8KB: {rate:.0f} MB/s")


class TestAont:
    def test_caont_transform_8k(self, benchmark):
        benchmark(caont_transform, CHUNK_8K)

    def test_caont_roundtrip_8k(self, benchmark):
        package = caont_transform(CHUNK_8K)
        benchmark(caont_revert, package)


class TestSchemes:
    @pytest.mark.parametrize("scheme_name", ["basic", "enhanced"])
    def test_encrypt_8k(self, benchmark, scheme_name):
        scheme = get_scheme(scheme_name)
        benchmark(scheme.encrypt_chunk, CHUNK_8K, KEY32)
        rate = mib_per_s(8 * KiB, benchmark.stats["mean"])
        save_result("components", f"{scheme_name} encrypt 8KB: {rate:.1f} MB/s")

    @pytest.mark.parametrize("scheme_name", ["basic", "enhanced"])
    def test_decrypt_8k(self, benchmark, scheme_name):
        scheme = get_scheme(scheme_name)
        split = scheme.encrypt_chunk(CHUNK_8K, KEY32)
        benchmark(scheme.decrypt_chunk, split.trimmed_package, split.stub)


class TestRsaOprf:
    def test_rsa_sign(self, benchmark, rsa1024):
        benchmark(fdh_sign, rsa1024, b"fingerprint")
        per_second = 1.0 / benchmark.stats["mean"]
        save_result(
            "components",
            f"1024-bit RSA FDH sign: {per_second:.0f}/s "
            "(paper key manager ~1600/s)",
        )

    def test_blind_unblind_roundtrip(self, benchmark, rsa1024):
        rng = HmacDrbg(b"blind")

        def oprf_client_side():
            blinded, state = blindrsa.blind(rsa1024.public, b"\x42" * 32, rng)
            signature = blindrsa.sign_blinded(rsa1024, blinded)
            return blindrsa.unblind(rsa1024.public, state, signature)

        benchmark(oprf_client_side)


class TestChunking:
    def test_rabin_throughput(self, benchmark):
        data = unique_data(256 * KiB, seed=91)
        benchmark.pedantic(lambda: list(rabin_chunks(data)), rounds=3)
        rate = mib_per_s(len(data), benchmark.stats["mean"])
        save_result("components", f"rabin chunking: {rate:.2f} MB/s")


class TestAccessControl:
    @pytest.mark.parametrize("leaves", [10, 100, 500])
    def test_abe_encrypt_scaling(self, benchmark, leaves):
        authority = AttributeAuthority(master_secret=b"\x31" * 32)
        tree = at.or_of_identifiers([f"u{i}" for i in range(leaves)])
        wrap_keys = authority.wrap_keys_for(tree)
        rng = HmacDrbg(b"abe")
        benchmark(abe_encrypt, wrap_keys, tree, b"\x00" * 64, rng=rng)
        benchmark.extra_info["leaves"] = leaves
        save_result(
            "components",
            f"access-tree encrypt {leaves} leaves: "
            f"{benchmark.stats['mean'] * 1e3:.2f} ms",
        )

    @pytest.mark.parametrize("layout", ["32 headers", "one header"])
    def test_abe_seal_rekey_round(self, benchmark, layout):
        """A ``rekey_storm`` round's seals: 32 key states under one
        17-leaf policy, one header each or as 32 items of one header."""
        authority = AttributeAuthority(master_secret=b"\x31" * 32)
        tree = at.or_of_identifiers([f"u{i}" for i in range(17)])
        wrap_keys = authority.wrap_keys_for(tree)
        rng = HmacDrbg(b"abe-round")
        state = b"\x00" * 160

        def seal_round():
            if layout == "32 headers":
                return [abe_encrypt(wrap_keys, tree, state, rng=rng) for _ in range(32)]
            sealer = AbeSealer(wrap_keys, tree, rng=rng)
            return [sealer.seal(state) for _ in range(32)]

        benchmark(seal_round)
        save_result(
            "components",
            f"access-tree seal 32 key states, 17 leaves, {layout}: "
            f"{benchmark.stats['mean'] * 1e3:.2f} ms",
        )

    def test_shamir_split_recover(self, benchmark):
        rng = HmacDrbg(b"shamir")

        def roundtrip():
            shares = shamir.split_secret(12345, 3, 5, rng=rng)
            return shamir.recover_secret(shares[:3])

        assert benchmark(roundtrip) == 12345
