"""The schemes' window engine against their per-chunk path.

``encrypt_chunks``/``decrypt_chunks`` must return exactly what
``encrypt_chunk``/``decrypt_chunk`` return chunk by chunk, and refuse a
window with the error the per-chunk path raises first: same type, same
message.
"""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.schemes import available_schemes, get_scheme
from repro.util.errors import ConfigurationError, IntegrityError

STUB_SIZES = (64, 128)
# The fold works on 32-byte rows: cover lengths on, just off and far off them.
EDGE_SIZES = (1, 31, 32, 33, 63, 64, 65, 95, 96, 97, 8191, 8192, 16 * 1024)


def _bytes(seed: int, index: int, size: int) -> bytes:
    """``size`` deterministic bytes, distinct per (seed, index)."""
    return hashlib.shake_256(f"{seed}:{index}".encode()).digest(size)


@st.composite
def windows(draw):
    """A scheme and a window of 1–64 chunks with their MLE keys."""
    scheme = get_scheme(
        draw(st.sampled_from(available_schemes())),
        stub_size=draw(st.sampled_from(STUB_SIZES)),
    )
    smallest = scheme.min_chunk_size()
    size = st.one_of(
        st.just(smallest),
        st.just(16 * 1024),
        st.sampled_from([n for n in EDGE_SIZES if n >= smallest]),
        st.integers(smallest, 16 * 1024),
    )
    sizes = draw(st.lists(size, min_size=1, max_size=64))
    seed = draw(st.integers(0, 2**32))
    chunks = [_bytes(seed, index, n) for index, n in enumerate(sizes)]
    keys = [_bytes(seed, -1 - index, 32) for index in range(len(sizes))]
    return scheme, chunks, keys


def _raised(call):
    try:
        call()
    except Exception as error:  # noqa: BLE001 - the error is the result
        return type(error), str(error)
    return None


class TestBitIdentity:
    @given(windows())
    def test_encrypt_and_decrypt_equal_per_chunk(self, window):
        scheme, chunks, keys = window
        packages = scheme.encrypt_chunks(chunks, keys)
        assert packages == [scheme.encrypt_chunk(c, k) for c, k in zip(chunks, keys)]
        trimmed = [package.trimmed_package for package in packages]
        stubs = [package.stub for package in packages]
        assert scheme.decrypt_chunks(trimmed, stubs) == [
            scheme.decrypt_chunk(t, s) for t, s in zip(trimmed, stubs)
        ] == chunks

    @pytest.mark.parametrize("name", available_schemes())
    def test_empty_window(self, name):
        scheme = get_scheme(name)
        assert scheme.encrypt_chunks([], []) == []
        assert scheme.decrypt_chunks([], []) == []

    def test_accepts_bytes_like_chunks(self):
        scheme = get_scheme("enhanced")
        chunks, keys = [b"\x01" * 100, b"\x02" * 33], [bytes(32), bytes([7]) * 32]
        assert scheme.encrypt_chunks([bytearray(c) for c in chunks], keys) == (
            scheme.encrypt_chunks(chunks, keys)
        )


class TestErrors:
    @given(windows(), st.data())
    def test_first_tampered_chunk_raises_its_own_error(self, window, data):
        """A flipped byte in chunk j and a wrong-size stub at k > j: the
        window raises what the per-chunk path raises for chunk j."""
        scheme, chunks, keys = window
        packages = scheme.encrypt_chunks(chunks, keys)
        trimmed = [package.trimmed_package for package in packages]
        stubs = [package.stub for package in packages]
        j = data.draw(st.integers(0, len(chunks) - 1), label="tampered")
        if data.draw(st.booleans(), label="flip in the stub"):
            target, position = stubs, data.draw(st.integers(0, scheme.stub_size - 1))
        else:
            target, position = trimmed, data.draw(st.integers(0, len(trimmed[j]) - 1))
        damaged = bytearray(target[j])
        damaged[position] ^= 1 << data.draw(st.integers(0, 7))
        target[j] = bytes(damaged)
        if j + 1 < len(chunks):
            k = data.draw(st.integers(j + 1, len(chunks) - 1), label="short stub")
            stubs[k] = stubs[k][:-1]
        expected = _raised(lambda: scheme.decrypt_chunk(trimmed[j], stubs[j]))
        assert expected is not None and expected[0] is IntegrityError
        assert _raised(lambda: scheme.decrypt_chunks(trimmed, stubs)) == expected

    @pytest.mark.parametrize("name", available_schemes())
    @pytest.mark.parametrize("stub_size", STUB_SIZES)
    def test_malformed_split_raises_per_chunk_error(self, name, stub_size):
        scheme = get_scheme(name, stub_size=stub_size)
        chunks = [_bytes(1, index, 200) for index in range(4)]
        keys = [_bytes(2, index, 32) for index in range(4)]
        packages = scheme.encrypt_chunks(chunks, keys)
        trimmed = [package.trimmed_package for package in packages]
        stubs = [package.stub for package in packages]
        for bad_trimmed, bad_stub in (
            (trimmed[2], stubs[2] + b"x"),  # a stub one byte long
            (trimmed[2], stubs[2][:-1]),  # a stub one byte short
            (b"", stubs[2]),  # too short a package for a 64-byte stub
        ):
            window_trimmed = trimmed[:2] + [bad_trimmed] + trimmed[3:]
            window_stubs = stubs[:2] + [bad_stub] + stubs[3:]
            expected = _raised(lambda: scheme.decrypt_chunk(bad_trimmed, bad_stub))
            assert expected is not None and expected[0] is IntegrityError
            assert _raised(
                lambda: scheme.decrypt_chunks(window_trimmed, window_stubs)
            ) == expected

    @pytest.mark.parametrize("name", available_schemes())
    @pytest.mark.parametrize("stub_size", STUB_SIZES)
    def test_encrypt_refusals_match_per_chunk(self, name, stub_size):
        """An empty chunk, a 31-byte key, a package not larger than the
        stub: the window call raises the per-chunk error of the first."""
        scheme = get_scheme(name, stub_size=stub_size)
        good_chunk, good_key = b"\x05" * 300, bytes(range(32))
        cases = [(b"", good_key), (good_chunk, bytes(31))]
        if scheme.min_chunk_size() > 1:
            cases.append((b"\x01" * (scheme.min_chunk_size() - 1), good_key))
        for chunk, key in cases:
            expected = _raised(lambda: scheme.encrypt_chunk(chunk, key))
            assert expected is not None and expected[0] is ConfigurationError
            window = ([good_chunk, chunk, b""], [good_key, key, good_key])
            assert _raised(lambda: scheme.encrypt_chunks(*window)) == expected

    @pytest.mark.parametrize("name", available_schemes())
    def test_mismatched_counts_refused(self, name):
        scheme = get_scheme(name)
        with pytest.raises(ConfigurationError, match="1 chunks but 0 MLE keys"):
            scheme.encrypt_chunks([b"x" * 100], [])
        with pytest.raises(ConfigurationError, match="1 trimmed packages but 0 stubs"):
            scheme.decrypt_chunks([b"x" * 100], [])
