"""The one ``libcrypto`` loader both kernels use, and life without it."""

import ctypes

import pytest

from repro.crypto import libcrypto, modexp, streamcipher
from repro.crypto.libcrypto import LibcryptoUnavailableError
from repro.crypto.modexp import ModExp


@pytest.fixture()
def no_libcrypto(monkeypatch):
    monkeypatch.setattr(libcrypto, "_candidate_paths", lambda: [])
    libcrypto.load.cache_clear()
    yield
    monkeypatch.undo()
    libcrypto.load.cache_clear()


def test_both_handles_bind_every_function():
    for dll in (ctypes.CDLL, ctypes.PyDLL):
        lib = libcrypto.load(dll)
        if lib is None:
            pytest.skip("no libcrypto on this host")
        assert isinstance(lib, dll)
        for name, (argtypes, restype) in libcrypto._SIGNATURES.items():
            assert getattr(lib, name).restype == restype


def test_without_libcrypto_the_cipher_refuses_and_rsa_falls_back(no_libcrypto):
    with pytest.raises(LibcryptoUnavailableError, match="no other cipher"):
        streamcipher.encrypt(bytes(32), bytes(16), b"data")
    assert modexp.engine() == "pow"
    assert ModExp(65537, 3233)(42) == pow(42, 65537, 3233)
