"""pytest plugin: run the tests as on a host where ``libcrypto`` cannot load.

    python -m pytest -p tests.crypto.libcrypto_absent tests/crypto/test_rsa.py

Every :class:`~repro.crypto.modexp.ModExp` then computes with ``pow``,
its reference engine, and ``E`` (:mod:`repro.crypto.streamcipher`)
raises :class:`~repro.crypto.libcrypto.LibcryptoUnavailableError`: it
has no second engine.  The report header names both.
"""

import pytest

from repro.crypto import libcrypto, modexp, streamcipher


def pytest_configure(config):
    patch = pytest.MonkeyPatch()
    patch.setattr(libcrypto, "_candidate_paths", lambda: [])
    libcrypto.load.cache_clear()
    config.add_cleanup(patch.undo)
    config.add_cleanup(libcrypto.load.cache_clear)


def pytest_report_header(config):
    try:
        streamcipher.encrypt(bytes(32), bytes(16), b"")
        cipher = "AES-256-CTR on libcrypto"
    except libcrypto.LibcryptoUnavailableError as error:
        cipher = f"unavailable ({type(error).__name__})"
    return [f"modexp engine: {modexp.engine()}", f"cipher: {cipher}"]
