"""pytest plugin: run the tests as on a host where ``libcrypto`` cannot load.

    python -m pytest -p tests.crypto.libcrypto_absent tests/crypto

Every :class:`~repro.crypto.modexp.ModExp` then computes with ``pow``,
its reference engine.  The report header names the engine in use.
"""

import pytest

from repro.crypto import modexp


def pytest_configure(config):
    patch = pytest.MonkeyPatch()
    patch.setattr(modexp, "_candidate_paths", lambda: [])
    modexp._libcrypto.cache_clear()
    config.add_cleanup(patch.undo)
    config.add_cleanup(modexp._libcrypto.cache_clear)


def pytest_report_header(config):
    return f"modexp engine: {modexp.engine()}"
