"""Message-locked encryption: convergent encryption and server-aided MLE."""

from repro.mle.cache import DEFAULT_CACHE_BYTES, MLEKeyCache
from repro.mle.convergent import (
    ConvergentCiphertext,
    ConvergentEncryption,
    convergent_key,
)
from repro.mle.keymanager import KeyManager, KeyManagerStats
from repro.mle.server_aided import (
    DEFAULT_BATCH_SIZE,
    KeyManagerChannel,
    LocalKeyManagerChannel,
    ServerAidedKeyClient,
)

__all__ = [
    "ConvergentCiphertext",
    "ConvergentEncryption",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_CACHE_BYTES",
    "KeyManager",
    "KeyManagerChannel",
    "KeyManagerStats",
    "LocalKeyManagerChannel",
    "MLEKeyCache",
    "ServerAidedKeyClient",
    "convergent_key",
]
