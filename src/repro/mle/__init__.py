"""Message-locked encryption: server-aided MLE key derivation and its key cache."""

from repro.mle.cache import DEFAULT_CACHE_BYTES, MLEKeyCache
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import (
    DEFAULT_BATCH_SIZE,
    KeyManagerChannel,
    LocalKeyManagerChannel,
    ServerAidedKeyClient,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_CACHE_BYTES",
    "KeyManager",
    "KeyManagerChannel",
    "LocalKeyManagerChannel",
    "MLEKeyCache",
    "ServerAidedKeyClient",
]
