"""Shared utilities for the REED reproduction.

This package holds small building blocks used across the whole system
(numpy, for XOR and folding, is their only import outside the standard
library): error types, byte-string manipulation (XOR, splitting),
a tag-length-value serialization codec, an LRU cache with byte budgeting,
a token-bucket rate limiter, and human-readable unit helpers.
"""

from repro.util.bytesutil import (
    ct_equal,
    split_at,
    split_pieces,
    xor_bytes,
    xor_fold,
)
from repro.util.codec import Decoder, Encoder, decode_fields, encode_fields
from repro.util.errors import (
    AccessDeniedError,
    ConfigurationError,
    CorruptionError,
    IntegrityError,
    KeyManagerError,
    NotFoundError,
    ProtocolError,
    RateLimitExceeded,
    ReproError,
    StorageError,
)
from repro.util.lru import LRUCache
from repro.util.tokenbucket import TokenBucket
from repro.util.units import GiB, KiB, MiB, format_bytes, format_rate

__all__ = [
    "AccessDeniedError",
    "ConfigurationError",
    "CorruptionError",
    "Decoder",
    "Encoder",
    "GiB",
    "IntegrityError",
    "KeyManagerError",
    "KiB",
    "LRUCache",
    "MiB",
    "NotFoundError",
    "ProtocolError",
    "RateLimitExceeded",
    "ReproError",
    "StorageError",
    "TokenBucket",
    "ct_equal",
    "decode_fields",
    "encode_fields",
    "format_bytes",
    "format_rate",
    "split_at",
    "split_pieces",
    "xor_bytes",
    "xor_fold",
]
