"""Exception hierarchy for the REED reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the broad failure classes below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed or invoked with invalid parameters."""


class IntegrityError(ReproError):
    """Decrypted or decoded data failed an integrity check.

    Raised when a CAONT canary mismatches, an enhanced-scheme hash key does
    not verify, or a fingerprint does not match the stored chunk.  Per the
    paper's security goals (Section III-B), clients abort reconstruction on
    any tampered chunk.
    """


class CorruptionError(ReproError):
    """Stored bytes could not be parsed (framing/codec level damage)."""


class AccessDeniedError(ReproError):
    """A user's attributes do not satisfy the policy protecting a key state."""


class KeyManagerError(ReproError):
    """The key manager rejected or failed a key-generation request."""


class RateLimitExceeded(KeyManagerError):
    """The key manager's per-client rate limiter rejected a request batch."""


class StorageError(ReproError):
    """The storage backend failed an operation."""


class NotFoundError(StorageError):
    """A requested object (chunk, recipe, key state, file) does not exist."""


class ProtocolError(ReproError):
    """An RPC peer sent a malformed or unexpected message."""


def outcome(fn, *args):
    """``fn(*args)``, or the exception it raised.

    Batch calls carry each item's failure in the item's own slot, so one
    bad item fails alone instead of aborting its batch.
    """
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - carried as a value
        return exc
