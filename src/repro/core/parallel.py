"""Client-side chunk transforms and rekey worker pools.

:class:`ChunkTransformPool` runs the chunk transform (MLE encryption +
CAONT packaging) over a batch, in order, in the calling process.  The
transform is two AES-256-CTR calls on OpenSSL and two SHA-256 digests
per chunk, about 20 µs for 8 KiB, so handing batches to worker processes
cost more in pickling and forks than it saved (docs/PERFORMANCE.md,
*The paper's cipher*).

:class:`RekeyPool` runs the two CPU-bound steps of a rekey on worker
processes: key-regression winds (one private RSA operation per file)
and stub-file re-encryption.  The worker lifecycle, span slicing and
the in-process path (small batches, single-worker configurations, no
process pools, the redo after a worker died) live in
:class:`~repro.util.spanpool.SpanPool`; the pool here adds what it
transforms and when a batch is worth the hand-off.  Workers start
lazily on first use and are reused across rekeys; call
:meth:`RekeyPool.close` (or :meth:`REEDClient.close
<repro.core.client.REEDClient.close>`) to reap them deterministically.
"""

from __future__ import annotations

from repro.core.schemes import STUB_SIZE, EncryptionScheme, SplitPackage
from repro.core.stubs import decrypt_stub_file, encrypt_stub_file
from repro.crypto.rsa import RSAPrivateKey
from repro.keyreg.rsa_keyreg import KeyRegressionOwner, KeyState
from repro.util.errors import ConfigurationError, IntegrityError
from repro.util.spanpool import SpanPool

#: Below this many stub-file bytes per batch the pickling overhead
#: exceeds the parallel win and re-encryption runs in-process.
DEFAULT_MIN_PARALLEL_BYTES = 1 << 20

#: Rekey windows of fewer key states wind on the caller thread: a wind
#: is ~0.14 ms (one 1024-bit three-prime private-key operation on
#: OpenSSL's kernel), and handing a window to two workers costs several
#: winds, so a handful of them does not repay the hand-off.  Re-timed
#: at 4-32 states (docs/PERFORMANCE.md, *One Montgomery kernel*): the
#: in-process path won up to 16 in both runs, the two runs split at 32,
#: so the bound stays where it was.  A single-file rekey never starts
#: the workers at all.
MIN_PARALLEL_WIND = 8


# -- worker-process side -----------------------------------------------------


def _reencrypt_one_stub_file(
    stub_file: bytes,
    old_key: bytes,
    new_key: bytes,
    nonce: bytes,
    default_stub_size: int,
) -> bytes:
    """Decrypt one stub file and re-encrypt it with the given nonce.

    If the old key no longer opens the stub file, the new key is tried:
    an interrupted earlier rekey may have shipped this stub file already
    (key state commits last), and the owner's deterministic wind
    re-derives the very same new key on retry.
    """
    try:
        stubs = decrypt_stub_file(old_key, stub_file)
    except IntegrityError:
        if new_key == old_key:
            raise
        stubs = decrypt_stub_file(new_key, stub_file)
    stub_size = len(stubs[0]) if stubs else default_stub_size
    return encrypt_stub_file(new_key, stubs, stub_size=stub_size, nonce=nonce)


def _reencrypt_stub_batch(
    default_stub_size: int, items: list[tuple[bytes, bytes, bytes, bytes]]
) -> list[bytes]:
    """Worker entry point: ``(stub_file, old_key, new_key, nonce)`` items."""
    return [_reencrypt_one_stub_file(*item, default_stub_size) for item in items]


#: Worker processes only: the owner's side of key regression, holding
#: the derivation key installed when the worker started.
_WINDER: KeyRegressionOwner | None = None


def _hold_derivation_key(private_key: RSAPrivateKey) -> None:
    global _WINDER
    _WINDER = KeyRegressionOwner(private_key)


def _wind_span(states: list[KeyState]) -> list[KeyState]:
    """Worker entry point: wind one span with the key held since start-up."""
    return [_WINDER.wind(state) for state in states]


# -- client side -------------------------------------------------------------


class ChunkTransformPool:
    """Runs ``scheme.encrypt_chunk``/``decrypt_chunk`` over batches, in
    order, in the calling process."""

    def __init__(self, scheme: EncryptionScheme) -> None:
        self.scheme = scheme

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def encrypt(
        self, chunks: list[bytes], mle_keys: list[bytes]
    ) -> list[SplitPackage]:
        """Transform chunks into split packages, preserving order."""
        if len(chunks) != len(mle_keys):
            raise ConfigurationError(
                f"{len(chunks)} chunks but {len(mle_keys)} MLE keys"
            )
        encrypt = self.scheme.encrypt_chunk
        return [encrypt(chunk, key) for chunk, key in zip(chunks, mle_keys)]

    def decrypt(self, trimmed: list[bytes], stubs: list[bytes]) -> list[bytes]:
        """Invert split packages back to plaintext chunks, preserving
        order; the earliest tampered chunk raises."""
        if len(trimmed) != len(stubs):
            raise ConfigurationError(
                f"{len(trimmed)} trimmed packages but {len(stubs)} stubs"
            )
        decrypt = self.scheme.decrypt_chunk
        return [decrypt(package, stub) for package, stub in zip(trimmed, stubs)]


class RekeyPool(SpanPool):
    """The client's rekey workers: key-regression winds and stub files.

    **Winds.**  With an ``owner``, every worker holds the owner's
    derivation key from start-up, exactly like the key manager's signers
    hold theirs; per window only key states go out and wound states come
    back, in order.  A wind is deterministic, so where it ran never
    shows in the output.

    **Stub files** (the active-revocation hot path): each item is one
    whole stub file to decrypt under the old file key and re-encrypt
    under the new one.  Nonces come from the caller (drawn on the client
    thread in file order), so the output is bit-identical to the serial
    path no matter how items are scheduled across workers.  Batches below
    ``min_parallel_bytes`` stay in-process.

    Degrades like every :class:`SpanPool`: in-process when process pools
    are unavailable, a serial redo if the pool breaks mid-batch.
    """

    def __init__(
        self,
        workers: int | None = None,
        min_parallel_bytes: int = DEFAULT_MIN_PARALLEL_BYTES,
        default_stub_size: int = STUB_SIZE,
        owner: KeyRegressionOwner | None = None,
    ) -> None:
        self.owner = owner
        super().__init__(
            workers,
            initializer=_hold_derivation_key if owner is not None else None,
            initargs=(owner.derivation_key,) if owner is not None else (),
        )
        self.min_parallel_bytes = min_parallel_bytes
        self.default_stub_size = default_stub_size

    def _wind_serial(self, states: list[KeyState]) -> list[KeyState]:
        wind = self.owner.wind
        return [wind(state) for state in states]

    def wind(
        self, states: list[KeyState], parallel: bool = True
    ) -> tuple[list[KeyState], bool]:
        """Wind each key state one version, preserving order; also say
        whether the winds ran on worker processes.

        ``parallel=False`` is the caller's verdict that the window is too
        small to repay the hand-off (see :data:`MIN_PARALLEL_WIND`).
        """
        return self.map_spans_where(
            states, self._wind_serial, _wind_span, parallel=parallel
        )

    def _reencrypt_serial(
        self, items: list[tuple[bytes, bytes, bytes, bytes]]
    ) -> list[bytes]:
        return [
            _reencrypt_one_stub_file(*item, self.default_stub_size) for item in items
        ]

    def reencrypt(
        self, items: list[tuple[bytes, bytes, bytes, bytes]]
    ) -> list[bytes]:
        """Re-encrypt ``(stub_file, old_key, new_key, nonce)`` items in order.

        The earliest failing item raises first — the abort is
        deterministic regardless of worker scheduling.
        """
        total = sum(len(stub_file) for stub_file, *_rest in items)
        return self.map_spans_where(
            items,
            self._reencrypt_serial,
            _reencrypt_stub_batch,
            self.default_stub_size,
            parallel=total >= self.min_parallel_bytes,
        )[0]
