"""The key store.

REED separates key information from file data (Section V-A): a dedicated
key-store server persists, per file, the ABE-encrypted key state together
with the policy metadata describing who is authorized.  Rekeying replaces
this record; the data store is untouched except (in active revocation)
for the stub file.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.obs import scope as obs_scope
from repro.storage.backend import BlobBackend, MemoryBackend
from repro.util.codec import Decoder, Encoder
from repro.util.errors import CorruptionError, outcome

_KEYSTATE_PREFIX = "keystate/"


@dataclass(frozen=True)
class KeyStateRecord:
    """The stored key envelope for one file.

    ``encrypted_state`` is the ABE ciphertext of the current key state;
    ``policy_text`` is the human-readable policy (the paper's "metadata
    that describes the policy information"); ``key_version`` mirrors the
    key-regression version so clients know how far to unwind;
    ``owner_public_key`` carries the owner's public derivation key so any
    authorized member can unwind states.
    """

    file_id: str
    policy_text: str
    key_version: int
    encrypted_state: bytes
    owner_public_key: bytes

    def encode(self) -> bytes:
        return (
            Encoder()
            .text(self.file_id)
            .text(self.policy_text)
            .uint(self.key_version)
            .blob(self.encrypted_state)
            .blob(self.owner_public_key)
            .done()
        )

    @classmethod
    def decode(cls, data: bytes) -> "KeyStateRecord":
        dec = Decoder(data)
        record = cls(
            file_id=dec.text(),
            policy_text=dec.text(),
            key_version=dec.uint(),
            encrypted_state=dec.blob(),
            owner_public_key=dec.blob(),
        )
        dec.expect_end()
        if record.key_version < 0:
            raise CorruptionError("negative key version")
        return record


class KeyStore:
    """Per-file key-state records over a blob backend.

    Every call is a batch with *per-item* status: each item resolves
    independently to its value (or ``None`` for writes) or to the
    exception that failed it, so one bad record never poisons a batch.
    The three calls are the key-state RPCs
    (:func:`repro.core.service.register_keystate_service`), and each
    reports one ``keystore_round_trips`` into the active attribution
    scope, as :class:`~repro.core.service.RemoteKeyStore` does for the
    same call over the wire.
    """

    def __init__(self, backend: BlobBackend | None = None) -> None:
        self.backend = backend if backend is not None else MemoryBackend()

    def put_many(
        self, records: list[KeyStateRecord]
    ) -> list[None | Exception]:
        return _per_item(
            records,
            lambda record: self.backend.put(
                _KEYSTATE_PREFIX + record.file_id, record.encode()
            ),
        )

    def get_many(
        self, file_ids: list[str]
    ) -> list[KeyStateRecord | Exception]:
        return _per_item(
            file_ids,
            lambda file_id: KeyStateRecord.decode(
                self.backend.get(_KEYSTATE_PREFIX + file_id)
            ),
        )

    def delete_many(self, file_ids: list[str]) -> list[None | Exception]:
        return _per_item(
            file_ids,
            lambda file_id: self.backend.delete(_KEYSTATE_PREFIX + file_id),
        )


def _per_item(items: list, apply: Callable) -> list:
    """One key-store round trip: ``apply`` each item, carrying its
    exception in its own slot."""
    obs_scope.add("keystore_round_trips")
    return [outcome(apply, item) for item in items]
