"""Group rekeying: one policy change covering many files.

The paper performs rekeying per file and poses group rekeying as future
work (Section IV-D: "we can generalize rekeying for a group of files").
This module implements that generalization with one level of key
indirection:

* a **group** owns its own key-regression chain, ABE-protected under the
  group policy (exactly like a file's key state);
* each member file's key state is sealed in a **group envelope** —
  symmetric encryption under the group key — instead of its own ABE
  ciphertext.

Rekeying the group then costs **one** CP-ABE encryption (the expensive,
per-policy-leaf operation measured in Experiment A.4) plus one tiny
symmetric re-wrap per member file; per-file rekeying would cost one
CP-ABE encryption *per file*.  For a project with hundreds of files and
hundreds of users, that is the difference between milliseconds and
minutes of policy-crypto work.

Clients open group-enveloped files transparently
(:meth:`REEDClient._open_key_state` resolves the group), so downloads,
lazy access to old versions, and revocation semantics all match the
per-file design.

:class:`GroupManager` owns only what is group-specific: the group
record, the manifest and :class:`GroupRekeyResult`.  Member files ride
the client's own upload and rekey run (:meth:`REEDClient._rekey_files`),
which seals them with the group seal step.  A member's access changes
only through its group: the client refuses a per-file rekey of one.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core import envelopes
from repro.core.client import REEDClient, UploadResult
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.core.rekeypipe import check_items
from repro.crypto.hashing import hmac_sha256, kdf
from repro.keyreg.rsa_keyreg import KeyState
from repro.obs import scope as obs_scope
from repro.storage.keystore import KeyStateRecord
from repro.util.bytesutil import ct_equal
from repro.util.codec import Decoder, Encoder
from repro.util.errors import ConfigurationError, IntegrityError, NotFoundError


@dataclass(frozen=True)
class GroupRekeyResult:
    """Accounting for one group rekey."""

    group_id: str
    mode: RevocationMode
    old_group_version: int
    new_group_version: int
    #: CP-ABE encryptions performed (always 1 — the point of the design).
    abe_operations: int
    #: Member files whose envelopes were re-wrapped.
    files_rewrapped: int
    #: Stub bytes moved (active mode only).
    stub_bytes_reencrypted: int
    #: Storage-layer round trips (batch RPCs to data servers) issued.
    store_round_trips: int = 0
    #: Key-store round trips issued.
    keystore_round_trips: int = 0
    #: Rekey pipeline windows shipped.
    batches: int = 0


class GroupManager:
    """Group operations for one owning client.

    The owner's derivation keypair drives the group's key-regression
    chain; any client whose attributes satisfy the group policy can read
    member files.
    """

    def __init__(self, client: REEDClient) -> None:
        if client.keyreg_owner is None:
            raise ConfigurationError("group management requires an owner client")
        self.client = client

    # -- manifest ------------------------------------------------------------

    def _manifest_id(self, group_id: str) -> str:
        return f"@group-manifest/{group_id}"

    def _write_manifest(self, group_id: str, group_key: bytes, files: list[str]) -> None:
        enc = Encoder().uint(len(files))
        for file_id in sorted(files):
            enc.text(file_id)
        body = enc.done()
        mac = hmac_sha256(kdf(group_key, "group-manifest-mac"), body)
        # An empty stub file keeps the manifest a whole (stub file,
        # recipe) pair, the unit repair and rebalancing copy.
        manifest_id = self._manifest_id(group_id)
        check_items(
            self.client.storage.file_commit([(manifest_id, b"", body + mac)])
        )

    @staticmethod
    def _decode_manifest(blob: bytes, group_key: bytes) -> list[str]:
        if len(blob) < 32:
            raise IntegrityError("group manifest too short")
        body, mac = blob[:-32], blob[-32:]
        if not ct_equal(hmac_sha256(kdf(group_key, "group-manifest-mac"), body), mac):
            raise IntegrityError("group manifest failed authentication")
        dec = Decoder(body)
        files = [dec.text() for _ in range(dec.uint())]
        dec.expect_end()
        return files

    def _manifest_blob(self, group_id: str) -> bytes:
        [blob] = check_items(
            self.client.storage.recipe_get_many([self._manifest_id(group_id)])
        )
        return blob

    def _read_manifest_at(
        self, group_id: str, record: KeyStateRecord, state: KeyState
    ) -> list[str]:
        """Read the manifest, probing older group keys if needed.

        The group record commits before member records and the manifest
        (it is the single ABE operation), so an aborted rekey can leave
        the manifest MAC'd under an *older* group key.  Key regression
        makes recovery free: unwind the current state version by version
        until the MAC verifies.
        """
        blob = self._manifest_blob(group_id)
        for version in range(state.version, -1, -1):
            key = self.client._file_key_at(record, state, version)
            try:
                return self._decode_manifest(blob, key)
            except IntegrityError:
                continue
        raise IntegrityError(
            "group manifest failed authentication at every group version"
        )

    # -- group state ------------------------------------------------------------

    def _group_record(self, group_id: str) -> KeyStateRecord:
        [record] = check_items(
            self.client.keystore.get_many([self.client.group_record_id(group_id)])
        )
        return record

    def create_group(self, group_id: str, policy: FilePolicy) -> None:
        """Create a group: a fresh key-regression chain under ``policy``."""
        record_id = self.client.group_record_id(group_id)
        [existing] = self.client.keystore.get_many([record_id])
        if not isinstance(existing, NotFoundError):
            raise ConfigurationError(f"group {group_id!r} already exists")
        state = self.client.keyreg_owner.initial_state()
        record = self.client._seal_key_state(record_id, state, policy)
        check_items(self.client.keystore.put_many([record]))
        self._write_manifest(group_id, state.derive_key(), [])

    def group_key(self, group_id: str) -> tuple[KeyState, bytes]:
        """The group's current key state and derived group key."""
        _record, state = self.client._group_state(group_id)
        return state, state.derive_key()

    def members(self, group_id: str) -> list[str]:
        """The manifest's files still sealed in one of the group's
        envelopes: a file deleted, re-uploaded outside the group or moved
        into another group has left it, though the manifest lists it
        until the next group rekey."""
        record, state = self.client._group_state(group_id)
        files, _records = self._current_members(
            group_id, self._read_manifest_at(group_id, record, state)
        )
        return files

    # -- file membership ------------------------------------------------------

    def upload(
        self, group_id: str, file_id: str, data, pathname: str = ""
    ) -> UploadResult:
        """Upload a file into the group.

        The file's chunks and stub file are produced exactly as in a
        normal upload; only its key-state record differs: the upload
        seals it straight into a group envelope, with no CP-ABE work.
        """
        client = self.client
        record, state = client._group_state(group_id)
        result = client._upload(
            file_id, data, client._group_seal_step(group_id, state), pathname
        )
        self._add_member(group_id, file_id, record, state)
        return result

    def adopt(self, group_id: str, file_id: str) -> None:
        """Move an existing (ABE-sealed) file of this owner into the group.

        A member of any group, this one included, is refused before
        anything is written: its access changes only through its group.
        """
        client = self.client
        record, state = client._group_state(group_id)
        [file_record] = check_items(client.keystore.get_many([file_id]))
        file_state = client._open_key_state(file_record, held={})
        resealed = client._group_seal_step(group_id, state)(file_id, file_state)
        check_items(client.keystore.put_many([resealed]))
        self._add_member(group_id, file_id, record, state)

    def _add_member(
        self, group_id: str, file_id: str, record: KeyStateRecord, state: KeyState
    ) -> None:
        files = self._read_manifest_at(group_id, record, state)
        if file_id not in files:
            files.append(file_id)
        self._write_manifest(group_id, state.derive_key(), files)

    # -- rekeying ------------------------------------------------------------

    def _current_members(
        self, group_id: str, listed: list[str]
    ) -> tuple[list[str], list[KeyStateRecord]]:
        """The listed files still sealed in a group envelope of
        ``group_id``, with their key-state records (one keystore
        round trip, which the rekey run's fetch stage then skips)."""
        if not listed:
            return [], []
        members = {}
        for file_id, item in zip(listed, self.client.keystore.get_many(listed)):
            if isinstance(item, NotFoundError):
                continue  # deleted
            check_items([item])
            tag, payload = envelopes.decode_envelope(item.encrypted_state)
            if tag == envelopes.TAG_GROUP and payload.group_id == group_id:
                members[file_id] = item
        return list(members), list(members.values())

    def rekey(
        self,
        group_id: str,
        new_policy: FilePolicy,
        mode: RevocationMode = RevocationMode.LAZY,
    ) -> GroupRekeyResult:
        """Rekey the whole group under ``new_policy``.

        One ABE encryption seals the new group state; every member file's
        envelope is re-wrapped under the new group key (symmetric, tiny).
        Active mode additionally winds each member file's own state and
        re-encrypts its stub file, exactly like per-file active
        revocation.

        Member files ride the client's own batched rekey run
        (:meth:`REEDClient._rekey_files`) with the group seal step.

        The group record commits first (it *is* the single ABE
        operation); member records and the manifest follow, and an
        aborted run converges on retry — the manifest read probes older
        group keys (:meth:`_read_manifest_at`) and the stub
        re-encryption recovers files whose recipes ran ahead of their
        key states.

        A listed file whose record is no longer a group envelope of this
        group — deleted, re-uploaded with a policy of its own, or moved
        into another group — is dropped from the manifest, not rekeyed.
        """
        return self._rekey(group_id, mode, lambda record: new_policy)

    def revoke_users(
        self,
        group_id: str,
        revoked: set[str],
        mode: RevocationMode = RevocationMode.LAZY,
    ) -> GroupRekeyResult:
        """Convenience: rekey with the current policy minus ``revoked``.

        The group record that names the policy is read once, inside the
        rekey's attribution scope.
        """
        return self._rekey(
            group_id,
            mode,
            lambda record: FilePolicy.parse(record.policy_text).without_users(
                revoked
            ),
        )

    def _rekey(
        self,
        group_id: str,
        mode: RevocationMode,
        policy_of: Callable[[KeyStateRecord], FilePolicy],
    ) -> GroupRekeyResult:
        """One group rekey; ``policy_of(record)`` names the new policy
        from the group's current record."""
        client = self.client
        with obs_scope.attribution() as scope, client.tracer.span(
            "rekey.group", mode=mode.value
        ):
            record = self._group_record(group_id)
            new_policy = policy_of(record)
            old_state = client._open_key_state(record)
            files, records = self._current_members(
                group_id, self._read_manifest_at(group_id, record, old_state)
            )

            new_state = client.keyreg_owner.wind(old_state)
            new_record = client._seal_key_state(
                client.group_record_id(group_id), new_state, new_policy
            )
            check_items(client.keystore.put_many([new_record]))
            # Member envelopes reference group versions up to the old
            # one, which the run opens from the state held here: one
            # keystore get_many per window, no group record re-fetch.
            stats = client._rekey_files(
                files,
                mode,
                client._group_seal_step(group_id, new_state),
                records=records,
                held={group_id: (record, old_state)},
                wind=mode is RevocationMode.ACTIVE,
            )
            self._write_manifest(group_id, new_state.derive_key(), files)

        return GroupRekeyResult(
            group_id=group_id,
            mode=mode,
            old_group_version=old_state.version,
            new_group_version=new_state.version,
            abe_operations=1,
            files_rewrapped=len(files),
            stub_bytes_reencrypted=stats.stub_bytes,
            store_round_trips=scope.get_int("store_round_trips"),
            keystore_round_trips=scope.get_int("keystore_round_trips"),
            batches=stats.batches,
        )
