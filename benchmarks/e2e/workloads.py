"""The four workloads.

Each run is: set-up (clients, pre-population, one untimed warm-up op per
op kind) → measured phase → verification.  All loops are closed: a
client issues its next operation only when the previous one returned.
The ``why`` strings are what ``BENCHMARK.json`` records.
"""

from __future__ import annotations

import hashlib
import threading

from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.util.errors import AccessDeniedError, NotFoundError

from benchmarks.e2e import inputs as gen
from benchmarks.e2e.inputs import FileInput, MiB, Sizes
from benchmarks.e2e.record import Recorder
from benchmarks.e2e.rig import BenchClient, Rig

#: The agent / owner key cache of the warm-cache workloads.
KEY_CACHE_BYTES = 256 * MiB
#: How much of a workload's own input the layer replays run on.
REPLAY_BYTES = 4 * MiB


# -- operations ---------------------------------------------------------------


def upload(rec: Recorder, client: BenchClient, file: FileInput, policy=None):
    with rec.op("upload", client, file.size):
        return client.reed.upload(file.file_id, file.data, policy=policy)
    return None


def restore(rec: Recorder, client: BenchClient, file: FileInput) -> None:
    with rec.op("download", client, file.size) as op:
        result = client.reed.download(file.file_id)
    # Hashing the restored bytes is the oracle's work, not the client's.
    if op.ok and hashlib.sha256(result.data).hexdigest() != file.sha256:
        op.fail("restored bytes differ from the generated plaintext")


def delete(rec: Recorder, client: BenchClient, file: FileInput) -> None:
    with rec.op("delete", client, file.size):
        client.reed.delete(file.file_id)


def expect_denied(rec: Recorder, client: BenchClient, file: FileInput) -> None:
    with rec.op("denied", client) as op:
        try:
            client.reed.download(file.file_id)
        except AccessDeniedError:
            return
        op.fail("a reader outside the policy was served the file")


def check_restore(rec: Recorder, client: BenchClient, file: FileInput) -> None:
    """Untimed restore for the verification phase."""
    name = f"restore:{file.file_id}:{client.user}"
    try:
        data = client.reed.download(file.file_id).data
    except Exception as exc:  # noqa: BLE001 - any failure is a failed check
        rec.check(name, False, f"{type(exc).__name__}: {exc}")
        return
    rec.check(
        name,
        hashlib.sha256(data).hexdigest() == file.sha256,
        "restored bytes differ from the generated plaintext",
    )


def check_missing(rec: Recorder, client: BenchClient, file_id: str) -> None:
    name = f"deleted:{file_id}"
    try:
        client.reed.download(file_id)
    except NotFoundError:
        rec.check(name, True)
    except Exception as exc:  # noqa: BLE001 - the wrong error is a failed check
        rec.check(name, False, f"expected NotFoundError, got {type(exc).__name__}: {exc}")
    else:
        rec.check(name, False, "a deleted file was restored")


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload bound to a seed and a set of counts."""

    name: str
    why: str
    #: Single client and no timers: the (S) counts repeat exactly.
    exact_counts = True

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    @staticmethod
    def counts(sizes: Sizes) -> dict:
        """The counts this workload runs at, for the output."""
        raise NotImplementedError

    def input_files(self) -> list[FileInput]:
        """The generated files, in the order the workload uploads them."""
        raise NotImplementedError

    def setup(self, rig: Rig, rec: Recorder) -> None:
        raise NotImplementedError

    def measure(self, rig: Rig, rec: Recorder) -> None:
        raise NotImplementedError

    def verify(self, rig: Rig, rec: Recorder) -> None:
        raise NotImplementedError

    def live_files(self) -> list[FileInput]:
        """Files that must still be stored when the run ends."""
        raise NotImplementedError

    def replay_data(self) -> bytes:
        out = bytearray()
        for file in self.input_files():
            out += file.data
            if len(out) >= REPLAY_BYTES:
                break
        return bytes(out[:REPLAY_BYTES])


class BackupUnique(Workload):
    name = "backup_unique"
    why = (
        "4 x 6 MiB never-seen files, cold key cache, then 3 cold clients restore all: "
        "every chunk pays the OPRF, the wire and a container seal; dedup index, key "
        "cache and per-file costs nearly idle."
    )

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.inputs = gen.backup_unique_inputs(seed, sizes)

    @staticmethod
    def counts(sizes: Sizes) -> dict:
        return {
            "files": sizes.unique_files,
            "file_bytes": sizes.unique_file_bytes,
            "restore_clients": sizes.unique_restore_clients,
        }

    def input_files(self) -> list[FileInput]:
        return list(self.inputs.files)

    def setup(self, rig: Rig, rec: Recorder) -> None:
        self.owner = rig.new_client("owner")
        self.restorers = [
            rig.new_client(f"restorer-{index}", owner=False)
            for index in range(self.sizes.unique_restore_clients)
        ]
        self.policy = FilePolicy.for_users(
            [self.owner.user, *(client.user for client in self.restorers)]
        )
        upload(rec, self.owner, self.inputs.warmup, self.policy)
        restore(rec, self.owner, self.inputs.warmup)

    def measure(self, rig: Rig, rec: Recorder) -> None:
        for file in self.inputs.files:
            upload(rec, self.owner, file, self.policy)
        # Fresh clients: no process pool, no chunk cache, nothing warm.
        for client in self.restorers:
            for file in self.inputs.files:
                restore(rec, client, file)

    def verify(self, rig: Rig, rec: Recorder) -> None:
        check_restore(rec, self.owner, self.inputs.files[-1])

    def live_files(self) -> list[FileInput]:
        return [self.inputs.warmup, *self.inputs.files]


class BackupGenerations(Workload):
    name = "backup_generations"
    why = (
        "28 generations x 2 MiB, 5% mutated, retention 4, GC + cold restore every 4th: "
        "warm key cache, OPRF nearly idle, chunking + CAONT dominate; read, write and "
        "space trade-offs show."
    )

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.inputs = gen.backup_generations_inputs(seed, sizes)

    @staticmethod
    def counts(sizes: Sizes) -> dict:
        return {
            "generations": sizes.generations,
            "generation_bytes": sizes.generation_bytes,
            "retention": gen.RETENTION,
            "gc_every": gen.GC_EVERY,
            "gc_threshold": gen.GC_THRESHOLD,
            "mutate_fraction": gen.MUTATE_FRACTION,
        }

    def input_files(self) -> list[FileInput]:
        return list(self.inputs.generations)

    def setup(self, rig: Rig, rec: Recorder) -> None:
        generations = self.inputs.generations
        self.agent = rig.new_client("agent", cache_bytes=KEY_CACHE_BYTES)
        second = rig.new_client("second-user")
        self.restorers = [
            rig.new_client(f"restorer-{index}", owner=False)
            for index in range(self.sizes.generations // gen.GC_EVERY + 1)
        ]
        self.policy = FilePolicy.for_users(
            [self.agent.user, *(client.user for client in self.restorers)]
        )
        upload(rec, self.agent, generations[0], self.policy)
        # Cross-user MLE dedup: another user's copy of the same bytes
        # must not store a single new chunk.
        copy = FileInput("second-gen-0", generations[0].data)
        result = upload(rec, second, copy)
        rec.check(
            "cross-user-dedup",
            result is not None and result.new_chunks == 0,
            f"second user's upload stored {getattr(result, 'new_chunks', '?')} new chunks",
        )
        delete(rec, second, copy)
        restore(rec, self.restorers[0], generations[0])
        self._gc(rec)

    def _gc(self, rec: Recorder) -> None:
        with rec.op("gc", self.agent):
            self.agent.reed.storage.gc_run(threshold=gen.GC_THRESHOLD)

    def measure(self, rig: Rig, rec: Recorder) -> None:
        generations = self.inputs.generations
        for index in range(1, len(generations)):
            upload(rec, self.agent, generations[index], self.policy)
            if index >= gen.RETENTION:
                delete(rec, self.agent, generations[index - gen.RETENTION])
            if index % gen.GC_EVERY == 0:
                self._gc(rec)
                restore(rec, self.restorers[index // gen.GC_EVERY], generations[index])

    def verify(self, rig: Rig, rec: Recorder) -> None:
        live = {file.file_id for file in self.live_files()}
        for file in self.inputs.generations:
            if file.file_id in live:
                check_restore(rec, self.restorers[0], file)
            else:
                check_missing(rec, self.restorers[0], file.file_id)

    def live_files(self) -> list[FileInput]:
        return list(self.inputs.generations[-gen.RETENTION:])


class RekeyStorm(Workload):
    name = "rekey_storm"
    why = (
        "120 revocation rounds over 32 x 256 KiB files, 17 users, every 4th LAZY, each "
        "with an authorised and a revoked restore: only keyreg, ABE, stubs and "
        "keystore work; bypasses every upload path."
    )

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.inputs = gen.rekey_storm_inputs(seed, sizes)

    @staticmethod
    def counts(sizes: Sizes) -> dict:
        return {
            "files": gen.REKEY_FILES,
            "file_bytes": sizes.rekey_file_bytes,
            "users": gen.REKEY_USERS,
            "rounds": sizes.rekey_rounds,
            "lazy_every": gen.LAZY_EVERY,
        }

    def input_files(self) -> list[FileInput]:
        return list(self.inputs.files)

    def _policy_without(self, revoked: int | None) -> FilePolicy:
        return FilePolicy.for_users(
            [user for index, user in enumerate(self.inputs.users) if index != revoked]
        )

    def _rekey(self, rec: Recorder, policy: FilePolicy, lazy: bool) -> None:
        mode = RevocationMode.LAZY if lazy else RevocationMode.ACTIVE
        with rec.op("rekey_lazy" if lazy else "rekey_active", self.owner) as op:
            result = self.owner.reed.rekey_many(self.file_ids, policy, mode)
            op.store_round_trips = result.store_round_trips
            if result.files != len(self.file_ids):
                op.fail(f"rekeyed {result.files} of {len(self.file_ids)} files")

    def setup(self, rig: Rig, rec: Recorder) -> None:
        users = self.inputs.users
        self.owner = rig.new_client(users[0], cache_bytes=KEY_CACHE_BYTES)
        self.members = {
            user: rig.new_client(user, owner=False) for user in users[1:]
        }
        outsider = rig.new_client("outsider", owner=False)
        self.file_ids = [file.file_id for file in self.inputs.files]
        everyone = self._policy_without(None)
        for file in self.inputs.files:
            upload(rec, self.owner, file, everyone)
        self._rekey(rec, everyone, lazy=False)
        self._rekey(rec, everyone, lazy=True)
        restore(rec, self.members[users[1]], self.inputs.files[0])
        expect_denied(rec, outsider, self.inputs.files[0])

    def measure(self, rig: Rig, rec: Recorder) -> None:
        users = self.inputs.users
        reader = self.members[users[1]]  # never among the revoked
        for round_ in self.inputs.rounds:
            self._rekey(rec, self._policy_without(round_.revoked), round_.lazy)
            file = self.inputs.files[round_.restore_file]
            restore(rec, reader, file)
            expect_denied(rec, self.members[users[round_.revoked]], file)

    def verify(self, rig: Rig, rec: Recorder) -> None:
        users = self.inputs.users
        for file in self.inputs.files:
            check_restore(rec, self.members[users[-1]], file)
        check_restore(rec, self.owner, self.inputs.files[0])

    def live_files(self) -> list[FileInput]:
        return list(self.inputs.files)


class SmallFilesMixed(Workload):
    name = "small_files_mixed"
    why = (
        "2 concurrent closed-loop clients x 220 ops, 50/40/10 upload/restore/delete of "
        "64 KiB files: per-file fixed cost and fan-out under contention; process "
        "pool and batch amortisation bypassed."
    )
    exact_counts = False

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.inputs = gen.small_files_inputs(seed, sizes)

    @staticmethod
    def counts(sizes: Sizes) -> dict:
        return {
            "clients": gen.SMALL_CLIENTS,
            "ops_per_client": sizes.small_ops_per_client,
            "file_bytes": sizes.small_file_bytes,
            "mix": dict(gen.SMALL_MIX),
            "prepopulate_per_client": gen.SMALL_PREPOPULATE,
        }

    def input_files(self) -> list[FileInput]:
        plan = self.inputs.clients[0]
        return [*plan.prepopulate, *(op.file for op in plan.ops if op.kind == "upload")]

    def setup(self, rig: Rig, rec: Recorder) -> None:
        self.clients = []
        for plan in self.inputs.clients:
            client = rig.new_client(plan.user)
            self.clients.append(client)
            for file in plan.prepopulate:
                upload(rec, client, file)
            restore(rec, client, plan.prepopulate[1])
            delete(rec, client, plan.prepopulate[0])

    def measure(self, rig: Rig, rec: Recorder) -> None:
        start = threading.Barrier(len(self.clients))

        def run(client: BenchClient, plan: gen.SmallClientPlan) -> None:
            start.wait()
            for op in plan.ops:
                if op.kind == "upload":
                    upload(rec, client, op.file)
                elif op.kind == "restore":
                    restore(rec, client, op.file)
                else:
                    delete(rec, client, op.file)

        threads = [
            threading.Thread(target=run, args=(client, plan), name=plan.user)
            for client, plan in zip(self.clients, self.inputs.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def verify(self, rig: Rig, rec: Recorder) -> None:
        for client, plan in zip(self.clients, self.inputs.clients):
            for file in plan.live:
                check_restore(rec, client, file)
            for file_id in plan.deleted:
                check_missing(rec, client, file_id)

    def live_files(self) -> list[FileInput]:
        return [file for plan in self.inputs.clients for file in plan.live]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (BackupUnique, BackupGenerations, RekeyStorm, SmallFilesMixed)
}
