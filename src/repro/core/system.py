"""System assembly: wire clients, servers, key manager, and authority.

The paper's testbed (Section VI) runs one key manager, four data-store
servers, one key-store server, and one or more clients.  This module
builds that topology either **in-process** (direct calls — the default
for tests, examples, and experiments) or **over TCP** (see
``examples/multi_server_cluster.py``), and gives a convenience facade
(:class:`ReedSystem`) for enrolling users and creating their clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.abe.cpabe import AttributeAuthority
from repro.chunking.chunker import ChunkingSpec
from repro.core.client import REEDClient
from repro.core.server import REEDServer
from repro.crypto.cipher import SymmetricCipher, get_cipher
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.keyreg.rsa_keyreg import KeyRegressionOwner
from repro.mle.cache import MLEKeyCache
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import (
    DEFAULT_BATCH_SIZE,
    LocalKeyManagerChannel,
    ServerAidedKeyClient,
)
from repro.storage.backend import MemoryBackend
from repro.storage.datastore import DataStore, DataStoreStats
from repro.storage.keystore import KeyStore
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import ConfigurationError

#: RSA modulus size used by default in tests and experiments.  The paper
#: uses 1024-bit RSA; 512 bits keeps in-process experiment setup fast
#: while exercising identical code paths.  Pass ``key_bits=1024`` for the
#: paper configuration.
FAST_KEY_BITS = 512

#: Paper topology: four data-store servers (the fifth runs the key store).
DEFAULT_DATA_SERVERS = 4


@dataclass
class ReedSystem:
    """A fully wired REED deployment plus user enrollment.

    Create one with :func:`build_system`, enroll users with
    :meth:`new_client`, and drive uploads/downloads/rekeys through the
    returned :class:`~repro.core.client.REEDClient` objects.
    """

    key_manager: KeyManager
    authority: AttributeAuthority
    servers: list[REEDServer]
    keystore: KeyStore
    storage: ShardedStorageService
    scheme: str = "enhanced"
    cipher: SymmetricCipher | None = None
    chunking: ChunkingSpec | None = None
    key_batch_size: int = DEFAULT_BATCH_SIZE
    rng: RandomSource = SYSTEM_RANDOM
    keyreg_bits: int = FAST_KEY_BITS
    _owners: dict[str, KeyRegressionOwner] = field(default_factory=dict)

    def new_client(
        self,
        user_id: str,
        owner: bool = True,
        cache_bytes: int | None = None,
        scheme: str | None = None,
        encryption_threads: int | None = None,
        encryption_workers: int | None = None,
        chunk_cache_bytes: int | None = None,
    ) -> REEDClient:
        """Enroll a user and build their client.

        ``owner=False`` creates a read-only participant (no derivation
        keypair); ``cache_bytes`` sizes the MLE key cache (None disables
        caching, mirroring the paper's cache on/off experiments).
        ``encryption_workers`` defaults to one worker per CPU (capped);
        ``encryption_threads`` is its back-compat alias.
        ``chunk_cache_bytes`` enables the client-side trimmed-package
        read cache (None disables it).
        """
        if owner and user_id in self._owners:
            raise ConfigurationError(f"user {user_id!r} already enrolled as owner")
        key_client = ServerAidedKeyClient(
            LocalKeyManagerChannel(self.key_manager),
            client_id=user_id,
            cache=MLEKeyCache(cache_bytes) if cache_bytes else None,
            batch_size=self.key_batch_size,
            rng=self.rng,
        )
        keyreg_owner = None
        if owner:
            keyreg_owner = KeyRegressionOwner(key_bits=self.keyreg_bits, rng=self.rng)
            self._owners[user_id] = keyreg_owner
        return REEDClient(
            user_id=user_id,
            key_client=key_client,
            storage=self.storage,
            keystore=self.keystore,
            private_access_key=self.authority.issue_private_key(user_id),
            wrap_keys_provider=self.authority.wrap_keys_for,
            keyreg_owner=keyreg_owner,
            scheme=scheme or self.scheme,
            cipher=self.cipher,
            chunking=self.chunking,
            encryption_threads=encryption_threads,
            encryption_workers=encryption_workers,
            chunk_cache_bytes=chunk_cache_bytes,
            rng=self.rng,
        )

    def close(self) -> None:
        """Reap the key manager's signing workers (they restart lazily).

        Call it before the interpreter exits: an executor left to the
        garbage collector just before exit can race the interpreter's
        own shutdown of it.
        """
        self.key_manager.close()

    @property
    def storage_stats(self) -> DataStoreStats:
        """Aggregate storage accounting across all data servers."""
        total = DataStoreStats()
        for server in self.servers:
            stats = server.stats
            total.logical_bytes += stats.logical_bytes
            total.physical_bytes += stats.physical_bytes
            total.stub_bytes += stats.stub_bytes
            total.chunks_received += stats.chunks_received
            total.chunks_stored += stats.chunks_stored
            total.container_payload_bytes += stats.container_payload_bytes
            total.container_compressed_bytes += stats.container_compressed_bytes
        return total


def build_system(
    num_data_servers: int = DEFAULT_DATA_SERVERS,
    scheme: str = "enhanced",
    cipher_name: str | None = None,
    chunking: ChunkingSpec | None = None,
    key_bits: int = FAST_KEY_BITS,
    key_batch_size: int = DEFAULT_BATCH_SIZE,
    rate_limit: float | None = None,
    rng: RandomSource | None = None,
    backends: list | None = None,
    container_bytes: int | None = None,
    replicas: int = 1,
    write_quorum: int | None = None,
) -> ReedSystem:
    """Build an in-process REED deployment with the paper's topology.

    ``backends`` optionally supplies one :class:`BlobBackend` per data
    server (e.g. :class:`DirectoryBackend` for durable storage); memory
    backends are used by default.  The client always talks to the
    servers through one :class:`ShardedStorageService`, even a single
    one; ``replicas``/``write_quorum`` configure ring replication across
    them (R=1 keeps the paper's plain striping).
    """
    if num_data_servers < 1:
        raise ConfigurationError("need at least one data server")
    rng = rng or SYSTEM_RANDOM
    cipher = get_cipher(cipher_name)
    km_kwargs = {}
    if rate_limit is not None:
        # Scale the burst with the configured rate so a small rate limit
        # actually limits (the default burst is sized for the default rate).
        km_kwargs["rate_limit"] = rate_limit
        km_kwargs["burst"] = max(rate_limit, 1.0)
    key_manager = KeyManager(key_bits=key_bits, rng=rng, **km_kwargs)
    authority = AttributeAuthority(rng=rng)
    if backends is None:
        backends = [MemoryBackend() for _ in range(num_data_servers)]
    if len(backends) != num_data_servers:
        raise ConfigurationError("one backend per data server required")
    store_kwargs = {}
    if container_bytes is not None:
        store_kwargs["container_bytes"] = container_bytes
    servers = [REEDServer(DataStore(backend, **store_kwargs)) for backend in backends]
    return ReedSystem(
        key_manager=key_manager,
        authority=authority,
        servers=servers,
        keystore=KeyStore(),
        storage=ShardedStorageService(
            list(servers), replicas=replicas, write_quorum=write_quorum
        ),
        scheme=scheme,
        cipher=cipher,
        chunking=chunking,
        key_batch_size=key_batch_size,
        rng=rng,
        keyreg_bits=key_bits,
    )
