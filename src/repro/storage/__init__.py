"""Deduplicating storage backend: blobs, containers, index and stores."""

from repro.storage.backend import BlobBackend, DirectoryBackend, MemoryBackend
from repro.storage.container import DEFAULT_CONTAINER_BYTES, ContainerStore
from repro.storage.datastore import DataStore, DataStoreStats
from repro.storage.index import ChunkLocation, FingerprintIndex
from repro.storage.keystore import KeyStateRecord, KeyStore
from repro.storage.recipes import ChunkRef, FileRecipe, obfuscate_pathname

__all__ = [
    "BlobBackend",
    "ChunkLocation",
    "ChunkRef",
    "ContainerStore",
    "DEFAULT_CONTAINER_BYTES",
    "DataStore",
    "DataStoreStats",
    "DirectoryBackend",
    "FileRecipe",
    "FingerprintIndex",
    "KeyStateRecord",
    "KeyStore",
    "MemoryBackend",
    "obfuscate_pathname",
]
