"""Deduplicating storage backend: blobs, containers, index, stores,
auditing, and fragmentation analysis."""

from repro.storage.analysis import (
    FragmentationReport,
    analyze_file,
    analyze_sharded,
    fragmentation_over_generations,
)
from repro.storage.audit import FileAuditor, merkle_root
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
    "FileAuditor",
    "FileRecipe",
    "FragmentationReport",
    "FingerprintIndex",
    "KeyStateRecord",
    "KeyStore",
    "MemoryBackend",
    "analyze_file",
    "analyze_sharded",
    "fragmentation_over_generations",
    "merkle_root",
    "obfuscate_pathname",
]
