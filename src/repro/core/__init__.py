"""REED core: encryption schemes, client, server, policies, rekeying."""

from repro.core.client import (
    DownloadResult,
    REEDClient,
    UploadResult,
)
from repro.core.groups import GroupManager, GroupRekeyResult
from repro.core.policy import FilePolicy
from repro.core.rekey import RekeyResult, RevocationMode
from repro.core.schemes import (
    CANARY,
    STUB_SIZE,
    BasicScheme,
    EncryptionScheme,
    EnhancedScheme,
    SplitPackage,
    available_schemes,
    get_scheme,
)
from repro.core.server import REEDServer, StorageService
from repro.core.stubs import decrypt_stub_file, encrypt_stub_file
from repro.core.system import ReedSystem, build_system
from repro.storage.sharding import ShardedStorageService

__all__ = [
    "BasicScheme",
    "CANARY",
    "DownloadResult",
    "EncryptionScheme",
    "EnhancedScheme",
    "FilePolicy",
    "GroupManager",
    "GroupRekeyResult",
    "REEDClient",
    "REEDServer",
    "ReedSystem",
    "RekeyResult",
    "RevocationMode",
    "STUB_SIZE",
    "ShardedStorageService",
    "SplitPackage",
    "StorageService",
    "UploadResult",
    "available_schemes",
    "build_system",
    "decrypt_stub_file",
    "encrypt_stub_file",
    "get_scheme",
]
