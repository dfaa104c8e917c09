"""CompressDB core: the paper's primary contribution.

Public surface:

* :class:`~repro.core.engine.CompressDB` — the storage engine;
* :class:`~repro.core.operations.OperationModule` — the non-POSIX
  operations (``engine.ops``; clients reach them via :mod:`repro.api`);
* the data-structure module pieces for inspection and benchmarking.
"""

from repro.core.compressor import Compressor, CompressorStats
from repro.core.engine import (
    BlockHandle,
    CompressDB,
    FileExistsInEngine,
    FileNotFoundInEngine,
)
from repro.core.superblock import PersistenceError
from repro.core.hashtable import BlockHashTable, hash_block
from repro.core.holes import Hole, HoleDirectory
from repro.core.operations import OperationError, OperationModule, OperationStats
from repro.core.refcount import BlockRefCount

__all__ = [
    "BlockHandle",
    "BlockHashTable",
    "BlockRefCount",
    "CompressDB",
    "Compressor",
    "CompressorStats",
    "FileExistsInEngine",
    "FileNotFoundInEngine",
    "Hole",
    "HoleDirectory",
    "OperationError",
    "OperationModule",
    "OperationStats",
    "PersistenceError",
    "hash_block",
]
