"""CompressDB core: the paper's primary contribution.

Public surface:

* :class:`~repro.core.engine.CompressDB` — the storage engine;
* :class:`~repro.core.operations.OperationModule` — the non-POSIX
  operations (``engine.ops``; clients reach them via :mod:`repro.api`);
* the data-structure module pieces for inspection and benchmarking.
"""

# The engine raises the rank-0 error vocabulary of repro.fs.errors.
# Importing that module runs repro.fs's package init, which imports the
# engine back; the cycle only resolves when it is entered from the fs
# side, so load it before any core module.
import repro.fs.errors  # noqa: F401
from repro.core.compressor import Compressor
from repro.core.engine import BlockHandle, CompressDB
from repro.core.superblock import PersistenceError
from repro.core.hashtable import BlockHashTable, hash_block
from repro.core.holes import Hole, HoleDirectory
from repro.core.operations import OperationError, OperationModule
from repro.core.refcount import BlockRefCount

__all__ = [
    "BlockHandle",
    "BlockHashTable",
    "BlockRefCount",
    "CompressDB",
    "Compressor",
    "Hole",
    "HoleDirectory",
    "OperationError",
    "OperationModule",
    "PersistenceError",
    "hash_block",
]
