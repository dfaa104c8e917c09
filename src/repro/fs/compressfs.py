"""CompressFS: the CompressDB engine exposed through the VFS interface.

This is the integration of Section 4.1/5: databases "set the system
directory" to a CompressDB mount and their ``read``/``write`` system
calls are handled by the engine, gaining compressed-data direct
processing transparently.  The extra non-POSIX operations are available
through :attr:`CompressFS.ops` (in-process) or, for remote callers,
through :func:`repro.api.connect` over the serving layer's protocol v1.

The primitives adapt one **store surface** — ``create / unlink / exists
/ file_size / read / readv / write / truncate / rename / list_files`` —
which :class:`~repro.core.engine.CompressDB` and
:class:`~repro.mvcc.session.Session` both expose and which raises
:mod:`repro.fs.errors` types itself, so nothing is translated here.
``CompressFS.store`` is the engine; :class:`~repro.fs.sessionfs.SessionFS`
is this same adapter with a session as its store.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import CompressDB
from repro.core.operations import OperationModule
from repro.fs import fd as fdmod
from repro.fs.errors import FileNotFound, InvalidArgument, PermissionDenied
from repro.fs.vfs import FileSystem
from repro.storage.block_device import BlockDevice

#: Virtual subtree exposing snapshots: ``/.snap/<name>/<path>`` is a
#: read-only view of ``<path>`` as of snapshot ``<name>``.
SNAP_ROOT = "/.snap"

_WRITE_FLAGS = (
    fdmod.O_WRONLY | fdmod.O_RDWR | fdmod.O_CREAT | fdmod.O_TRUNC | fdmod.O_APPEND
)


class CompressFS(FileSystem):
    """A file system whose storage engine is CompressDB."""

    def __init__(
        self,
        device: Optional[BlockDevice] = None,
        block_size: int = 1024,
        engine: Optional[CompressDB] = None,
        **engine_kwargs,
    ) -> None:
        if engine is not None:
            self.engine = engine
        else:
            self.engine = CompressDB(device=device, block_size=block_size, **engine_kwargs)
        #: What the primitives read and write (see the module docstring).
        self.store = self.engine
        self.device = self.engine.device
        super().__init__(self.engine.block_size, self.engine.obs)

    @property
    def ops(self) -> OperationModule:
        """The pushed-down operation module (insert/delete/search/...)."""
        return self.engine.ops

    # -- snapshot subtree ------------------------------------------------------
    @staticmethod
    def _snapshot_target(path: str) -> Optional[tuple[str, str]]:
        """Decode ``/.snap/<name>/<path>``; None for ordinary paths."""
        if not path.startswith(SNAP_ROOT + "/"):
            return None
        rest = path[len(SNAP_ROOT) + 1 :]
        name, sep, tail = rest.partition("/")
        if not name or not sep or not tail:
            return None
        return name, "/" + tail

    def _frozen(self, path: str):
        """The FrozenInode behind a virtual path, or None."""
        target = self._snapshot_target(path)
        if target is None:
            return None
        name, original = target
        if name not in self.engine.snapshots:
            return None
        return self.engine.snapshots.lookup(name, original)

    def open(
        self,
        path: str,
        flags: int = fdmod.O_RDONLY,
        snapshot: Optional[str] = None,
    ) -> int:
        """Open a live file — or, with ``snapshot``, its frozen image.

        ``open(path, snapshot="monday")`` is sugar for opening the
        virtual path ``/.snap/monday/<path>``; either spelling yields a
        read-only descriptor backed by the frozen inode table.
        """
        if snapshot is not None:
            if flags & _WRITE_FLAGS:
                raise PermissionDenied(
                    f"snapshot {snapshot!r} is read-only: open with O_RDONLY"
                )
            path = f"{SNAP_ROOT}/{snapshot}" + (
                path if path.startswith("/") else "/" + path
            )
        return super().open(path, flags)

    # -- primitives -----------------------------------------------------------
    def _create(self, path: str) -> None:
        if path.startswith(SNAP_ROOT + "/") or path == SNAP_ROOT:
            raise PermissionDenied(f"{SNAP_ROOT} is a read-only snapshot view")
        self.store.create(path)

    def _unlink(self, path: str) -> None:
        if self._snapshot_target(path) is not None:
            raise PermissionDenied(f"{path}: snapshots are read-only")
        self.store.unlink(path)

    def _exists(self, path: str) -> bool:
        if self._snapshot_target(path) is not None:
            return self._frozen(path) is not None
        return self.store.exists(path)

    def _size(self, path: str) -> int:
        frozen = self._frozen(path)
        if frozen is not None:
            return frozen.size
        if self._snapshot_target(path) is not None:
            raise FileNotFound(path)
        return self.store.file_size(path)

    def _list(self) -> list[str]:
        # Virtual .snap entries are deliberately absent: they carry no
        # logical bytes of their own and must not leak into database
        # directory scans.  ``listdir("/.snap...")`` surfaces them.
        return self.store.list_files()

    def listdir(self, prefix: str = "") -> list[str]:
        if prefix.startswith(SNAP_ROOT):
            entries = []
            for name in self.engine.snapshots.names():
                for path in self.engine.snapshots.get(name).files:
                    virtual = f"{SNAP_ROOT}/{name}" + (
                        path if path.startswith("/") else "/" + path
                    )
                    if virtual.startswith(prefix):
                        entries.append(virtual)
            return sorted(entries)
        return super().listdir(prefix)

    def _pread(self, path: str, offset: int, size: int) -> bytes:
        if offset < 0 or size < 0:
            raise InvalidArgument("offset and size must be non-negative")
        frozen = self._frozen(path)
        if frozen is not None:
            return frozen.read(self.engine.device, offset, size)
        if self._snapshot_target(path) is not None:
            raise FileNotFound(path)
        return self.store.read(path, offset, size)

    def _pwrite(self, path: str, offset: int, data: bytes) -> int:
        if self._snapshot_target(path) is not None:
            raise PermissionDenied(f"{path}: snapshots are read-only")
        return self.store.write(path, offset, data)

    def _preadv(self, requests: list[tuple[str, int, int]]) -> list[bytes]:
        """Serve every live request, whatever its file, from one store
        read; frozen ``/.snap`` requests read their snapshot image."""
        frozen: dict = {}
        for index, (path, offset, size) in enumerate(requests):
            if offset < 0 or size < 0:
                raise InvalidArgument("offset and size must be non-negative")
            if self._snapshot_target(path) is not None:
                image = self._frozen(path)
                if image is None:
                    raise FileNotFound(path)
                frozen[index] = image
        if not frozen:
            return self.store.readv(requests)
        live = iter(self.store.readv([r for i, r in enumerate(requests) if i not in frozen]))
        device = self.engine.device
        return [
            frozen[i].read(device, offset, size) if i in frozen else next(live)
            for i, (__, offset, size) in enumerate(requests)
        ]

    def _pwritev(self, path: str, spans: list[tuple[int, bytes]]) -> int:
        """Vectored write; sequential spans coalesce in the engine buffer."""
        if self._snapshot_target(path) is not None:
            raise PermissionDenied(f"{path}: snapshots are read-only")
        for offset, _ in spans:
            if offset < 0:
                raise InvalidArgument("offset must be non-negative")
        return sum(self.store.write(path, offset, data) for offset, data in spans)

    def _truncate(self, path: str, size: int) -> None:
        if self._snapshot_target(path) is not None:
            raise PermissionDenied(f"{path}: snapshots are read-only")
        self.store.truncate(path, size)

    def _clone_range(self, src: str, src_off: int, dst: str, dst_off: int, length: int) -> bool:
        """:meth:`CompressDB.clone_range`; ``/.snap`` paths refuse."""
        if self._snapshot_target(src) or self._snapshot_target(dst):
            return False
        return self.store.clone_range(src, src_off, dst, dst_off, length)

    def _sync(self, path: str) -> None:
        """``fsync``/``close`` durability: reach the device, not a buffer.

        On a mounted (formatted) engine this is the engine's sync
        point — what changed is committed through the journal with its
        write barrier; on a plain in-memory engine it degrades to
        flushing the coalescing buffer.  Frozen ``.snap`` views have nothing to make durable.
        """
        if self._snapshot_target(path) is not None:
            return
        self.engine.fsync(path)

    def write_file(self, path: str, data: bytes) -> None:
        """Whole-file writes commit immediately as one batched store."""
        super().write_file(path, data)
        self.engine.sync(path)

    def rename(self, old: str, new: str) -> None:
        """Metadata-only rename (no data copy, unlike the baseline)."""
        self.store.rename(old, new)

    # -- accounting ---------------------------------------------------------------
    def metrics(self):
        """Engine snapshot: refreshes space/memory gauges before reading."""
        return self.engine.metrics()

    def physical_bytes(self) -> int:
        return self.engine.physical_bytes()

    def compression_ratio(self) -> float:
        return self.engine.compression_ratio()
