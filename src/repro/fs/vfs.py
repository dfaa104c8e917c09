"""The VFS interface and the baseline (non-compressing) file system.

:class:`FileSystem` is the POSIX-like surface every database in this
repo is written against — the equivalent of the system-call boundary a
FUSE mount intercepts.  The descriptor plumbing (open flags, positions,
append mode) is implemented once here; concrete file systems provide
the storage primitives (``_create`` … ``_list``), a ``block_size`` and
the observability bundle their spans go to.  The base class holds no
device: a file system that owns storage (:class:`PassthroughFS`,
:class:`~repro.fs.compressfs.CompressFS`) keeps its own, and a wrapper
(``SessionFS``, ``NamespaceFS``, ``RemoteFS``) takes ``block_size`` and
``obs`` from what it wraps.

:class:`PassthroughFS` is the *baseline* of the evaluation: it stores
file bytes on a block device one private block at a time, with no
dedup, no holes, and no pushdown — "the original FUSE" of Section 6.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fs import fd as fdmod
from repro.fs.errors import (
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsBusy,
    PermissionDenied,
)
from repro.obs import Observability
from repro.obs.metrics import MetricsSnapshot
from repro.storage.block_device import BlockDevice, MemoryBlockDevice


@dataclass(frozen=True)
class FileStat:
    """Subset of ``struct stat`` the databases need."""

    path: str
    size: int
    blocks: int


class FileSystem:
    """Abstract POSIX-like file system with descriptor semantics."""

    def __init__(self, block_size: int, obs: Observability) -> None:
        #: Block size of the storage beneath (what ``stat`` counts in).
        self.block_size = block_size
        # One bundle per stack: VFS spans nest over engine and device
        # spans in one trace.
        self.obs = obs
        self._fds = fdmod.FDTable()

    def metrics(self) -> MetricsSnapshot:
        """Snapshot of every metric reported beneath this file system."""
        return self.obs.registry.snapshot()

    # -- storage primitives (implemented by subclasses) ----------------------
    def _create(self, path: str) -> None:
        raise NotImplementedError

    def _unlink(self, path: str) -> None:
        raise NotImplementedError

    def _exists(self, path: str) -> bool:
        raise NotImplementedError

    def _size(self, path: str) -> int:
        raise NotImplementedError

    def _pread(self, path: str, offset: int, size: int) -> bytes:
        raise NotImplementedError

    def _pwrite(self, path: str, offset: int, data: bytes) -> int:
        raise NotImplementedError

    def _preadv(self, requests: list[tuple[str, int, int]]) -> list[bytes]:
        """Vectored positional read: one result per ``(path, offset, size)``
        request; the requests may name several files.

        The default is a loop of :meth:`_pread`; file systems with a
        scatter-gather fast path override this to serve the whole
        request list in one batched device transaction.
        """
        return [self._pread(path, offset, size) for path, offset, size in requests]

    def _pwritev(self, path: str, spans: list[tuple[int, bytes]]) -> int:
        """Vectored positional write of ``(offset, data)`` spans.

        Returns the total byte count written.  The default is a loop of
        :meth:`_pwrite`; subclasses may coalesce the spans.
        """
        return sum(self._pwrite(path, offset, data) for offset, data in spans)

    def _truncate(self, path: str, size: int) -> None:
        raise NotImplementedError

    def _clone_range(self, src: str, src_off: int, dst: str, dst_off: int, length: int) -> bool:
        """Append ``src``'s span to ``dst`` at ``dst_off`` by sharing storage,
        or refuse (False, nothing changed) and the caller writes the bytes.
        The default refuses: the baseline and every wrapper pay for them."""
        return False

    def _sync(self, path: str) -> None:
        """Make the file's completed writes durable on the device.

        The default is a no-op: the in-process devices used by the
        baseline file systems are always durable.  Journaled file
        systems override this to commit the open transaction and issue
        the write barrier.
        """

    def _list(self) -> list[str]:
        raise NotImplementedError

    # -- namespace ---------------------------------------------------------
    def exists(self, path: str) -> bool:
        return self._exists(path)

    def unlink(self, path: str) -> None:
        if not self._exists(path):
            raise FileNotFound(path)
        if self._fds.open_count(path):
            # Simpler than POSIX's deferred reclamation: an open file
            # cannot be unlinked (EBUSY), like FAT-ish semantics.
            raise IsBusy(path)
        self._unlink(path)

    def listdir(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self._list() if p.startswith(prefix))

    def stat(self, path: str) -> FileStat:
        if not self._exists(path):
            raise FileNotFound(path)
        size = self._size(path)
        blocks = -(-size // self.block_size) if size else 0
        return FileStat(path=path, size=size, blocks=blocks)

    def rename(self, old: str, new: str) -> None:
        """Default rename: copy + unlink (subclasses may override)."""
        data = self.read_file(old)
        if old == new:
            return
        if self._exists(new):
            self._unlink(new)
        self._create(new)
        if data:
            self._pwrite(new, 0, data)
        self._unlink(old)

    # -- descriptor API ----------------------------------------------------------
    def open(
        self,
        path: str,
        flags: int = fdmod.O_RDONLY,
        snapshot: Optional[str] = None,
    ) -> int:
        """Open ``path``; ``snapshot`` requests a time-travel view.

        Passing ``snapshot`` opens the file exactly as it was when that
        snapshot was taken (read-only).  Only capable file systems
        support it; the base implementation rejects it.
        """
        if snapshot is not None:
            raise InvalidArgument(
                "this file system does not support snapshot reads"
            )
        exists = self._exists(path)
        if not exists:
            if not flags & fdmod.O_CREAT:
                raise FileNotFound(path)
            self._create(path)
        elif flags & fdmod.O_CREAT and flags & fdmod.O_EXCL:
            raise FileExists(path)
        fd = self._fds.allocate(path, flags)
        if flags & fdmod.O_TRUNC and self._fds.lookup(fd).writable:
            self._truncate(path, 0)
        return fd

    def close(self, fd: int) -> None:
        state = self._fds.lookup(fd)
        try:
            # POSIX does not promise durability on close, but every
            # database in this repo treats close-after-write as a commit
            # point (as ext4's auto_da_alloc heuristic does), so map it
            # to a sync.
            with self.obs.tracer.span("vfs.close", path=state.path):
                self._sync(state.path)
        finally:
            # The slot is reclaimed even when the sync fails: a close
            # that raises must not leak the descriptor.
            self._fds.release(fd)

    def lseek(self, fd: int, offset: int, whence: int = fdmod.SEEK_SET) -> int:
        state = self._fds.lookup(fd)
        return self._fds.seek(fd, offset, whence, self._size(state.path))

    def read(self, fd: int, size: int) -> bytes:
        state = self._fds.lookup(fd)
        if not state.readable:
            raise PermissionDenied(f"fd {fd} not open for reading")
        with self.obs.tracer.span("vfs.read", path=state.path, size=size):
            data = self._pread(state.path, state.position, size)
        state.position += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        state = self._fds.lookup(fd)
        if not state.writable:
            raise PermissionDenied(f"fd {fd} not open for writing")
        if state.append_mode:
            state.position = self._size(state.path)
        with self.obs.tracer.span("vfs.write", path=state.path, nbytes=len(data)):
            written = self._pwrite(state.path, state.position, data)
        state.position += written
        return written

    def pread(self, fd: int, size: int, offset: int) -> bytes:
        state = self._fds.lookup(fd)
        if not state.readable:
            raise PermissionDenied(f"fd {fd} not open for reading")
        with self.obs.tracer.span("vfs.pread", path=state.path, size=size):
            return self._pread(state.path, offset, size)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        state = self._fds.lookup(fd)
        if not state.writable:
            raise PermissionDenied(f"fd {fd} not open for writing")
        with self.obs.tracer.span("vfs.pwrite", path=state.path, nbytes=len(data)):
            return self._pwrite(state.path, offset, data)

    def preadv(self, fd: int, spans: list[tuple[int, int]]) -> list[bytes]:
        """``preadv``: read every ``(offset, size)`` span in one request."""
        state = self._fds.lookup(fd)
        if not state.readable:
            raise PermissionDenied(f"fd {fd} not open for reading")
        with self.obs.tracer.span("vfs.preadv", path=state.path, spans=len(spans)):
            return self._preadv([(state.path, offset, size) for offset, size in spans])

    def pwritev(self, fd: int, spans: list[tuple[int, bytes]]) -> int:
        """``pwritev``: write every ``(offset, data)`` span in one request."""
        state = self._fds.lookup(fd)
        if not state.writable:
            raise PermissionDenied(f"fd {fd} not open for writing")
        with self.obs.tracer.span("vfs.pwritev", path=state.path, spans=len(spans)):
            return self._pwritev(state.path, spans)

    def ftruncate(self, fd: int, size: int) -> None:
        state = self._fds.lookup(fd)
        if not state.writable:
            raise PermissionDenied(f"fd {fd} not open for writing")
        self._truncate(state.path, size)

    def truncate(self, path: str, size: int) -> None:
        if not self._exists(path):
            raise FileNotFound(path)
        self._truncate(path, size)

    def fsync(self, fd: int) -> None:
        """Make the file's completed writes durable (commit + barrier)."""
        state = self._fds.lookup(fd)
        with self.obs.tracer.span("vfs.fsync", path=state.path):
            self._sync(state.path)

    # -- whole-file convenience -----------------------------------------------------
    def read_file(self, path: str) -> bytes:
        if not self._exists(path):
            raise FileNotFound(path)
        return self._pread(path, 0, self._size(path))

    def write_file(self, path: str, data: bytes) -> None:
        if self._exists(path):
            self._truncate(path, 0)
        else:
            self._create(path)
        if data:
            self._pwrite(path, 0, data)

    def append_file(self, path: str, data: bytes) -> None:
        if not self._exists(path):
            self._create(path)
        self._pwrite(path, self._size(path), data)

    # -- space accounting --------------------------------------------------------------
    def logical_bytes(self) -> int:
        return sum(self._size(path) for path in self._list())

    def physical_bytes(self) -> int:
        """Bytes of device blocks holding live data."""
        raise NotImplementedError

    def compression_ratio(self) -> float:
        physical = self.physical_bytes()
        if physical == 0:
            return 1.0
        return self.logical_bytes() / physical


class _PlainFile:
    """Baseline file: a private block list plus a byte size."""

    __slots__ = ("blocks", "size")

    def __init__(self) -> None:
        self.blocks: list[int] = []
        self.size = 0


class PassthroughFS(FileSystem):
    """Baseline file system: raw blocks, no dedup, no holes, no pushdown."""

    def __init__(self, device: Optional[BlockDevice] = None, block_size: int = 1024) -> None:
        self.device = device if device is not None else MemoryBlockDevice(block_size=block_size)
        super().__init__(self.device.block_size, self.device.obs)
        self._files: dict[str, _PlainFile] = {}

    # -- primitives ------------------------------------------------------------
    def _create(self, path: str) -> None:
        if path in self._files:
            raise FileExists(path)
        self._files[path] = _PlainFile()

    def _unlink(self, path: str) -> None:
        plain = self._files.pop(path)
        for block_no in plain.blocks:
            self.device.free(block_no)

    def _exists(self, path: str) -> bool:
        return path in self._files

    def _size(self, path: str) -> int:
        return self._file(path).size

    def _list(self) -> list[str]:
        return list(self._files)

    def _file(self, path: str) -> _PlainFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def _pread(self, path: str, offset: int, size: int) -> bytes:
        plain = self._file(path)
        if offset < 0 or size < 0:
            raise InvalidArgument("offset and size must be non-negative")
        if offset >= plain.size or size == 0:
            return b""
        size = min(size, plain.size - offset)
        block_size = self.block_size
        first = offset // block_size
        last = (offset + size - 1) // block_size
        chunks = [self.device.read_block(plain.blocks[i]) for i in range(first, last + 1)]  # reprolint: disable=IO001 -- baseline cost model: PassthroughFS deliberately pays per-block device costs so the CompressDB comparison includes a conventional per-block write path
        raw = b"".join(chunks)
        start = offset - first * block_size
        return raw[start : start + size]

    def _pwrite(self, path: str, offset: int, data: bytes) -> int:
        plain = self._file(path)
        if offset < 0:
            raise InvalidArgument("offset must be non-negative")
        if not data:
            return 0  # POSIX: a zero-length write changes nothing
        end = offset + len(data)
        block_size = self.block_size
        # Grow the block list to cover the write (zero-filled gap).
        needed_blocks = -(-max(end, plain.size) // block_size)
        while len(plain.blocks) < needed_blocks:
            plain.blocks.append(self.device.allocate())
        first = offset // block_size
        last = (end - 1) // block_size if end > offset else first
        consumed = 0
        for index in range(first, last + 1):
            block_start = index * block_size
            within = max(0, offset - block_start)
            take = min(block_size - within, len(data) - consumed)
            if within == 0 and take == block_size:
                self.device.write_block(plain.blocks[index], data[consumed : consumed + take])  # reprolint: disable=IO001 -- baseline cost model: PassthroughFS deliberately pays per-block device costs so the CompressDB comparison includes a conventional per-block write path
            else:
                # Partial block: read-modify-write, as a real FS must.
                old = self.device.read_block(plain.blocks[index])  # reprolint: disable=IO001 -- baseline cost model: PassthroughFS deliberately pays per-block device costs so the CompressDB comparison includes a conventional per-block write path
                new = old[:within] + data[consumed : consumed + take] + old[within + take :]
                self.device.write_block(plain.blocks[index], new)  # reprolint: disable=IO001 -- baseline cost model: PassthroughFS deliberately pays per-block device costs so the CompressDB comparison includes a conventional per-block write path
            consumed += take
        plain.size = max(plain.size, end)
        return len(data)

    def _truncate(self, path: str, size: int) -> None:
        plain = self._file(path)
        if size < 0:
            raise InvalidArgument("size must be non-negative")
        if size > plain.size:
            # Zero-fill growth.
            self._pwrite(path, plain.size, b"\x00" * (size - plain.size))
            return
        block_size = self.block_size
        keep = -(-size // block_size)
        for block_no in plain.blocks[keep:]:
            self.device.free(block_no)
        del plain.blocks[keep:]
        plain.size = size
        # Zero the tail of the last kept block so re-growth reads zeros.
        if size % block_size and plain.blocks:
            last = plain.blocks[-1]
            old = self.device.read_block(last)
            boundary = size % block_size
            self.device.write_block(last, old[:boundary] + b"\x00" * (block_size - boundary))

    # -- accounting --------------------------------------------------------------
    def physical_bytes(self) -> int:
        return sum(len(plain.blocks) for plain in self._files.values()) * self.block_size
