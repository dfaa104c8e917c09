"""File-descriptor table with POSIX open-flag semantics.

The databases in :mod:`repro.databases` interact with the file systems
exclusively through descriptors, the way a real process talks to a
FUSE mount.  This module implements the descriptor bookkeeping shared
by every :class:`~repro.fs.vfs.FileSystem` implementation: flag
validation, per-descriptor positions, append mode, and close tracking.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.fs.errors import BadFileDescriptor, InvalidArgument

#: Flags understood by the VFS layer.
O_RDONLY = os.O_RDONLY
O_WRONLY = os.O_WRONLY
O_RDWR = os.O_RDWR
O_CREAT = os.O_CREAT
O_TRUNC = os.O_TRUNC
O_APPEND = os.O_APPEND
O_EXCL = os.O_EXCL

_ACCESS_MASK = os.O_RDONLY | os.O_WRONLY | os.O_RDWR

SEEK_SET = os.SEEK_SET
SEEK_CUR = os.SEEK_CUR
SEEK_END = os.SEEK_END


@dataclass
class OpenFile:
    """State of one open descriptor."""

    path: str
    flags: int
    position: int = 0

    @property
    def readable(self) -> bool:
        access = self.flags & _ACCESS_MASK
        return access in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        access = self.flags & _ACCESS_MASK
        return access in (O_WRONLY, O_RDWR)

    @property
    def append_mode(self) -> bool:
        return bool(self.flags & O_APPEND)


class FDTable:
    """Allocates descriptors and tracks open files."""

    def __init__(self) -> None:
        self._open: dict[int, OpenFile] = {}
        self._next_fd = 3  # skip stdin/stdout/stderr, like a real process
        self._free: list[int] = []

    def allocate(self, path: str, flags: int) -> int:
        fd = self._free.pop() if self._free else self._next_fd
        if fd == self._next_fd:
            self._next_fd += 1
        self._open[fd] = OpenFile(path=path, flags=flags)
        return fd

    def lookup(self, fd: int) -> OpenFile:
        try:
            return self._open[fd]
        except KeyError:
            raise BadFileDescriptor(f"fd {fd} is not open") from None

    def release(self, fd: int) -> OpenFile:
        state = self.lookup(fd)
        del self._open[fd]
        self._free.append(fd)
        return state

    def release_all(self) -> int:
        """Release every open descriptor; returns how many there were."""
        fds = self.open_fds()
        for fd in fds:
            self.release(fd)
        return len(fds)

    def open_count(self, path: str) -> int:
        """Number of descriptors currently open on ``path``."""
        return sum(1 for state in self._open.values() if state.path == path)

    def open_fds(self) -> list[int]:
        return sorted(self._open)

    def seek(self, fd: int, offset: int, whence: int, file_size: int) -> int:
        """Apply ``lseek`` semantics; returns the new absolute position."""
        state = self.lookup(fd)
        if whence == SEEK_SET:
            new_position = offset
        elif whence == SEEK_CUR:
            new_position = state.position + offset
        elif whence == SEEK_END:
            new_position = file_size + offset
        else:
            raise InvalidArgument(f"bad whence {whence}")
        if new_position < 0:
            raise InvalidArgument(f"seek to negative offset {new_position}")
        state.position = new_position
        return new_position
