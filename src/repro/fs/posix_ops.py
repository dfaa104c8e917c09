"""The seven operations implemented over plain POSIX calls.

This is the *baseline* side of the Figure 10/11 comparison: without
operation pushdown, ``insert`` and ``delete`` must shift the whole file
tail through read/write (Figure 4b), and ``search``/``count`` must scan
every byte with no block reuse.  The class works against any
:class:`~repro.fs.vfs.FileSystem`, including CompressFS — running it on
CompressFS quantifies how much of CompressDB's win comes from pushdown
rather than from compression alone.

:class:`PushdownOperations` adapts a CompressFS mount's engine to the
same protocol so benchmark code can treat both sides uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core import match
from repro.fs.compressfs import CompressFS
from repro.fs.vfs import FileSystem


@dataclass
class PosixOperations:
    """extract/replace/insert/delete/append/search/count via read+write.

    ``io_chunk`` bounds the buffer used when shifting file tails, so
    the I/O pattern (many block-granularity reads and writes) matches a
    real implementation instead of one giant memory copy.
    """

    fs: FileSystem
    io_chunk: int = 64 * 1024

    def extract(self, path: str, offset: int, size: int) -> bytes:
        return self.fs._pread(path, offset, size)

    def replace(self, path: str, offset: int, data: bytes) -> None:
        self.fs._pwrite(path, offset, data)

    def append(self, path: str, data: bytes) -> None:
        self.fs.append_file(path, data)

    def insert(self, path: str, offset: int, data: bytes) -> None:
        """Figure 4(b): read everything after ``offset``, rewrite shifted."""
        size = self.fs.stat(path).size
        tail = self.fs._pread(path, offset, size - offset)
        buffer = data + tail
        written = 0
        while written < len(buffer):
            chunk = buffer[written : written + self.io_chunk]
            self.fs._pwrite(path, offset + written, chunk)
            written += len(chunk)

    def delete(self, path: str, offset: int, length: int) -> None:
        """Shift the tail left over the deleted range, then truncate."""
        size = self.fs.stat(path).size
        tail = self.fs._pread(path, offset + length, size - offset - length)
        written = 0
        while written < len(tail):
            chunk = tail[written : written + self.io_chunk]
            self.fs._pwrite(path, offset + written, chunk)
            written += len(chunk)
        self.fs.truncate(path, size - length)

    def _windows(self, path: str, m: int) -> Iterator[tuple[int, bytes]]:
        """The file as ``(offset, window)`` pieces — each ``io_chunk`` read
        after the ``m-1`` bytes before it: a match lies in the one it ends in."""
        if m == 0:
            return
        size = self.fs.stat(path).size
        position = 0
        carry = b""
        while position < size:
            chunk = self.fs._pread(path, position, self.io_chunk)
            if not chunk:
                break
            window = carry + chunk
            yield position - len(carry), window
            carry = window[-(m - 1) :] if m > 1 else b""
            position += len(chunk)

    def search(self, path: str, pattern: bytes) -> list[int]:
        """Streaming linear scan with an overlap window; no block reuse."""
        return [
            base + local
            for base, window in self._windows(path, len(pattern))
            for local in match.find_all(window, pattern)
        ]

    def count(self, path: str, pattern: bytes) -> int:
        windows = self._windows(path, len(pattern))
        return sum(match.count_matches(window, pattern) for __, window in windows)


@dataclass
class PushdownOperations:
    """The engine's pushed-down operations behind the same protocol."""

    fs: CompressFS

    def extract(self, path: str, offset: int, size: int) -> bytes:
        return self.fs.ops.extract(path, offset, size)

    def replace(self, path: str, offset: int, data: bytes) -> None:
        self.fs.ops.replace(path, offset, data)

    def append(self, path: str, data: bytes) -> None:
        self.fs.ops.append(path, data)

    def insert(self, path: str, offset: int, data: bytes) -> None:
        self.fs.ops.insert(path, offset, data)

    def delete(self, path: str, offset: int, length: int) -> None:
        self.fs.ops.delete(path, offset, length)

    def search(self, path: str, pattern: bytes) -> list[int]:
        return self.fs.ops.search(path, pattern)

    def count(self, path: str, pattern: bytes) -> int:
        return self.fs.ops.count(path, pattern)
