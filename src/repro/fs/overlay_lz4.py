"""A general-purpose-compression overlay file system.

Implements the evaluation's "(LZ4)" variants: files are stored as
LZ4-compressed segments inside container files on a *backing* file
system.  Layered over :class:`~repro.fs.vfs.PassthroughFS` it is
"baseline (LZ4)"; over :class:`~repro.fs.compressfs.CompressFS` it is
"CompressDB (LZ4)" — the stacking the paper evaluates in Table 2.

The cost model this captures is the one the paper argues about:
*applications must decompress data before using it*, and any write
must read-modify-recompress a whole segment.  Containers are
log-structured — rewritten segments are appended and the old bytes
become garbage until compaction — which is how real compressed stores
avoid in-place rewrites of variable-length data.

Metadata (segment tables) lives in memory for the lifetime of the
mount, like any FUSE daemon's runtime state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.compression.lz import Codec, LZ4Codec
from repro.fs.errors import FileExists, FileNotFound, InvalidArgument
from repro.fs.vfs import FileSystem


@dataclass
class _Segment:
    """One stored segment: where its compressed bytes live."""

    offset: int
    length: int
    raw_length: int


@dataclass
class _Container:
    """Runtime state of one overlay file."""

    logical_size: int = 0
    segments: list[Optional[_Segment]] = field(default_factory=list)
    append_cursor: int = 0
    garbage: int = 0


class CompressedOverlayFS(FileSystem):
    """Segment-compressed files over a backing file system."""

    def __init__(
        self,
        backing: FileSystem,
        segment_bytes: int = 4096,
        codec: Optional[Codec] = None,
        compaction_threshold: float = 0.5,
    ) -> None:
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        super().__init__(backing.block_size, backing.obs)
        self.backing = backing
        #: The backing file system's device (where simulated time accumulates).
        self.device = backing.device
        self.segment_bytes = segment_bytes
        self.codec = codec if codec is not None else LZ4Codec()
        self.compaction_threshold = compaction_threshold
        self._containers: dict[str, _Container] = {}
        self.compactions = 0

    # -- segment plumbing ------------------------------------------------------
    def _segment_raw(self, container: _Container, path: str, index: int) -> bytes:
        """Decompressed content of segment ``index`` (zero-filled if absent)."""
        if index >= len(container.segments) or container.segments[index] is None:
            return b""
        segment = container.segments[index]
        assert segment is not None
        payload = self.backing._pread(path, segment.offset, segment.length)
        return self.codec.decompress(payload)

    def _store_segment(self, container: _Container, path: str, index: int, raw: bytes) -> None:
        """Compress and append a segment version, retiring the old one."""
        while len(container.segments) <= index:
            container.segments.append(None)
        old = container.segments[index]
        if old is not None:
            container.garbage += old.length
        payload = self.codec.compress(raw)
        offset = container.append_cursor
        self.backing._pwrite(path, offset, payload)
        container.append_cursor += len(payload)
        container.segments[index] = _Segment(
            offset=offset, length=len(payload), raw_length=len(raw)
        )
        if (
            container.append_cursor > 0
            and container.garbage / container.append_cursor > self.compaction_threshold
        ):
            self._compact(container, path)

    def _compact(self, container: _Container, path: str) -> None:
        """Rewrite the container with only the live segment versions."""
        self.compactions += 1
        live = [
            (index, self._segment_raw(container, path, index))
            for index in range(len(container.segments))
            if container.segments[index] is not None
        ]
        self.backing.truncate(path, 0)
        container.append_cursor = 0
        container.garbage = 0
        container.segments = [None] * len(container.segments)
        for index, raw in live:
            self._store_segment(container, path, index, raw)

    # -- storage primitives -----------------------------------------------------
    def _container(self, path: str) -> _Container:
        try:
            return self._containers[path]
        except KeyError:
            raise FileNotFound(path) from None

    def _create(self, path: str) -> None:
        if path in self._containers:
            raise FileExists(path)
        self.backing.write_file(path, b"")
        self._containers[path] = _Container()

    def _unlink(self, path: str) -> None:
        del self._containers[path]
        self.backing.unlink(path)

    def _exists(self, path: str) -> bool:
        return path in self._containers

    def _size(self, path: str) -> int:
        return self._container(path).logical_size

    def _list(self) -> list[str]:
        return list(self._containers)

    def _pread(self, path: str, offset: int, size: int) -> bytes:
        container = self._container(path)
        if offset < 0 or size < 0:
            raise InvalidArgument("offset and size must be non-negative")
        if offset >= container.logical_size or size == 0:
            return b""
        size = min(size, container.logical_size - offset)
        first = offset // self.segment_bytes
        last = (offset + size - 1) // self.segment_bytes
        parts = []
        for index in range(first, last + 1):
            raw = self._segment_raw(container, path, index)
            if len(raw) < self.segment_bytes:
                raw = raw + b"\x00" * (self.segment_bytes - len(raw))
            parts.append(raw)
        blob = b"".join(parts)
        start = offset - first * self.segment_bytes
        return blob[start : start + size]

    def _pwrite(self, path: str, offset: int, data: bytes) -> int:
        container = self._container(path)
        if offset < 0:
            raise InvalidArgument("offset must be non-negative")
        if not data:
            return 0
        end = offset + len(data)
        first = offset // self.segment_bytes
        last = (end - 1) // self.segment_bytes
        consumed = 0
        for index in range(first, last + 1):
            segment_start = index * self.segment_bytes
            within = max(0, offset - segment_start)
            take = min(self.segment_bytes - within, len(data) - consumed)
            raw = self._segment_raw(container, path, index)
            if len(raw) < within:
                raw = raw + b"\x00" * (within - len(raw))
            new_raw = raw[:within] + data[consumed : consumed + take] + raw[within + take :]
            # Trim segments to the logical end of file later; store full.
            self._store_segment(container, path, index, new_raw)
            consumed += take
        container.logical_size = max(container.logical_size, end)
        return len(data)

    def _truncate(self, path: str, size: int) -> None:
        container = self._container(path)
        if size < 0:
            raise InvalidArgument("size must be non-negative")
        if size > container.logical_size:
            gap = size - container.logical_size
            self._pwrite(path, container.logical_size, b"\x00" * gap)
            return
        keep_segments = -(-size // self.segment_bytes) if size else 0
        for index in range(keep_segments, len(container.segments)):
            segment = container.segments[index]
            if segment is not None:
                container.garbage += segment.length
                container.segments[index] = None
        del container.segments[keep_segments:]
        if size % self.segment_bytes and container.segments:
            # Zero the tail of the last kept segment.
            index = keep_segments - 1
            raw = self._segment_raw(container, path, index)
            boundary = size % self.segment_bytes
            self._store_segment(container, path, index, raw[:boundary])
        container.logical_size = size

    # -- accounting --------------------------------------------------------------------
    def physical_bytes(self) -> int:
        return self.backing.physical_bytes()

    def live_compressed_bytes(self) -> int:
        """Compressed bytes of live segments (excludes log garbage)."""
        return sum(
            segment.length
            for container in self._containers.values()
            for segment in container.segments
            if segment is not None
        )
