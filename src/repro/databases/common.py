"""Shared plumbing for the database substrates.

Every database in :mod:`repro.databases` does its I/O exclusively
through a :class:`repro.fs.vfs.FileSystem`, so benchmarks can swap the
baseline file system for CompressFS with one constructor argument —
exactly how the paper's unmodified databases pick up CompressDB by
storing their files in its mount.

This module holds the pieces they share: varint/record codecs, a
checksummed record framing for WALs and heap files, and the
:class:`Database` interface the benchmark harness drives.
"""

from __future__ import annotations

import struct
import zlib

from repro.fs.vfs import FileSystem
from repro.varint import VarintError, read_varint, write_varint


class DatabaseError(Exception):
    """Base class for database-level failures."""


class CorruptRecord(DatabaseError):
    """A stored record failed its checksum or framing checks."""


# ---------------------------------------------------------------------------
# varint + record codecs
# ---------------------------------------------------------------------------

def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    out = bytearray()
    write_varint(out, value)
    return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns (value, next offset)."""
    try:
        return read_varint(data, offset)
    except VarintError as exc:
        raise CorruptRecord(str(exc)) from exc


def encode_bytes(value: bytes) -> bytes:
    """Length-prefixed byte string."""
    return encode_varint(len(value)) + value


def decode_bytes(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    length, offset = decode_varint(data, offset)
    if offset + length > len(data):
        raise CorruptRecord("truncated byte string")
    return data[offset : offset + length], offset + length


def encode_kv(key: bytes, value: bytes) -> bytes:
    """Key/value pair framing used by memtables and SSTables."""
    return encode_bytes(key) + encode_bytes(value)


def decode_kv(data: bytes, offset: int = 0) -> tuple[bytes, bytes, int]:
    key, offset = decode_bytes(data, offset)
    value, offset = decode_bytes(data, offset)
    return key, value, offset


# ---------------------------------------------------------------------------
# checksummed record framing (WALs, heap files)
# ---------------------------------------------------------------------------

_FRAME_HEADER = struct.Struct("<II")  # crc32, payload length


def frame_record(payload: bytes) -> bytes:
    """Wrap a payload with crc32 + length.

    Empty payloads are rejected: runs of zero bytes inside a record
    file are reserved for alignment padding (see :func:`read_frames`).
    """
    if not payload:
        raise ValueError("empty payloads are reserved for padding")
    return _FRAME_HEADER.pack(zlib.crc32(payload), len(payload)) + payload


def read_frames(data: bytes, align_to: int = 1) -> list[bytes]:
    """Decode a sequence of frames; a torn tail frame is dropped.

    Tolerating a truncated final record is WAL-recovery semantics: a
    crash mid-append must not poison the earlier, complete records.
    Runs of zero bytes between frames are alignment padding (written
    so large records start on block boundaries, which is what lets the
    storage layer deduplicate identical records) and are skipped.
    ``align_to`` is the boundary the writer pads to: a padded frame
    starts *on* it, and its header may itself begin with zero bytes
    (a CRC whose low byte is 0x00), so the scanner lands on the
    boundary rather than on the first non-zero byte.
    """
    frames: list[bytes] = []
    offset = 0
    n = len(data)
    while offset + _FRAME_HEADER.size <= n:
        crc, length = _FRAME_HEADER.unpack_from(data, offset)
        if crc == 0 and length == 0:
            # Alignment padding: find the next non-zero byte, then back
            # up to the boundary its frame started on — never into the
            # all-zero header just read, so the scan always advances.
            cursor = offset + _FRAME_HEADER.size
            while cursor < n and data[cursor] == 0:
                cursor += 1
            offset = max(cursor - cursor % align_to, offset + _FRAME_HEADER.size)
            continue
        body_start = offset + _FRAME_HEADER.size
        if body_start + length > n:
            break  # torn tail
        payload = data[body_start : body_start + length]
        if zlib.crc32(payload) != crc:
            raise CorruptRecord(f"crc mismatch at offset {offset}")
        frames.append(payload)
        offset = body_start + length
    return frames


# ---------------------------------------------------------------------------
# the benchmark-facing interface
# ---------------------------------------------------------------------------

class Database:
    """Minimal interface the end-to-end benchmark harness drives.

    Each engine maps the generic read/write onto its native statements
    (SELECT/UPDATE for SQL engines, Get/Put for the KV store,
    find_one/insert_one for the document store), mirroring Section 6.1's
    benchmark construction.
    """

    name = "abstract"

    def __init__(self, fs: FileSystem) -> None:
        self.fs = fs

    def bench_read(self, key: str) -> object:
        """Execute one read statement for ``key``."""
        raise NotImplementedError

    def bench_write(self, key: str, value: str) -> None:
        """Execute one write statement for ``key``."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush any buffered state to the file system."""
