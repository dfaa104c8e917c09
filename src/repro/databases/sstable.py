"""SSTable: the sorted-string-table file format for MiniLevelDB.

Layout (all through the VFS)::

    [data block 0][data block 1]...[index][footer]

* data block — concatenated records ``flag(1B) varint(klen) key
  [varint(vlen) value]``; flag 1 marks a tombstone, 0x02 bytes are
  filler.  Blocks are cut at ``block_target`` bytes and may be
  compressed with a pluggable codec (Snappy by default in LevelDB;
  Section 6.5 toggles it) or, uncompressed, align each large record to
  whole units so a compaction can share its blocks by reference.
* index — one entry per block: first key, last key, file offset,
  stored size, compressed flag.
* footer — fixed struct locating the index.

Readers keep the index in memory and fetch/decompress one block per
lookup, like the real thing.
"""

from __future__ import annotations

import re
import struct
from typing import Iterator, Optional

from repro.compression.lz import Codec, IdentityCodec
from repro.databases.bloom import BloomFilter
from repro.databases.common import (
    CorruptRecord,
    decode_bytes,
    decode_varint,
    encode_bytes,
    encode_varint,
)
from repro.fs.vfs import FileSystem

_FOOTER = struct.Struct("<QQQQQ")  # index off/size, bloom off/size, magic
_MAGIC = 0x5353544142004C45  # "SSTAB.LE"
_FILLER_RUN = re.compile(rb"\x02*")  # alignment padding between records

#: Sentinel in the public API marking a deletion.
TOMBSTONE = None


class SSTableWriter:
    """Builds one SSTable from keys added in strictly ascending order."""

    def __init__(
        self,
        fs: FileSystem,
        path: str,
        codec: Optional[Codec] = None,
        block_target: int = 4096,
        align_records: Optional[int] = None,
    ) -> None:
        """``align_records`` pads large records (and every data block)
        to that byte boundary — typically the storage block size — so
        identical values in different tables and positions produce
        identical storage blocks, which a deduplicating file system
        like CompressDB stores once.  Meaningless under compression
        (compressed bytes differ), so it is rejected with a codec."""
        self.fs = fs
        self.path = path
        self.codec = codec if codec is not None else IdentityCodec()
        self.block_target = block_target
        self.align_records = align_records
        if align_records is not None:
            if align_records <= 8:
                raise ValueError("align_records must exceed the padding header")
            if not isinstance(self.codec, IdentityCodec):
                raise ValueError("record alignment requires an identity codec")
        self._buffer = bytearray()
        self._block_first: Optional[bytes] = None
        self._block_last: Optional[bytes] = None
        self._index: list[tuple[bytes, bytes, int, int, bool]] = []
        self._offset = 0
        self._last_key: Optional[bytes] = None
        self._entries = 0
        self._keys: list[bytes] = []
        self._runs: list[list] = []  # [source, source - buffer offset, start, end]
        fs.write_file(path, b"")

    def add(self, key: bytes, value: Optional[bytes], extent: Optional[tuple] = None) -> None:
        """Append a key with a value, or a tombstone when value is None.
        ``extent``, ``(path, offset, length)`` of this very record in
        another table (:meth:`SSTableReader.iterate_extents`), shares
        that table's storage instead of writing the record."""
        if self._last_key is not None and key <= self._last_key:
            raise ValueError("keys must be added in strictly ascending order")
        self._last_key = key
        if value is None:
            record = b"\x01" + encode_bytes(key)
        else:
            record = b"\x00" + encode_bytes(key) + encode_bytes(value)
        align = self.align_records
        if align and len(record) > align // 2:
            # A large record owns whole alignment units: it starts on a
            # boundary (blocks start aligned, so buffer-relative padding
            # suffices) and filler (0x02, skipped by the scanner) runs to
            # the next, so its units read the same in every table.
            self._buffer += b"\x02" * (-len(self._buffer) % align)
            start, size = len(self._buffer), len(record)
            record += b"\x02" * (-size % align)
            if extent is not None and extent[2] == size:
                run = [extent[0], extent[1] - start, start, start + len(record)]
                if self._runs and self._runs[-1][:2] == run[:2] and self._runs[-1][3] == start:
                    self._runs[-1][3] = run[3]
                else:
                    self._runs.append(run)
        if self._block_first is None:
            self._block_first = key
        self._block_last = key
        self._buffer += record
        self._entries += 1
        self._keys.append(key)
        if len(self._buffer) >= self.block_target:
            self._flush_block()

    def _flush_block(self) -> None:
        if not self._buffer:
            return
        raw = bytes(self._buffer)
        compressed = self.codec.compress(raw)
        use_compressed = len(compressed) < len(raw)
        payload = compressed if use_compressed else raw
        assert self._block_first is not None and self._block_last is not None
        self._index.append(
            (self._block_first, self._block_last, self._offset, len(payload), use_compressed)
        )
        base, written = self._offset, 0  # clones go in file order; refused ones are written
        for src, delta, start, end in self._runs:
            if start > written:
                self.fs._pwrite(self.path, base + written, payload[written:start])
                written = start
            if self.fs._clone_range(src, start + delta, self.path, base + start, end - start):
                written = end
        if written < len(payload):
            self.fs._pwrite(self.path, base + written, payload[written:])
        self._offset += len(payload)
        if self.align_records:
            # The next data block starts on an alignment boundary; the
            # gap is dead space the index never references.
            self._offset += (-self._offset) % self.align_records
        self._buffer.clear()
        self._runs.clear()
        self._block_first = None
        self._block_last = None

    def finish(self) -> int:
        """Flush the tail block, write index + bloom + footer; returns file size."""
        self._flush_block()
        index = bytearray(encode_varint(len(self._index)))
        for first, last, offset, size, compressed in self._index:
            index += encode_bytes(first)
            index += encode_bytes(last)
            index += encode_varint(offset)
            index += encode_varint(size)
            index.append(1 if compressed else 0)
        index_offset = self._offset
        self.fs._pwrite(self.path, index_offset, bytes(index))
        bloom = BloomFilter.for_capacity(len(self._keys))
        for key in self._keys:
            bloom.add(key)
        bloom_payload = bloom.serialize()
        bloom_offset = index_offset + len(index)
        self.fs._pwrite(self.path, bloom_offset, bloom_payload)
        footer = _FOOTER.pack(
            index_offset, len(index), bloom_offset, len(bloom_payload), _MAGIC
        )
        self.fs._pwrite(self.path, bloom_offset + len(bloom_payload), footer)
        return bloom_offset + len(bloom_payload) + len(footer)

    @property
    def entry_count(self) -> int:
        return self._entries


class SSTableReader:
    """Random and sequential access to one SSTable."""

    def __init__(self, fs: FileSystem, path: str, codec: Optional[Codec] = None) -> None:
        self.fs = fs
        self.path = path
        self.codec = codec if codec is not None else IdentityCodec()
        size = fs.stat(path).size
        if size < _FOOTER.size:
            raise CorruptRecord(f"{path}: too small to be an SSTable")
        footer = fs._pread(path, size - _FOOTER.size, _FOOTER.size)
        index_offset, index_size, bloom_offset, bloom_size, magic = _FOOTER.unpack(footer)
        if magic != _MAGIC:
            raise CorruptRecord(f"{path}: bad magic")
        # The writer lays index, bloom and footer end to end.
        if (
            index_offset + index_size != bloom_offset
            or bloom_offset + bloom_size != size - _FOOTER.size
        ):
            raise CorruptRecord(f"{path}: footer spans do not tile the file")
        self.bloom = BloomFilter.deserialize(fs._pread(path, bloom_offset, bloom_size))
        self.bloom_negatives = 0
        raw_index = fs._pread(path, index_offset, index_size)
        count, offset = decode_varint(raw_index, 0)
        self._blocks: list[tuple[bytes, bytes, int, int, bool]] = []
        for __ in range(count):
            first, offset = decode_bytes(raw_index, offset)
            last, offset = decode_bytes(raw_index, offset)
            block_offset, offset = decode_varint(raw_index, offset)
            block_size, offset = decode_varint(raw_index, offset)
            if offset >= index_size or block_offset + block_size > index_offset:
                raise CorruptRecord(f"{path}: index entry {len(self._blocks)} out of bounds")
            compressed = raw_index[offset] == 1
            offset += 1
            self._blocks.append((first, last, block_offset, block_size, compressed))

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def first_key(self) -> Optional[bytes]:
        return self._blocks[0][0] if self._blocks else None

    @property
    def last_key(self) -> Optional[bytes]:
        return self._blocks[-1][1] if self._blocks else None

    #: Data blocks prefetched per vectored read during a range scan.
    SCAN_BATCH = 32

    def _load_block(self, index: int) -> bytes:
        return self._load_blocks([index])[0]

    def _load_blocks(self, indices: list[int]) -> list[bytes]:
        """Fetch several data blocks in one vectored read.

        The spans come straight from the in-memory index, so a scan
        over N blocks is one ``preadv`` to the file system instead of N
        positional reads — on CompressFS that lands as one
        scatter-gather device transaction.
        """
        payloads = self.fs._preadv(
            [(self.path, self._blocks[i][2], self._blocks[i][3]) for i in indices]
        )
        return [
            self.codec.decompress(payload) if self._blocks[i][4] else payload
            for i, payload in zip(indices, payloads)
        ]

    def _block_for(self, key: bytes) -> Optional[int]:
        lo, hi = 0, len(self._blocks)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._blocks[mid][1] < key:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self._blocks) or self._blocks[lo][0] > key:
            return None
        return lo

    def get(self, key: bytes) -> tuple[bool, Optional[bytes]]:
        """Return (found, value); value is None for a tombstone.

        A negative Bloom-filter answer skips the table without any
        data-block I/O (no false negatives, so this never misses).
        """
        if key not in self.bloom:
            self.bloom_negatives += 1
            return False, None
        index = self._block_for(key)
        if index is None:
            return False, None
        for entry_key, value in self._iter_block(index):
            if entry_key == key:
                return True, value
            if entry_key > key:
                break
        return False, None

    def _iter_block(self, index: int) -> Iterator[tuple[bytes, Optional[bytes]]]:
        return self._iter_records(self._load_block(index))

    @staticmethod
    def _iter_records(data: bytes) -> Iterator[tuple[bytes, Optional[bytes]]]:
        return ((key, value) for key, value, __ in SSTableReader._iter_extents(data, None, 0))

    @staticmethod
    def _iter_extents(data: bytes, origin: Optional[int], align: Optional[int]) -> Iterator[tuple]:
        """Decode a data block at file offset ``origin`` (None: no
        extents) into ``(key, value, extent)``; ``extent``, ``(offset,
        length)``, marks a record laid out as SSTableWriter would: on an
        ``align`` boundary with only filler up to the next, in the block."""
        offset = 0
        while offset < len(data):
            flag = data[offset]
            if flag == 2:  # alignment filler: skip the whole run at once
                offset = _FILLER_RUN.match(data, offset).end()
                continue
            start = offset
            key, offset = decode_bytes(data, offset + 1)
            value = None
            if flag != 1:
                value, offset = decode_bytes(data, offset)
            extent = None
            if origin is not None and align and flag < 2 and (origin + start) % align == 0:
                boundary = offset + (-(origin + offset) % align)
                if _FILLER_RUN.match(data, offset, boundary).end() == boundary:
                    extent = (origin + start, offset - start)
            yield key, value, extent

    def iterate(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """All entries in key order within [start, end)."""
        first_block = 0
        if start is not None:
            candidate = self._block_for(start)
            if candidate is None:
                # start may fall in a gap: find the first block after it
                lo = 0
                while lo < len(self._blocks) and self._blocks[lo][1] < start:
                    lo += 1
                first_block = lo
            else:
                first_block = candidate
        last_block = len(self._blocks)
        if end is not None:
            # Exclude blocks whose first key is already past the range.
            while last_block > first_block and self._blocks[last_block - 1][0] >= end:
                last_block -= 1
        for __, data in self._scan(first_block, last_block):
            for key, value in self._iter_records(data):
                if start is not None and key < start:
                    continue
                if end is not None and key >= end:
                    return
                yield key, value

    def iterate_extents(self, align: Optional[int]) -> Iterator[tuple]:
        """Every entry as ``(key, value, extent)`` (see :meth:`_iter_extents`)."""
        for index, data in self._scan(0, len(self._blocks)):
            origin, __, compressed = self._blocks[index][2:]
            yield from self._iter_extents(data, None if compressed else origin, align)

    def _scan(self, first: int, last: int) -> Iterator[tuple[int, bytes]]:
        # Prefetch the scan in vectored batches: SCAN_BATCH blocks per
        # preadv keeps memory bounded while a long scan still pays one
        # device seek per batch rather than one per block.
        for batch_start in range(first, last, self.SCAN_BATCH):
            indices = list(range(batch_start, min(batch_start + self.SCAN_BATCH, last)))
            yield from zip(indices, self._load_blocks(indices))
