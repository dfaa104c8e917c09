"""On-device persistence: superblock and chained metadata log.

The paper persists ``blockRefCount`` in a disk partition so compressed
data survives a remount (Section 4.2); the file-system metadata itself
(inodes) is persisted by the host file system.  This module completes
the picture for the standalone engine so a whole CompressDB instance
can be remounted from a :class:`~repro.storage.block_device.FileBlockDevice`
in a different process:

* **block 0** is the superblock — magic, version, and the head of the
  metadata chain;
* the **metadata chain** is a linked list of blocks carrying one byte
  stream: the refcount-partition block list plus the serialised inode
  table (paths, slot lists, hole boundaries);
* the device **free list** is not stored — it is reconstructed on
  mount from the set of referenced blocks.

The volatile ``blockHashTable`` is rebuilt by scanning unique blocks,
exactly as after the paper's remount.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.storage.block_device import BlockDevice
from repro.storage.inode import Inode, InodeError, Slot
from repro.varint import VarintError, read_varint, write_varint

_MAGIC = 0x434F4D5052444200  # "COMPRDB\0"
_VERSION = 4
# v4: magic, version, block size, meta chain head, journal start,
# journal length, snapshot chain head.  The block size is recorded so an
# image can never be re-opened (and silently reformatted) under a
# different geometry than it was written with; the journal region is
# fixed at format time so recovery can find it before any other
# structure is trusted; the snapshot chain head (new in v4) registers
# the serialised snapshot table of :mod:`repro.snap`.
_SUPERBLOCK = struct.Struct("<QIIQIIQ")
# v3 lacked the snapshot head; still readable (snap head = NO_BLOCK),
# and the first metadata publish rewrites the superblock as v4.
_SUPERBLOCK_V3 = struct.Struct("<QIIQII")
_READABLE_VERSIONS = (3, _VERSION)
_CHAIN_HEADER = struct.Struct("<QI")  # next block (NO_BLOCK = end), payload bytes
NO_BLOCK = 0xFFFFFFFFFFFFFFFF

SUPERBLOCK_NO = 0


class Layout(NamedTuple):
    """Decoded superblock geometry."""

    meta_head: int
    journal_start: int
    journal_len: int
    snap_head: int


class PersistenceError(Exception):
    """The device does not carry a valid CompressDB image."""


# -- metadata chain ------------------------------------------------------------

def write_chain(device: BlockDevice, payload: bytes) -> int:
    """Write a byte stream across chained blocks; returns the head."""
    chunk_size = device.block_size - _CHAIN_HEADER.size
    if chunk_size <= 0:
        raise PersistenceError("block size too small for a metadata chain")
    chunks = [payload[i : i + chunk_size] for i in range(0, len(payload), chunk_size)]
    if not chunks:
        chunks = [b""]
    blocks = [device.allocate() for __ in chunks]
    writes: list[tuple[int, bytes]] = []
    for index, chunk in enumerate(chunks):
        next_block = blocks[index + 1] if index + 1 < len(blocks) else NO_BLOCK
        writes.append(
            (blocks[index], _CHAIN_HEADER.pack(next_block, len(chunk)) + chunk)
        )
    device.write_blocks(writes)
    return blocks[0]


def read_chain(device: BlockDevice, head: int) -> tuple[bytes, list[int]]:
    """Read a chained byte stream; returns (payload, chain block list)."""
    parts: list[bytes] = []
    blocks: list[int] = []
    current = head
    while current != NO_BLOCK:
        blocks.append(current)
        raw = device.read_block(current)  # reprolint: disable=IO001 -- pointer chase: each next-block number lives inside the previous block, so the reads are sequentially dependent and cannot be batched
        next_block, length = _CHAIN_HEADER.unpack_from(raw, 0)
        parts.append(raw[_CHAIN_HEADER.size : _CHAIN_HEADER.size + length])
        current = next_block
        if len(blocks) > device.total_blocks:
            raise PersistenceError("metadata chain cycle detected")
    return b"".join(parts), blocks


# -- image serialisation ----------------------------------------------------------

def serialize_metadata(
    inodes: dict[str, Inode], partition_blocks: list[int]
) -> bytes:
    """Pack the namespace, slot tables, and refcount-partition pointers."""
    out = bytearray()
    write_varint(out, len(partition_blocks))
    for block_no in partition_blocks:
        write_varint(out, block_no)
    write_varint(out, len(inodes))
    for path in sorted(inodes):
        raw_path = path.encode("utf-8")
        write_varint(out, len(raw_path))
        out += raw_path
        inode = inodes[path]
        write_varint(out, inode.num_slots)
        for slot in inode.iter_slots():
            write_varint(out, slot.block_no)
            write_varint(out, slot.used)
    return bytes(out)


def deserialize_metadata(
    payload: bytes,
    block_size: int,
    page_capacity: int,
    device: BlockDevice,
) -> tuple[dict[str, Inode], list[int]]:
    """Invert :func:`serialize_metadata`; a malformed payload raises
    :class:`PersistenceError`, never a stray builtin."""
    try:
        offset = 0
        count, offset = read_varint(payload, offset)
        partition_blocks = []
        for __ in range(count):
            block_no, offset = read_varint(payload, offset)
            partition_blocks.append(block_no)
        file_count, offset = read_varint(payload, offset)
        inodes: dict[str, Inode] = {}
        for __ in range(file_count):
            path_len, offset = read_varint(payload, offset)
            if offset + path_len > len(payload):
                raise PersistenceError("metadata image: path runs past the end")
            path = payload[offset : offset + path_len].decode("utf-8")
            offset += path_len
            slot_count, offset = read_varint(payload, offset)
            inode = Inode(block_size=block_size, page_capacity=page_capacity, device=device)
            for __slot in range(slot_count):
                block_no, offset = read_varint(payload, offset)
                used, offset = read_varint(payload, offset)
                inode.append_slot(Slot(block_no=block_no, used=used))
            inodes[path] = inode
    except (VarintError, UnicodeDecodeError, InodeError) as exc:
        raise PersistenceError(f"corrupt metadata image: {exc}") from exc
    return inodes, partition_blocks


# -- superblock ------------------------------------------------------------------------

def format_device(device: BlockDevice, journal_blocks: int = 0) -> None:
    """Initialise a fresh device: claim block 0 plus the journal region.

    ``journal_blocks`` contiguous blocks immediately after the
    superblock are reserved for the write-ahead journal; 0 formats an
    unjournaled image (the pre-v3 behaviour).
    """
    block_no = device.allocate()
    if block_no != SUPERBLOCK_NO:
        raise PersistenceError(
            f"superblock must be block 0, device handed out {block_no}"
        )
    journal_start = SUPERBLOCK_NO + 1
    for index in range(journal_blocks):
        claimed = device.allocate()
        if claimed != journal_start + index:
            raise PersistenceError(
                f"journal region must be contiguous after the superblock, "
                f"device handed out {claimed}"
            )
    device.write_block(
        SUPERBLOCK_NO,
        _SUPERBLOCK.pack(
            _MAGIC,
            _VERSION,
            device.block_size,
            NO_BLOCK,
            journal_start if journal_blocks else 0,
            journal_blocks,
            NO_BLOCK,
        ),
    )


def is_formatted(device: BlockDevice) -> bool:
    if device.total_blocks == 0:
        return False
    try:
        magic, version, __, __, __, __ = _SUPERBLOCK_V3.unpack_from(
            device.read_block(SUPERBLOCK_NO), 0
        )
    except struct.error:  # pragma: no cover - blocks are fixed-size
        return False
    return magic == _MAGIC and version in _READABLE_VERSIONS


def read_layout(device: BlockDevice) -> Layout:
    """Validate the superblock; returns the decoded :class:`Layout`."""
    if not is_formatted(device):
        raise PersistenceError("device carries no CompressDB superblock")
    raw = device.read_block(SUPERBLOCK_NO)
    __, version, __, __, __, __ = _SUPERBLOCK_V3.unpack_from(raw, 0)
    if version == _VERSION:
        (
            __,
            __,
            block_size,
            head,
            journal_start,
            journal_len,
            snap_head,
        ) = _SUPERBLOCK.unpack_from(raw, 0)
    else:
        # v3 image: no snapshot table exists yet.
        __, __, block_size, head, journal_start, journal_len = (
            _SUPERBLOCK_V3.unpack_from(raw, 0)
        )
        snap_head = NO_BLOCK
    if block_size != device.block_size:
        raise PersistenceError(
            f"image was written with {block_size}-byte blocks but the "
            f"device is using {device.block_size}-byte blocks"
        )
    return Layout(head, journal_start, journal_len, snap_head)


def read_superblock(device: BlockDevice) -> int:
    """Validate the superblock; returns the metadata chain head."""
    return read_layout(device).meta_head


def update_superblock(
    device: BlockDevice, meta_head: int, snap_head: int | None = None
) -> None:
    # Re-read the current superblock so the journal geometry fixed at
    # format time survives every metadata publish.  ``snap_head=None``
    # preserves the recorded snapshot chain; the write is always the v4
    # layout, which is how a v3 image migrates on its first publish.
    layout = read_layout(device)
    device.write_block(
        SUPERBLOCK_NO,
        _SUPERBLOCK.pack(
            _MAGIC,
            _VERSION,
            device.block_size,
            meta_head,
            layout.journal_start,
            layout.journal_len,
            layout.snap_head if snap_head is None else snap_head,
        ),
    )


def probe_block_size(path: str) -> int | None:
    """Read the block size recorded in an image file's superblock.

    Returns ``None`` when the file does not start with a valid
    CompressDB superblock (fresh file, foreign data, older layout).
    Works on the raw file, so callers can learn the right geometry
    *before* constructing a block device.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read(_SUPERBLOCK.size)
    except OSError:
        return None
    if len(raw) < _SUPERBLOCK_V3.size:
        return None
    magic, version, block_size, __, __, __ = _SUPERBLOCK_V3.unpack_from(raw, 0)
    if magic != _MAGIC or version not in _READABLE_VERSIONS or block_size <= 0:
        return None
    return block_size
