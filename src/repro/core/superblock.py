"""On-device persistence: superblock, chained metadata image, delta records.

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
  mount from the set of referenced blocks;
* a **delta record** (:func:`serialize_delta` / :func:`apply_delta`)
  says what one sync point changed relative to the one before — paths
  unlinked, the slot operations (or whole slot table) of each dirty
  inode, the absolute count of each block whose refcount moved.  The
  journal carries it as a batch's logical record; mount applies the
  records newer than the image (``checkpoint_lsn``) on top of it.

The volatile ``blockHashTable`` is rebuilt by scanning unique blocks,
exactly as after the paper's remount.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, Mapping, NamedTuple

from repro.storage.block_device import BlockDevice
from repro.storage.inode import OP_ARITY, Inode, InodeError, Slot
from repro.varint import VarintError, read_varint, write_varint

_MAGIC = 0x434F4D5052444200  # "COMPRDB\0"
_VERSION = 5
# v5: magic, version, block size, meta chain head, journal start,
# journal length, snapshot chain head, checkpoint LSN.  The block size
# is recorded so an image can never be re-opened (and silently
# reformatted) under a different geometry than it was written with; the
# journal region is fixed at format time so recovery can find it before
# any other structure is trusted; the snapshot chain head (v4) registers
# the serialised snapshot table of :mod:`repro.snap`; the checkpoint LSN
# (v5) is the LSN of the journal batch that published this image — the
# log's records with a higher LSN are what changed since.
_SUPERBLOCK = struct.Struct("<QIIQIIQQ")
# v4 lacked the checkpoint LSN and v3 the snapshot head as well; both
# still read (checkpoint LSN 0, snap head = NO_BLOCK), and the first
# checkpoint rewrites the superblock as v5.
_SUPERBLOCK_V4 = struct.Struct("<QIIQIIQ")
_SUPERBLOCK_V3 = struct.Struct("<QIIQII")
_READABLE_VERSIONS = (3, 4, _VERSION)
_CHAIN_HEADER = struct.Struct("<QI")  # next block (NO_BLOCK = end), payload bytes
NO_BLOCK = 0xFFFFFFFFFFFFFFFF

SUPERBLOCK_NO = 0


class Layout(NamedTuple):
    """Decoded superblock geometry."""

    meta_head: int
    journal_start: int
    journal_len: int
    snap_head: int
    checkpoint_lsn: int


class PersistenceError(Exception):
    """The device does not carry a valid CompressDB image."""


# -- metadata chain ------------------------------------------------------------

def write_chain(device: BlockDevice, payload: bytes) -> tuple[int, list[int]]:
    """Write a byte stream across chained blocks; returns the head and
    the chain's block list (what :func:`read_chain` would walk)."""
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
    return blocks[0], blocks


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

def _write_path(out: bytearray, path: str) -> None:
    raw_path = path.encode("utf-8")
    write_varint(out, len(raw_path))
    out += raw_path


def _read_path(payload: bytes, offset: int) -> tuple[str, int]:
    path_len, offset = read_varint(payload, offset)
    if offset + path_len > len(payload):
        raise PersistenceError("path runs past the end of the payload")
    return payload[offset : offset + path_len].decode("utf-8"), offset + path_len


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
        _write_path(out, path)
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
            path, offset = _read_path(payload, offset)
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


# -- delta records ----------------------------------------------------------------

_WHOLE, _OPS = 0, 1  # how a dirty inode is logged


def serialize_delta(
    unlinked: Iterable[str], dirty: Mapping[str, Inode], counts: Mapping[int, int]
) -> bytes:
    """Pack what one sync point changed; b"" when nothing did.

    ``unlinked`` are paths that left the namespace, ``dirty`` the inodes
    that changed — each logged as the slot operations it recorded, or
    whole when it has no durable predecessor to apply them to (or the
    list outgrew it) — and ``counts`` the *absolute* durable refcount of
    every block whose count moved (0 = no longer referenced), so
    applying a record twice is harmless.
    """
    if not (unlinked or dirty or counts):
        return b""
    out = bytearray()
    gone = sorted(unlinked)
    write_varint(out, len(gone))
    for path in gone:
        _write_path(out, path)
    write_varint(out, len(dirty))
    for path in sorted(dirty):
        _write_path(out, path)
        inode = dirty[path]
        ops = inode.delta_ops()
        if ops is None:
            write_varint(out, _WHOLE)
            write_varint(out, inode.num_slots)
            for slot in inode.iter_slots():
                write_varint(out, slot.block_no)
                write_varint(out, slot.used)
        else:
            write_varint(out, _OPS)
            write_varint(out, len(ops))
            for op in ops:
                for value in op:
                    write_varint(out, value)
    write_varint(out, len(counts))
    for block_no in sorted(counts):
        write_varint(out, block_no)
        write_varint(out, counts[block_no])
    return bytes(out)


def apply_delta(
    payload: bytes,
    inodes: dict[str, Inode],
    set_count: Callable[[int, int], None],
    new_inode: Callable[[], Inode],
) -> None:
    """Redo one :func:`serialize_delta` record on ``inodes`` and, through
    ``set_count(block_no, count)``, on the refcounts.

    ``payload`` may carry the zero padding of the journal blocks it rode
    in.  Anything else that does not decode — or names a path, slot or
    operation the state it is applied to does not have — raises
    :class:`PersistenceError`, never a stray builtin.
    """
    try:
        offset = 0
        gone, offset = read_varint(payload, offset)
        for __ in range(gone):
            path, offset = _read_path(payload, offset)
            inodes.pop(path, None)
        dirty, offset = read_varint(payload, offset)
        for __ in range(dirty):
            path, offset = _read_path(payload, offset)
            kind, offset = read_varint(payload, offset)
            count, offset = read_varint(payload, offset)
            if kind == _WHOLE:
                inode = inodes[path] = new_inode()
                for __slot in range(count):
                    block_no, offset = read_varint(payload, offset)
                    used, offset = read_varint(payload, offset)
                    inode.append_slot(Slot(block_no=block_no, used=used))
            elif kind == _OPS and path in inodes:
                inode = inodes[path]
                for __op in range(count):
                    code, offset = read_varint(payload, offset)
                    arity = OP_ARITY.get(code)
                    if arity is None:
                        raise PersistenceError(f"delta record: unknown slot op {code}")
                    args = []
                    for __arg in range(arity):
                        value, offset = read_varint(payload, offset)
                        args.append(value)
                    inode.apply_op(code, *args)
            else:
                raise PersistenceError(
                    f"delta record: cannot apply kind {kind} to {path!r}"
                )
        changed, offset = read_varint(payload, offset)
        for __ in range(changed):
            block_no, offset = read_varint(payload, offset)
            count, offset = read_varint(payload, offset)
            set_count(block_no, count)
    except (VarintError, UnicodeDecodeError, InodeError) as exc:
        raise PersistenceError(f"corrupt delta record: {exc}") from exc
    if payload[offset:].strip(b"\x00"):
        raise PersistenceError("delta record: bytes after the last entry")


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
    write_superblock(
        device,
        Layout(
            meta_head=NO_BLOCK,
            journal_start=journal_start if journal_blocks else 0,
            journal_len=journal_blocks,
            snap_head=NO_BLOCK,
            checkpoint_lsn=0,
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
    __, version, block_size, head, journal_start, journal_len = (
        _SUPERBLOCK_V3.unpack_from(raw, 0)
    )
    # Older images: no snapshot table (v3), no checkpoint stamp (v3, v4).
    snap_head, checkpoint_lsn = NO_BLOCK, 0
    if version == _VERSION:
        snap_head, checkpoint_lsn = _SUPERBLOCK.unpack_from(raw, 0)[6:]
    elif version == 4:
        snap_head = _SUPERBLOCK_V4.unpack_from(raw, 0)[6]
    if block_size != device.block_size:
        raise PersistenceError(
            f"image was written with {block_size}-byte blocks but the "
            f"device is using {device.block_size}-byte blocks"
        )
    return Layout(head, journal_start, journal_len, snap_head, checkpoint_lsn)


def read_superblock(device: BlockDevice) -> int:
    """Validate the superblock; returns the metadata chain head."""
    return read_layout(device).meta_head


def write_superblock(device: BlockDevice, layout: Layout) -> None:
    """Write ``layout`` as block 0 — always the current version, which
    is how a v3 or v4 image migrates at its first checkpoint."""
    device.write_block(
        SUPERBLOCK_NO,
        _SUPERBLOCK.pack(
            _MAGIC,
            _VERSION,
            device.block_size,
            layout.meta_head,
            layout.journal_start,
            layout.journal_len,
            layout.snap_head,
            layout.checkpoint_lsn,
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
