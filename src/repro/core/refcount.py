"""blockRefCount: per-block reference counts with a persistent partition.

Section 4.2: *"the data structure blockRefCount is usually the largest
one ... we allocate a partition on disk to store all the reference
counts so that the compressed data will not be destroyed in practice
even after a remount (unmount and mount) or failure of file system."*

Counts live in a dict for fast access; :meth:`persist` serialises them
into blocks allocated from the device, and :meth:`restore` reloads them
after a simulated remount.  The compressed data (shared leaf blocks)
therefore survives the loss of the in-memory blockHashTable.
"""

from __future__ import annotations

import struct

from repro.storage.block_device import BlockDevice

#: On-disk entry layout: block number (u64) + count (u32).
_ENTRY = struct.Struct("<QI")
_HEADER = struct.Struct("<I")  # number of entries in this partition block


class RefcountUnderflowError(ValueError):
    """``decref`` of a block whose reference count is already zero.

    A dedicated type (raised identically whether the count lives in the
    cache dict or was just restored from the persisted partition) so
    callers can distinguish a genuine accounting bug from the generic
    argument errors ``ValueError`` also covers.  Subclasses
    ``ValueError`` for backward compatibility with existing handlers.
    """


class BlockRefCount:
    """Reference counts for data blocks, persistable to the device.

    Two layers share one ``get()`` surface:

    * **durable counts** — references held by inode slot tables and
      snapshots; serialised into the on-device partition by
      :meth:`persist`;
    * **pins** — transient references held by MVCC session snapshots
      (:mod:`repro.mvcc`).  Pins keep a block alive and force the
      copy-on-write path (``get() > 1``), but they are memory-only:
      :meth:`persist` deliberately excludes them, so a crash or remount
      — where every session dies — recovers to an image whose counts
      match exactly the durable references, and fsck stays clean.

    Every block whose *durable* count moved since :meth:`mark_clean` is
    remembered, so a sync point can log just those counts
    (:meth:`dirty_counts`) instead of rewriting the partition; pins are
    excluded from that set exactly as :meth:`persist` excludes them.
    """

    def __init__(self, device: BlockDevice) -> None:
        self._device = device
        self._counts: dict[int, int] = {}
        self._pins: dict[int, int] = {}
        self._dirty: set[int] = set()
        self._partition_blocks: list[int] = []

    # -- in-memory operations ---------------------------------------------
    def get(self, block_no: int) -> int:
        """Durable references plus transient pins — the liveness test."""
        return self._counts.get(block_no, 0) + self._pins.get(block_no, 0)

    def incref(self, block_no: int) -> int:
        count = self._counts.get(block_no, 0) + 1
        self._counts[block_no] = count
        self._dirty.add(block_no)
        return count + self._pins.get(block_no, 0)

    def decref(self, block_no: int) -> int:
        """Drop one durable reference; returns the combined remainder.

        Underflow is judged on the durable layer alone (pins are not
        droppable through ``decref``), but the return value includes
        pins so a pinned block never reads as free.
        """
        count = self._counts.get(block_no, 0)
        if count <= 0:
            raise RefcountUnderflowError(
                f"decref of unreferenced block {block_no}"
            )
        count -= 1
        if count == 0:
            del self._counts[block_no]
        else:
            self._counts[block_no] = count
        self._dirty.add(block_no)
        return count + self._pins.get(block_no, 0)

    # -- transient pins (MVCC snapshot references) --------------------------
    def pin(self, block_no: int) -> int:
        """Take one transient pin; returns the combined count."""
        pins = self._pins.get(block_no, 0) + 1
        self._pins[block_no] = pins
        return self._counts.get(block_no, 0) + pins

    def unpin(self, block_no: int) -> int:
        """Drop one transient pin; returns the combined remainder.

        A return of 0 means the block is now orphaned (no durable
        reference either) and the caller must free it.
        """
        pins = self._pins.get(block_no, 0)
        if pins <= 0:
            raise RefcountUnderflowError(
                f"unpin of unpinned block {block_no}"
            )
        pins -= 1
        if pins == 0:
            del self._pins[block_no]
        else:
            self._pins[block_no] = pins
        return self._counts.get(block_no, 0) + pins

    def pinned_counts(self) -> dict[int, int]:
        """block_no -> transient pin count (fsck accounting)."""
        return dict(self._pins)

    def total_pins(self) -> int:
        return sum(self._pins.values())

    def set(self, block_no: int, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            self._counts.pop(block_no, None)
        else:
            self._counts[block_no] = count
        self._dirty.add(block_no)

    def dirty_counts(self) -> dict[int, int]:
        """block_no -> durable count now (0 = unreferenced), for every
        block whose durable count moved since :meth:`mark_clean`."""
        counts = self._counts
        return {block_no: counts.get(block_no, 0) for block_no in self._dirty}

    def mark_clean(self) -> None:
        """The current durable counts have been committed."""
        self._dirty.clear()

    def live_blocks(self) -> list[int]:
        """Block numbers with a positive reference count."""
        return list(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, block_no: int) -> bool:
        return block_no in self._counts

    def total_references(self) -> int:
        return sum(self._counts.values())

    def memory_bytes(self) -> int:
        """Estimated in-memory footprint (dict entries), for reporting."""
        return len(self._counts) * (_ENTRY.size + 16)

    # -- persistence ---------------------------------------------------------
    def persist(self) -> int:
        """Write all counts into a partition on the device.

        Returns the number of partition blocks used.  Previously used
        partition blocks are recycled first.
        """
        entries_per_block = (self._device.block_size - _HEADER.size) // _ENTRY.size
        if entries_per_block <= 0:
            raise ValueError("block size too small for refcount partition")
        items = sorted(self._counts.items())
        needed = max(1, -(-len(items) // entries_per_block))
        if not all(
            self._device.can_overwrite_in_place(block_no)
            for block_no in self._partition_blocks
        ):
            # The partition is part of a committed image on a journaled
            # device: shadow it — fresh blocks take the new counts with
            # direct writes, the old blocks are freed (deferred until
            # the epoch commits), and the superblock's metadata image
            # flips to the new list atomically.
            old = self._partition_blocks
            self._partition_blocks = [self._device.allocate() for __ in range(needed)]
            for block_no in old:
                self._device.free(block_no)
        while len(self._partition_blocks) < needed:
            self._partition_blocks.append(self._device.allocate())
        while len(self._partition_blocks) > needed:
            self._device.free(self._partition_blocks.pop())
        writes: list[tuple[int, bytes]] = []
        for i in range(needed):
            chunk = items[i * entries_per_block : (i + 1) * entries_per_block]
            payload = _HEADER.pack(len(chunk)) + b"".join(
                _ENTRY.pack(block_no, count) for block_no, count in chunk
            )
            writes.append((self._partition_blocks[i], payload))
        self._device.write_blocks(writes)
        return needed

    def restore(self) -> None:
        """Reload counts from the partition after a simulated remount."""
        counts: dict[int, int] = {}
        for payload in self._device.read_blocks(self._partition_blocks):
            (n_entries,) = _HEADER.unpack_from(payload, 0)
            offset = _HEADER.size
            for __ in range(n_entries):
                entry_block, count = _ENTRY.unpack_from(payload, offset)
                counts[entry_block] = count
                offset += _ENTRY.size
        self._counts = counts

    @property
    def partition_block_count(self) -> int:
        return len(self._partition_blocks)

    @property
    def partition_blocks(self) -> list[int]:
        """The device blocks currently holding the persisted counts."""
        return list(self._partition_blocks)

    def adopt_partition(self, blocks: list[int]) -> None:
        """Point at an existing partition (used when remounting a device)."""
        self._partition_blocks = list(blocks)
