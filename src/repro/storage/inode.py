"""Inodes with a bounded-depth pointer tree and hole-aware slots.

This is the *rule level* and *DAG level* of the paper's design
(Section 3): except for the leaves, the nodes are organised as a tree
in which every node has exactly one parent, and only leaves hold data
blocks.  Concretely an :class:`Inode` points at a flat sequence of
:class:`PointerPage` nodes (the "indirect rules"), each of which holds
up to ``page_capacity`` :class:`Slot` entries referencing data blocks
(the leaves).  The depth of this organisation is therefore a constant
2, which is what turns TADOC's O(n^d) recursive rule split into the
paper's O(d) parent update.

The *element level* novelty — data holes — lives in the slots: a slot
stores how many bytes at the front of its block are valid (``used``);
the remainder of the block is a hole created by an unaligned insert or
delete (Section 4.4).  The logical byte stream of a file is the
concatenation of ``block[:used]`` over its slots.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Optional

from repro.storage.block_device import BlockDevice


class InodeError(Exception):
    """Raised on out-of-range slot or offset accesses."""


#: The five slot mutators as delta-record operations: code -> number of
#: integer arguments.  An inode records ``(code, *args)`` per mutation
#: since its last durable commit; :meth:`Inode.apply_op` redoes one.
OP_APPEND, OP_INSERT, OP_REMOVE, OP_REPLACE, OP_SET_USED = range(5)
OP_ARITY = {OP_APPEND: 2, OP_INSERT: 3, OP_REMOVE: 1, OP_REPLACE: 3, OP_SET_USED: 2}


@dataclass
class Slot:
    """One leaf pointer: a data block and how many of its bytes are valid."""

    block_no: int
    used: int

    def hole_size(self, block_size: int) -> int:
        """Bytes of hole at the end of this block."""
        return block_size - self.used


class PointerPage:
    """An indirect node holding up to ``capacity`` leaf pointers.

    ``byte_count`` is kept by the inode's mutators; ``running`` caches
    the running ``used`` totals until the page next changes (None).
    """

    __slots__ = ("entries", "byte_count", "running")

    def __init__(self, entries: Optional[list[Slot]] = None) -> None:
        self.entries: list[Slot] = entries if entries is not None else []
        self.byte_count = sum(slot.used for slot in self.entries)
        self.running: Optional[list[int]] = None

    def running_used(self) -> list[int]:
        """Bytes up to and including each slot of this page."""
        if self.running is None:
            self.running = list(accumulate(slot.used for slot in self.entries))
        return self.running

    def __len__(self) -> int:
        return len(self.entries)


class Inode:
    """File metadata: size, pointer pages, and hole accounting.

    The inode maintains lazy prefix-sum indexes over its pages so that
    ``locate(offset)`` is a binary search over pages plus one over the
    page's running totals.  A mutation marks the prefix sums stale from
    its page on; the next read recomputes only that suffix.
    """

    def __init__(
        self,
        block_size: int,
        page_capacity: int = 256,
        device: Optional[BlockDevice] = None,
    ) -> None:
        if page_capacity < 2:
            raise ValueError("page_capacity must be at least 2")
        self.block_size = block_size
        self.page_capacity = page_capacity
        self._device = device
        self._pages: list[PointerPage] = []
        self._size = 0
        self._hole_bytes = 0
        self._hole_slots = 0
        self._cum_bytes: list[int] = []
        self._cum_slots: list[int] = []
        self._num_slots = 0
        # First page whose prefix sums are stale; None when all are fresh.
        self._stale_from: Optional[int] = 0
        # Slot operations since the last durable commit, for the delta
        # record of the next one.  None means "log the whole table": a
        # new inode has no durable predecessor to apply operations to.
        self._ops: Optional[list[tuple[int, ...]]] = None

    # -- basic properties ----------------------------------------------
    @property
    def size(self) -> int:
        """Logical file size in bytes (holes excluded)."""
        return self._size

    @property
    def num_slots(self) -> int:
        return self._num_slots

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def depth(self) -> int:
        """Depth of the pointer organisation: constant, per the paper."""
        return 2 if self._pages else 1

    @property
    def hole_bytes(self) -> int:
        """Total bytes of holes across all slots (blockHole payload)."""
        return self._hole_bytes

    @property
    def hole_slots(self) -> int:
        """Number of slots that currently carry a hole."""
        return self._hole_slots

    # -- index maintenance ----------------------------------------------
    def _changed(self, page_i: int) -> None:
        """Page ``page_i`` changed: its prefix sums and all later ones are stale."""
        if self._stale_from is None or page_i < self._stale_from:
            self._stale_from = page_i
        if page_i < len(self._pages):
            self._pages[page_i].running = None

    def _ensure_index(self) -> None:
        start = self._stale_from
        if start is None:
            return
        del self._cum_bytes[start:]
        del self._cum_slots[start:]
        bytes_total = self._cum_bytes[-1] if start else 0
        slots_total = self._cum_slots[-1] if start else 0
        for page in self._pages[start:]:
            bytes_total += page.byte_count
            slots_total += len(page)
            self._cum_bytes.append(bytes_total)
            self._cum_slots.append(slots_total)
        self._stale_from = None

    def _charge_metadata(self, write: bool) -> None:
        # Only mutations are charged: pointer pages are small and hot,
        # so read paths serve them from memory (like a cached inode),
        # while updates must eventually reach the device.
        if self._device is not None and write:
            self._device.charge_metadata_access(write=True)

    # -- slot addressing --------------------------------------------------
    def _page_for_slot(self, index: int) -> tuple[int, int]:
        """Map a global slot index to (page index, index within page)."""
        if index < 0:
            raise InodeError(f"negative slot index {index}")
        self._ensure_index()
        page_i = bisect.bisect_right(self._cum_slots, index)
        if page_i >= len(self._pages):
            raise InodeError(f"slot {index} out of range ({self.num_slots} slots)")
        prev = self._cum_slots[page_i - 1] if page_i > 0 else 0
        return page_i, index - prev

    def slot_at(self, index: int) -> Slot:
        page_i, entry_i = self._page_for_slot(index)
        self._charge_metadata(write=False)
        return self._pages[page_i].entries[entry_i]

    def iter_slots(self, start: int = 0) -> Iterator[Slot]:
        """Iterate slots from global index ``start`` onward."""
        if self.num_slots == 0 or start >= self.num_slots:
            return
        page_i, entry_i = self._page_for_slot(start)
        self._charge_metadata(write=False)
        for pi in range(page_i, len(self._pages)):
            entries = self._pages[pi].entries
            first = entry_i if pi == page_i else 0
            for slot in entries[first:]:
                yield slot

    def locate(self, offset: int) -> tuple[int, int]:
        """Map a logical byte offset to ``(slot index, offset in slot)``.

        ``offset == size`` maps to ``(num_slots, 0)`` so that append
        positions are addressable; larger offsets raise.
        """
        if offset < 0 or offset > self._size:
            raise InodeError(f"offset {offset} out of range [0, {self._size}]")
        if offset == self._size:
            return self.num_slots, 0
        self._ensure_index()
        page_i = bisect.bisect_right(self._cum_bytes, offset)
        prev_bytes = self._cum_bytes[page_i - 1] if page_i > 0 else 0
        prev_slots = self._cum_slots[page_i - 1] if page_i > 0 else 0
        within = offset - prev_bytes
        self._charge_metadata(write=False)
        running = self._pages[page_i].running_used()
        entry_i = bisect.bisect_right(running, within)
        if entry_i == len(running):
            # Only reachable if the page byte counts are inconsistent.
            raise InodeError(f"offset {offset}: index out of sync")  # pragma: no cover
        return prev_slots + entry_i, within - (running[entry_i - 1] if entry_i else 0)

    def offset_of_slot(self, index: int) -> int:
        """Logical byte offset at which slot ``index`` begins."""
        if index == self.num_slots:
            return self._size
        page_i, entry_i = self._page_for_slot(index)
        offset = self._cum_bytes[page_i - 1] if page_i > 0 else 0
        if entry_i:
            offset += self._pages[page_i].running_used()[entry_i - 1]
        return offset

    # -- change tracking ---------------------------------------------------
    @property
    def dirty(self) -> bool:
        """Whether the slot table differs from its last durable commit."""
        return self._ops is None or bool(self._ops)

    def delta_ops(self) -> Optional[list[tuple[int, ...]]]:
        """Operations recorded since :meth:`mark_clean`; None = whole."""
        return self._ops

    def mark_clean(self) -> None:
        """The current slot table is durable: start recording against it."""
        self._ops = []

    def mark_whole(self) -> None:
        """Log the whole table next time (the inode changed identity)."""
        self._ops = None

    def _record(self, *op: int) -> None:
        """Note one mutation; callers check ``_ops is not None`` first so
        an inode that is logged whole anyway pays nothing per mutation."""
        ops = self._ops
        ops.append(op)
        # An operation encodes no smaller than a slot, so a list longer
        # than the table costs more than the table itself.
        if len(ops) > self.num_slots:
            self._ops = None

    def apply_op(self, code: int, *args: int) -> None:
        """Redo one recorded operation (delta replay at mount)."""
        if code == OP_APPEND:
            self.append_slot(Slot(*args))
        elif code == OP_INSERT:
            self.insert_slot(args[0], Slot(*args[1:]))
        elif code == OP_REMOVE:
            self.remove_slot(*args)
        elif code == OP_REPLACE:
            self.replace_slot(args[0], Slot(*args[1:]))
        elif code == OP_SET_USED:
            self.set_used(*args)
        else:
            raise InodeError(f"unknown slot operation {code}")

    # -- mutation ----------------------------------------------------------
    def _account_add(self, slot: Slot) -> None:
        self._size += slot.used
        hole = slot.hole_size(self.block_size)
        if hole > 0:
            self._hole_bytes += hole
            self._hole_slots += 1

    def _account_remove(self, slot: Slot) -> None:
        self._size -= slot.used
        hole = slot.hole_size(self.block_size)
        if hole > 0:
            self._hole_bytes -= hole
            self._hole_slots -= 1

    def insert_slot(self, index: int, slot: Slot) -> None:
        """Insert a leaf pointer before global slot ``index``."""
        if not 0 <= slot.used <= self.block_size:
            raise InodeError(f"slot used {slot.used} out of range")
        at_end = index == self._num_slots
        if at_end:
            if not self._pages or len(self._pages[-1]) >= self.page_capacity:
                self._pages.append(PointerPage())
            page_i = len(self._pages) - 1
            page = self._pages[page_i]
            page.entries.append(slot)
        else:
            page_i, entry_i = self._page_for_slot(index)
            page = self._pages[page_i]
            page.entries.insert(entry_i, slot)
        page.byte_count += slot.used
        self._num_slots += 1
        self._changed(page_i)
        if len(page) > self.page_capacity:
            self._split_page(page_i)
        self._account_add(slot)
        self._charge_metadata(write=True)
        if self._ops is not None:
            if at_end:
                self._record(OP_APPEND, slot.block_no, slot.used)
            else:
                self._record(OP_INSERT, index, slot.block_no, slot.used)

    def append_slot(self, slot: Slot) -> None:
        self.insert_slot(self.num_slots, slot)

    def remove_slot(self, index: int) -> Slot:
        """Remove and return the leaf pointer at global slot ``index``."""
        page_i, entry_i = self._page_for_slot(index)
        page = self._pages[page_i]
        slot = page.entries.pop(entry_i)
        page.byte_count -= slot.used
        if not page.entries:
            self._pages.pop(page_i)
        self._num_slots -= 1
        self._changed(page_i)
        self._account_remove(slot)
        self._charge_metadata(write=True)
        if self._ops is not None:
            self._record(OP_REMOVE, index)
        return slot

    def replace_slot(self, index: int, slot: Slot) -> Slot:
        """Swap the leaf pointer at ``index`` for ``slot``; return the old one."""
        if not 0 <= slot.used <= self.block_size:
            raise InodeError(f"slot used {slot.used} out of range")
        page_i, entry_i = self._page_for_slot(index)
        page = self._pages[page_i]
        old = page.entries[entry_i]
        page.entries[entry_i] = slot
        page.byte_count += slot.used - old.used
        self._changed(page_i)
        self._account_remove(old)
        self._account_add(slot)
        self._charge_metadata(write=True)
        if self._ops is not None:
            self._record(OP_REPLACE, index, slot.block_no, slot.used)
        return old

    def set_used(self, index: int, used: int) -> None:
        """Change the valid-byte count of slot ``index`` (hole resize)."""
        if not 0 <= used <= self.block_size:
            raise InodeError(f"used {used} out of range")
        page_i, entry_i = self._page_for_slot(index)
        page = self._pages[page_i]
        slot = page.entries[entry_i]
        self._account_remove(slot)
        page.byte_count += used - slot.used
        slot.used = used
        self._changed(page_i)
        self._account_add(slot)
        self._charge_metadata(write=True)
        if self._ops is not None:
            self._record(OP_SET_USED, index, used)

    def _split_page(self, page_i: int) -> None:
        """Split an over-full pointer page in two (depth stays constant)."""
        page = self._pages[page_i]
        half = len(page) // 2
        right = PointerPage(page.entries[half:])
        page.entries = page.entries[:half]
        page.byte_count -= right.byte_count
        self._pages.insert(page_i + 1, right)
        self._charge_metadata(write=True)

    # -- inspection ---------------------------------------------------------
    def all_block_numbers(self) -> list[int]:
        """Block numbers of every leaf, in logical order (with repeats)."""
        return [slot.block_no for slot in self.iter_slots()]

    def check_invariants(self) -> None:
        """Verify internal accounting; used by property tests."""
        size = 0
        hole_bytes = 0
        hole_slots = 0
        cum_bytes: list[int] = []
        cum_slots: list[int] = []
        for page in self._pages:
            if not page.entries:
                raise AssertionError("empty pointer page retained")
            if len(page) > self.page_capacity:
                raise AssertionError("pointer page exceeds capacity")
            running = list(accumulate(slot.used for slot in page.entries))
            if page.byte_count != running[-1]:
                raise AssertionError(f"page byte count {page.byte_count} != {running[-1]}")
            if page.running is not None and page.running != running:
                raise AssertionError("stale running totals on a pointer page")
            cum_bytes.append(size + running[-1])
            cum_slots.append((cum_slots[-1] if cum_slots else 0) + len(page))
            for slot in page.entries:
                size += slot.used
                hole = slot.hole_size(self.block_size)
                if hole > 0:
                    hole_bytes += hole
                    hole_slots += 1
        if size != self._size:
            raise AssertionError(f"size mismatch: {size} != {self._size}")
        if self._num_slots != (cum_slots[-1] if cum_slots else 0):
            raise AssertionError(f"slot counter {self._num_slots} is stale")
        self._ensure_index()
        if (self._cum_bytes, self._cum_slots) != (cum_bytes, cum_slots):
            raise AssertionError("prefix sums differ from a recomputation")
        if hole_bytes != self._hole_bytes:
            raise AssertionError(
                f"hole bytes mismatch: {hole_bytes} != {self._hole_bytes}"
            )
        if hole_slots != self._hole_slots:
            raise AssertionError(
                f"hole slot mismatch: {hole_slots} != {self._hole_slots}"
            )
