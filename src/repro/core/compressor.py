"""Real-time compression module: Algorithm 1 from the paper.

Every modification of a data block goes through :meth:`Compressor.commit`,
which is the paper's block-``release`` hook (Section 4.3): the modified
content arrives in a temporary buffer, a duplicate block is searched via
blockHashTable, and either the pointer is redirected to the duplicate,
the block is updated in place (refcount 1), or a copy-on-write block is
allocated (refcount > 1).  New data (append/insert) goes through
:meth:`store`, which performs the same duplicate-or-allocate decision.

Blocks are always hashed over their full, zero-padded content so that a
block carrying a hole is "regarded as a regular block" (Section 4.4,
influence of insert on the other operations) and can still be shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.hashtable import BlockHashTable, hash_block
from repro.core.refcount import BlockRefCount
from repro.obs.metrics import CounterGroup
from repro.storage.block_device import BlockDevice
from repro.storage.inode import Inode, Slot

#: Algorithm 1 outcome counters, registered as ``engine.compressor.*``.
COMPRESSOR_FIELDS = (
    "commits",
    "stores",
    "dedup_hits",
    "in_place_updates",
    "cow_allocations",
    "fresh_allocations",
    "releases",
    "blocks_freed",
)


@dataclass
class Compressor:
    """Implements Algorithm 1 over a device, hash table, and refcounts."""

    device: BlockDevice
    hashtable: BlockHashTable
    refcount: BlockRefCount
    dedup: bool = True
    stats: CounterGroup = field(
        default_factory=lambda: CounterGroup("engine.compressor", COMPRESSOR_FIELDS)
    )

    def _pad(self, content: bytes) -> bytes:
        block_size = self.device.block_size
        if len(content) > block_size:
            raise ValueError(
                f"content of {len(content)} bytes exceeds block size {block_size}"
            )
        if len(content) < block_size:
            content = content + b"\x00" * (block_size - len(content))
        return content

    def _plan(
        self, contents: Sequence[bytes]
    ) -> tuple[list[bytes], dict[bytes, int], dict[int, bytes]]:
        """Pad every block (so an oversize one fails before any side
        effect), hash each distinct one once, and read each one's first
        same-hash candidate in one request.  ``find_duplicate`` reads on
        demand whatever this skipped — all of a batch of one."""
        blocks = [self._pad(content) for content in contents]
        hashes = {block: hash_block(block) for block in blocks} if self.dedup else {}
        if len(hashes) < 2:
            return blocks, hashes, {}
        firsts = self.hashtable.first_candidates(hashes.values())
        fetched = dict(zip(firsts, self.device.read_blocks(firsts))) if firsts else {}
        return blocks, hashes, fetched

    # -- new data ------------------------------------------------------------
    def store(self, content: bytes, used: int) -> Slot:
        """Store new data, reusing an identical live block when possible.

        Returns a slot referencing either an existing block (refcount
        incremented) or a freshly allocated one.
        """
        return self.store_many([(content, used)])[0]

    def store_many(self, pieces: Sequence[tuple[bytes, int]]) -> list[Slot]:
        """Store a run of new blocks, committing them as one batched write.

        The per-block decision is identical to :meth:`store` — dedup hit
        or fresh allocation — but the device writes for every fresh
        block are submitted together through
        :meth:`~repro.storage.block_device.BlockDevice.write_blocks`.

        Fresh blocks are not visible through blockHashTable until their
        bytes are on the device (the table verifies candidates by
        reading block contents, so registering early would let a lookup
        observe stale zeroes); duplicates *within* the batch are caught
        by a pending-content map instead, preserving full dedup.
        """
        blocks, hashes, fetched = self._plan([content for content, __ in pieces])
        slots: list[Slot] = []
        pending: dict[bytes, int] = {}
        to_write: list[tuple[int, bytes]] = []
        for padded, (__, used) in zip(blocks, pieces):  # reprolint: disable=RC001 -- each iteration publishes its reference into `slots` same-iteration, so completed items stay individually consistent; references orphaned by a mid-batch failure are repaired by fsck
            self.stats.record("stores")
            if self.dedup:
                dup = pending.get(padded)
                if dup is None:
                    dup = self.hashtable.find_duplicate(padded, hashes[padded], fetched)
                if dup is not None:
                    self.stats.record("dedup_hits")
                    self.refcount.incref(dup)
                    slots.append(Slot(block_no=dup, used=used))
                    continue
            block_no = self.device.allocate()
            to_write.append((block_no, padded))
            if self.dedup:
                pending[padded] = block_no
            self.refcount.set(block_no, 1)
            self.stats.record("fresh_allocations")
            slots.append(Slot(block_no=block_no, used=used))
        if to_write:
            with self.device.obs.tracer.span(
                "compressor.store_many", blocks=len(to_write)
            ):
                self.device.write_blocks(to_write)
            if self.dedup:
                for block_no, padded in to_write:
                    self.hashtable.add_record(block_no, padded, hashes[padded])
        return slots

    # -- Algorithm 1: modification of an existing block ------------------------
    def commit(self, inode: Inode, slot_index: int, content: bytes, used: int) -> None:
        """Apply a modification of slot ``slot_index`` to ``content``.

        ``content`` plays the role of Algorithm 1's temporary block
        ``tmp``; the slot is the pointer ``ptr``; the block it currently
        references is ``curr``.
        """
        self.commit_many(inode, [(slot_index, content, used)])

    def commit_many(
        self, inode: Inode, items: Sequence[tuple[int, bytes, int]]
    ) -> None:
        """Apply a run of block modifications as one batched device write.

        ``items`` is a sequence of ``(slot_index, content, used)``
        triples, each carrying Algorithm 1's temporary block for one
        slot.  Semantics are exactly a loop of :meth:`commit` — dedup
        hit, in-place update, or copy-on-write decided per block — but
        the device writes of every in-place update and CoW allocation
        in the run are submitted together via
        :meth:`~repro.storage.block_device.BlockDevice.write_blocks`.

        As in :meth:`store_many`, blockHashTable records for deferred
        writes are registered only after the bytes reach the device;
        until then a pending-content map answers intra-batch duplicate
        lookups, so two slots modified to identical content within one
        batch still share a single block.

        Items must reference distinct slot indexes: one batch is one
        pass over a slot run, not a replay log.
        """
        blocks, hashes, fetched = self._plan([content for __, content, __ in items])
        pending: dict[bytes, int] = {}
        to_write: list[tuple[int, bytes]] = []
        for padded, (slot_index, __, used) in zip(blocks, items):  # reprolint: disable=RC001 -- each iteration transfers its reference into the inode slot same-iteration; in-place updates cannot be rolled back, so a mid-batch failure is left to fsck rather than half-undone
            self.stats.record("commits")
            curr = inode.slot_at(slot_index)
            dup: Optional[int] = None
            if self.dedup:
                dup = pending.get(padded)
                if dup is None:
                    dup = self.hashtable.find_duplicate(padded, hashes[padded], fetched)
            if dup is not None:
                if dup == curr.block_no:
                    # Content unchanged; only the hole boundary may move.
                    if used != curr.used:
                        inode.set_used(slot_index, used)
                    continue
                # Duplicate block found: redirect the pointer to it.
                self.stats.record("dedup_hits")
                if self.refcount.get(curr.block_no) == 1:
                    self.hashtable.delete_record(curr.block_no)
                    self.refcount.decref(curr.block_no)
                    self.device.free(curr.block_no)
                    self.stats.record("blocks_freed")
                else:
                    self.refcount.decref(curr.block_no)
                self.refcount.incref(dup)
                inode.replace_slot(slot_index, Slot(block_no=dup, used=used))
                continue
            if self.refcount.get(curr.block_no) == 1 and self.device.can_overwrite_in_place(
                curr.block_no
            ):
                # Sole reference: update the block in place, renew its record.
                if self.dedup:
                    self.hashtable.delete_record(curr.block_no)
                    pending[padded] = curr.block_no
                to_write.append((curr.block_no, padded))
                if used != curr.used:
                    inode.set_used(slot_index, used)
                self.stats.record("in_place_updates")
                continue
            if self.refcount.get(curr.block_no) == 1:
                # Sole reference, but the block is part of the committed
                # image: rewriting it in place would force the old bytes
                # through the journal.  Shadow it instead — write a fresh
                # block (direct, crash-safe) and defer freeing the old
                # one to commit, so the previous image stays intact.
                if self.dedup:
                    self.hashtable.delete_record(curr.block_no)
                self.refcount.decref(curr.block_no)
                block_no = self.device.allocate()
                to_write.append((block_no, padded))
                if self.dedup:
                    pending[padded] = block_no
                self.refcount.set(block_no, 1)
                inode.replace_slot(slot_index, Slot(block_no=block_no, used=used))
                self.device.free(curr.block_no)
                self.stats.record("blocks_freed")
                self.stats.record("cow_allocations")
                continue
            # Shared block: copy on write.
            self.refcount.decref(curr.block_no)
            block_no = self.device.allocate()
            to_write.append((block_no, padded))
            if self.dedup:
                pending[padded] = block_no
            self.refcount.set(block_no, 1)
            inode.replace_slot(slot_index, Slot(block_no=block_no, used=used))
            self.stats.record("cow_allocations")
        if to_write:
            with self.device.obs.tracer.span(
                "compressor.commit_many", blocks=len(to_write)
            ):
                self.device.write_blocks(to_write)
            if self.dedup:
                for block_no, padded in to_write:
                    self.hashtable.add_record(block_no, padded, hashes[padded])

    # -- release -----------------------------------------------------------------
    def release(self, slot: Slot) -> None:
        """Drop one reference to the slot's block, freeing it at zero."""
        self.stats.record("releases")
        remaining = self.refcount.decref(slot.block_no)
        if remaining == 0:
            if self.dedup and slot.block_no in self.hashtable:
                self.hashtable.delete_record(slot.block_no)
            self.device.free(slot.block_no)
            self.stats.record("blocks_freed")

    # -- index (re)construction ---------------------------------------------------
    def rebuild_hashtable(self, inodes: Iterable[Inode]) -> int:
        """Rebuild blockHashTable by scanning every live block.

        Used after a simulated remount (the table is memory-only) and by
        the index-construction benchmark (Section 6.5).  Returns the
        number of blocks scanned.
        """
        self.hashtable.clear()
        seen: set[int] = set()
        order: list[int] = []
        for inode in inodes:
            for slot in inode.iter_slots():
                if slot.block_no in seen:
                    continue
                seen.add(slot.block_no)
                order.append(slot.block_no)
        # The scan is one scatter-gather sweep over the unique blocks.
        for content, block_no in zip(self.device.read_blocks(order), order):
            self.hashtable.add_record(block_no, content)
        return len(order)
