"""Unit tests for Algorithm 1 (the real-time compression module)."""

import random

import pytest

from repro.core import compressor as compressor_module
from repro.core import hashtable as hashtable_module
from repro.core.compressor import Compressor
from repro.core.hashtable import BlockHashTable
from repro.core.refcount import BlockRefCount
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.inode import Inode, Slot


@pytest.fixture
def setup():
    device = MemoryBlockDevice(block_size=16)
    hashtable = BlockHashTable(reader=device.read_block, length=32)
    refcount = BlockRefCount(device)
    compressor = Compressor(device=device, hashtable=hashtable, refcount=refcount)
    return device, hashtable, refcount, compressor


class TestStore:
    def test_fresh_content_allocates(self, setup):
        device, __, refcount, compressor = setup
        slot = compressor.store(b"unique-content!!", 16)
        assert refcount.get(slot.block_no) == 1
        assert device.read_block(slot.block_no) == b"unique-content!!"
        assert compressor.stats.snapshot()["fresh_allocations"] == 1

    def test_duplicate_content_shares_block(self, setup):
        __, __, refcount, compressor = setup
        first = compressor.store(b"same", 4)
        second = compressor.store(b"same", 4)
        assert first.block_no == second.block_no
        assert refcount.get(first.block_no) == 2
        assert compressor.stats.snapshot()["dedup_hits"] == 1

    def test_padding_makes_short_content_shareable(self, setup):
        """b'x' and b'x\\x00...' occupy the same padded block."""
        __, __, refcount, compressor = setup
        first = compressor.store(b"x", 1)
        second = compressor.store(b"x" + b"\x00" * 15, 16)
        assert first.block_no == second.block_no
        assert first.used == 1 and second.used == 16

    def test_oversized_content_rejected(self, setup):
        __, __, __, compressor = setup
        with pytest.raises(ValueError):
            compressor.store(b"y" * 17, 17)


class TestCommit:
    def _file_with(self, compressor, contents):
        inode = Inode(block_size=16, page_capacity=4)
        for content in contents:
            inode.append_slot(compressor.store(content, len(content)))
        return inode

    def test_in_place_update_when_sole_reference(self, setup):
        device, hashtable, refcount, compressor = setup
        inode = self._file_with(compressor, [b"old-content"])
        block = inode.slot_at(0).block_no
        compressor.commit(inode, 0, b"new-content", 11)
        assert inode.slot_at(0).block_no == block  # updated in place
        assert device.read_block(block).startswith(b"new-content")
        assert hashtable.find_duplicate(b"new-content" + b"\x00" * 5) == block
        assert compressor.stats.snapshot()["in_place_updates"] == 1

    def test_copy_on_write_when_shared(self, setup):
        device, __, refcount, compressor = setup
        inode = self._file_with(compressor, [b"shared", b"shared"])
        original = inode.slot_at(0).block_no
        compressor.commit(inode, 0, b"edited", 6)
        assert inode.slot_at(0).block_no != original
        assert refcount.get(original) == 1  # the other slot still points there
        assert compressor.stats.snapshot()["cow_allocations"] == 1

    def test_redirect_to_existing_duplicate(self, setup):
        device, __, refcount, compressor = setup
        inode = self._file_with(compressor, [b"aaa", b"bbb"])
        block_a = inode.slot_at(0).block_no
        # Rewriting slot 1's content to "aaa" should share slot 0's block.
        compressor.commit(inode, 1, b"aaa", 3)
        assert inode.slot_at(1).block_no == block_a
        assert refcount.get(block_a) == 2

    def test_redirect_frees_orphaned_block(self, setup):
        device, hashtable, refcount, compressor = setup
        inode = self._file_with(compressor, [b"aaa", b"bbb"])
        block_b = inode.slot_at(1).block_no
        compressor.commit(inode, 1, b"aaa", 3)
        assert refcount.get(block_b) == 0
        assert block_b not in hashtable
        assert compressor.stats.snapshot()["blocks_freed"] == 1

    def test_noop_commit_keeps_block(self, setup):
        device, __, __, compressor = setup
        inode = self._file_with(compressor, [b"stay"])
        block = inode.slot_at(0).block_no
        writes_before = device.stats.snapshot().block_writes
        compressor.commit(inode, 0, b"stay", 4)
        assert inode.slot_at(0).block_no == block
        assert device.stats.snapshot().block_writes == writes_before

    def test_commit_can_move_hole_boundary_only(self, setup):
        __, __, __, compressor = setup
        inode = self._file_with(compressor, [b"abcd"])
        compressor.commit(inode, 0, b"abcd", 2)  # same padded content, less used
        assert inode.slot_at(0).used == 2
        assert inode.hole_bytes == 14


class TestRelease:
    def test_release_frees_at_zero(self, setup):
        device, hashtable, refcount, compressor = setup
        slot = compressor.store(b"gone", 4)
        compressor.release(slot)
        assert refcount.get(slot.block_no) == 0
        assert slot.block_no not in hashtable

    def test_release_keeps_shared_block(self, setup):
        __, __, refcount, compressor = setup
        first = compressor.store(b"kept", 4)
        compressor.store(b"kept", 4)
        compressor.release(first)
        assert refcount.get(first.block_no) == 1


class TestRebuild:
    def test_rebuild_restores_lookup(self, setup):
        __, hashtable, __, compressor = setup
        inode = Inode(block_size=16, page_capacity=4)
        inode.append_slot(compressor.store(b"one", 3))
        inode.append_slot(compressor.store(b"two", 3))
        hashtable.clear()
        scanned = compressor.rebuild_hashtable([inode])
        assert scanned == 2
        assert hashtable.find_duplicate(b"one" + b"\x00" * 13) is not None

    def test_rebuild_scans_shared_blocks_once(self, setup):
        __, hashtable, __, compressor = setup
        inode = Inode(block_size=16, page_capacity=4)
        for __i in range(5):
            inode.append_slot(compressor.store(b"dup", 3))
        hashtable.clear()
        assert compressor.rebuild_hashtable([inode]) == 1


class TestDedupDisabled:
    def test_store_always_allocates(self):
        device = MemoryBlockDevice(block_size=16)
        compressor = Compressor(
            device=device,
            hashtable=BlockHashTable(reader=device.read_block, length=8),
            refcount=BlockRefCount(device),
            dedup=False,
        )
        first = compressor.store(b"same", 4)
        second = compressor.store(b"same", 4)
        assert first.block_no != second.block_no
        assert compressor.stats.snapshot()["dedup_hits"] == 0


# ---------------------------------------------------------------------------
# Batched candidate verification
# ---------------------------------------------------------------------------

class PerBlockCompressor(Compressor):
    """The reference: Algorithm 1 as a plain per-block loop, each
    duplicate candidate verified by its own on-demand read — what
    ``store_many``/``commit_many`` did before a batch read its
    candidates in one request.  The batched code must match it in
    every decision, allocation and byte."""

    def store_many(self, pieces):
        slots, pending, to_write = [], {}, []
        for content, used in pieces:
            self.stats.record("stores")
            padded = self._pad(content)
            if self.dedup:
                dup = pending.get(padded)
                if dup is None:
                    dup = self.hashtable.find_duplicate(padded)
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
        self._publish(to_write)
        return slots

    def commit_many(self, inode, items):
        pending, to_write = {}, []
        for slot_index, content, used in items:
            self.stats.record("commits")
            padded = self._pad(content)
            curr = inode.slot_at(slot_index)
            dup = pending.get(padded)
            if dup is None:
                dup = self.hashtable.find_duplicate(padded)
            if dup is not None:
                if dup == curr.block_no:
                    if used != curr.used:
                        inode.set_used(slot_index, used)
                    continue
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
            sole = self.refcount.get(curr.block_no) == 1
            if sole and self.device.can_overwrite_in_place(curr.block_no):
                self.hashtable.delete_record(curr.block_no)
                pending[padded] = curr.block_no
                to_write.append((curr.block_no, padded))
                if used != curr.used:
                    inode.set_used(slot_index, used)
                self.stats.record("in_place_updates")
                continue
            if sole:
                self.hashtable.delete_record(curr.block_no)
            self.refcount.decref(curr.block_no)
            block_no = self.device.allocate()
            to_write.append((block_no, padded))
            pending[padded] = block_no
            self.refcount.set(block_no, 1)
            inode.replace_slot(slot_index, Slot(block_no=block_no, used=used))
            if sole:
                self.device.free(curr.block_no)
                self.stats.record("blocks_freed")
            self.stats.record("cow_allocations")
        self._publish(to_write)

    def _publish(self, to_write):
        if to_write:
            self.device.write_blocks(to_write)
            if self.dedup:
                for block_no, padded in to_write:
                    self.hashtable.add_record(block_no, padded)


class FreezingDevice(MemoryBlockDevice):
    """A device whose "committed" blocks refuse in-place overwrites,
    as a journaled device's do, so the sole-reference CoW branch runs;
    it also logs every allocation in order."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.frozen = set()
        self.allocations = []

    def allocate(self):
        block_no = super().allocate()
        self.allocations.append(block_no)
        self.frozen.discard(block_no)
        return block_no

    def can_overwrite_in_place(self, block_no):
        return block_no not in self.frozen


def build(cls, block_size=16, cache_blocks=0):
    device = FreezingDevice(block_size=block_size, cache_blocks=cache_blocks)
    hashtable = BlockHashTable(reader=device.read_block, length=8)
    refcount = BlockRefCount(device)
    return cls(device=device, hashtable=hashtable, refcount=refcount)


def state_of(compressor, inodes):
    device, table = compressor.device, compressor.hashtable
    return {
        "slots": [[(s.block_no, s.used) for s in inode.iter_slots()] for inode in inodes],
        "refcounts": {b: compressor.refcount.get(b) for b in range(device.total_blocks)},
        "buckets": [list(bucket or ()) for bucket in table._buckets],
        "records": dict(table._block_hash),
        "allocations": list(device.allocations),
        "free": list(device._free),
        "bytes": [device._read(b) for b in range(device.total_blocks)],
        "stats": compressor.stats.snapshot(),
    }


def read_transactions(device):
    snap = device.stats.snapshot()
    return snap.block_reads - snap.batched_blocks_read + snap.batched_reads


class TestBatchedVerificationOracle:
    """(a) Seeded random batches — intra-batch duplicates, in-place
    updates, copy-on-write, dup-hit frees, releases — against the
    per-block reference, with and without forced hash collisions."""

    POOL = [bytes([i]) * (1 + i % 16) for i in range(12)]

    def draw(self, rng):
        """Mostly pooled content (duplicates), sometimes new content."""
        if rng.random() < 0.7:
            return rng.choice(self.POOL)
        return bytes([rng.randrange(12)]) + rng.randbytes(rng.randint(0, 15))

    def run(self, seed):
        rng = random.Random(seed)
        pair = [build(PerBlockCompressor), build(Compressor)]
        files = [[Inode(block_size=16, page_capacity=4) for __ in range(3)] for __ in pair]
        for step in range(60):
            action = rng.random()
            target = rng.randrange(3)
            size = files[0][target].num_slots
            if action < 0.35 or size == 0:
                contents = [self.draw(rng) for __ in range(rng.randint(1, 8))]
                pieces = [(c, rng.randint(1, len(c))) for c in contents]
                for compressor, inodes in zip(pair, files):
                    for slot in compressor.store_many(pieces):
                        inodes[target].append_slot(slot)
            elif action < 0.85:
                indexes = rng.sample(range(size), rng.randint(1, size))
                items = [(i, self.draw(rng), 16) for i in indexes]
                for compressor, inodes in zip(pair, files):
                    compressor.commit_many(inodes[target], items)
            elif action < 0.93:
                index = rng.randrange(size)
                for compressor, inodes in zip(pair, files):
                    compressor.release(inodes[target].remove_slot(index))
            else:  # a sync point: everything written so far is committed
                for compressor in pair:
                    compressor.device.frozen.update(range(compressor.device.total_blocks))
            reference, batched = (state_of(c, inodes) for c, inodes in zip(pair, files))
            assert batched == reference, f"seed {seed} diverged at step {step}"
        stats = pair[1].stats.snapshot()
        return pair, stats

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_block_reference(self, seed):
        pair, stats = self.run(seed)
        for compressor in pair:
            compressor.hashtable.check_invariants()
        assert stats["dedup_hits"] and stats["in_place_updates"]
        assert stats["cow_allocations"] and stats["blocks_freed"]
        # The batched side verified with fewer device transactions.
        assert read_transactions(pair[1].device) <= read_transactions(pair[0].device)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_under_forced_collisions(self, seed, monkeypatch):
        def weak(content):  # four hash values for the whole pool
            return content[0] % 4

        monkeypatch.setattr(hashtable_module, "hash_block", weak)
        monkeypatch.setattr(compressor_module, "hash_block", weak)
        pair, __ = self.run(100 + seed)
        assert pair[1].hashtable.probe_comparisons > 0


class TestBatchedVerificationIO:
    """(b) What a batch costs in device read transactions."""

    def test_sixteen_duplicates_cost_one_read(self):
        compressor = build(Compressor)
        contents = [b"block-%02d" % i for i in range(16)]
        compressor.store_many([(c, len(c)) for c in contents])
        before = read_transactions(compressor.device)
        slots = compressor.store_many([(c, len(c)) for c in contents])
        assert read_transactions(compressor.device) - before == 1
        assert compressor.stats.snapshot()["dedup_hits"] == 16
        assert [s.block_no for s in slots] == compressor.device.allocations

    def test_reference_pays_one_read_per_duplicate(self):
        compressor = build(PerBlockCompressor)
        contents = [b"block-%02d" % i for i in range(16)]
        compressor.store_many([(c, len(c)) for c in contents])
        before = read_transactions(compressor.device)
        compressor.store_many([(c, len(c)) for c in contents])
        assert read_transactions(compressor.device) - before == 16

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_batch_of_one_costs_at_most_one_read(self, duplicate, monkeypatch):
        compressor = build(Compressor)
        compressor.store(b"existing", 8)
        before = read_transactions(compressor.device)
        # No seek to share, so no planning: the lookup reads on demand.
        monkeypatch.setattr(compressor.hashtable, "first_candidates", None)
        compressor.store(b"existing" if duplicate else b"fresh", 8)
        assert read_transactions(compressor.device) - before == int(duplicate)

    def test_fresh_batch_reads_nothing(self):
        compressor = build(Compressor)
        compressor.store_many([(b"new-%d" % i, 5) for i in range(8)])
        assert read_transactions(compressor.device) == 0


class TestOversizePieceHasNoSideEffect:
    """(c) Every piece is padded before anything changes, so an
    oversize piece mid-batch leaves the earlier ones unstored."""

    def snapshot(self, compressor):
        return (
            {b: compressor.refcount.get(b) for b in range(compressor.device.total_blocks)},
            dict(compressor.hashtable._block_hash),
            list(compressor.device._free),
            compressor.device.total_blocks,
            compressor.stats.snapshot(),
        )

    def test_store_many(self):
        compressor = build(Compressor)
        compressor.store(b"existing", 8)
        before = self.snapshot(compressor)
        with pytest.raises(ValueError):
            compressor.store_many([(b"existing", 8), (b"new", 3), (b"z" * 17, 17)])
        assert self.snapshot(compressor) == before

    def test_commit_many(self):
        compressor = build(Compressor)
        inode = Inode(block_size=16, page_capacity=4)
        for slot in compressor.store_many([(b"a", 1), (b"b", 1), (b"c", 1)]):
            inode.append_slot(slot)
        before = self.snapshot(compressor), list(inode.iter_slots())
        with pytest.raises(ValueError):
            compressor.commit_many(inode, [(0, b"b", 1), (1, b"new", 3), (2, b"z" * 17, 17)])
        assert (self.snapshot(compressor), list(inode.iter_slots())) == before
