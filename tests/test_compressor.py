"""Unit tests for Algorithm 1 (the real-time compression module)."""

import pytest

from repro.core.compressor import Compressor
from repro.core.hashtable import BlockHashTable
from repro.core.refcount import BlockRefCount
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.inode import Inode


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
