"""Tests for the block get/release protocol (Section 4.3)."""

import pytest

from repro.core.engine import CompressDB


@pytest.fixture
def engine_with_file():
    engine = CompressDB(block_size=16)
    engine.write_file("/f", b"0123456789abcdef" * 3)
    return engine


class TestGetRelease:
    def test_get_returns_valid_bytes(self, engine_with_file):
        handle = engine_with_file.get_block("/f", 1)
        assert bytes(handle.data) == b"0123456789abcdef"
        assert handle.used == 16

    def test_get_respects_holes(self, engine_with_file):
        engine_with_file.ops.insert("/f", 4, b"xy")  # creates a holey slot
        inode = engine_with_file.inode("/f")
        for index in range(inode.num_slots):
            handle = engine_with_file.get_block("/f", index)
            assert handle.used == inode.slot_at(index).used

    def test_release_commits_modification(self, engine_with_file):
        handle = engine_with_file.get_block("/f", 0)
        handle.data[0:4] = b"WXYZ"
        engine_with_file.release_block(handle)
        assert engine_with_file.read_file("/f").startswith(b"WXYZ456789abcdef")
        engine_with_file.check_invariants()

    def test_release_unchanged_is_noop(self, engine_with_file):
        writes_before = engine_with_file.device.stats.snapshot().block_writes
        handle = engine_with_file.get_block("/f", 0)
        engine_with_file.release_block(handle)
        assert engine_with_file.device.stats.snapshot().block_writes == writes_before

    def test_release_can_shrink_block(self, engine_with_file):
        handle = engine_with_file.get_block("/f", 2)
        del handle.data[8:]
        engine_with_file.release_block(handle)
        assert engine_with_file.file_size("/f") == 40
        assert engine_with_file.inode("/f").hole_bytes == 8

    def test_release_can_grow_into_hole(self, engine_with_file):
        handle = engine_with_file.get_block("/f", 2)
        del handle.data[8:]
        engine_with_file.release_block(handle)
        handle = engine_with_file.get_block("/f", 2)
        handle.data += b"FILLED!!"
        engine_with_file.release_block(handle)
        assert engine_with_file.read_file("/f").endswith(b"01234567FILLED!!")

    def test_double_release_rejected(self, engine_with_file):
        handle = engine_with_file.get_block("/f", 0)
        engine_with_file.release_block(handle)
        with pytest.raises(ValueError):
            engine_with_file.release_block(handle)

    def test_oversized_release_rejected(self, engine_with_file):
        handle = engine_with_file.get_block("/f", 0)
        handle.data += b"way too many extra bytes"
        with pytest.raises(ValueError):
            engine_with_file.release_block(handle)

    def test_release_dedups_against_other_blocks(self, engine_with_file):
        # Make block 1 identical to block 0: they must share storage.
        blocks_before = engine_with_file.physical_data_blocks()
        handle = engine_with_file.get_block("/f", 1)
        # Blocks 0 and 1 are already identical content; modify block 1
        # to something unique first, then back.
        handle.data[:] = b"UNIQUE-CONTENT-1"
        engine_with_file.release_block(handle)
        assert engine_with_file.physical_data_blocks() == blocks_before + 1
        handle = engine_with_file.get_block("/f", 1)
        handle.data[:] = b"0123456789abcdef"
        engine_with_file.release_block(handle)
        assert engine_with_file.physical_data_blocks() == blocks_before
        engine_with_file.check_invariants()
