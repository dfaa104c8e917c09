"""Unit tests for the block devices."""

import pytest

from repro.storage.block_device import (
    BlockDeviceError,
    FileBlockDevice,
    MemoryBlockDevice,
)
from repro.storage.simclock import HDD_5400RPM, SimClock


class TestAllocation:
    def test_allocate_returns_sequential_numbers(self, device):
        assert [device.allocate() for __ in range(3)] == [0, 1, 2]

    def test_free_then_allocate_reuses_block(self, device):
        first = device.allocate()
        device.free(first)
        assert device.allocate() == first

    def test_allocated_blocks_counts_live_blocks(self, device):
        blocks = [device.allocate() for __ in range(4)]
        device.free(blocks[1])
        assert device.allocated_blocks == 3
        assert device.total_blocks == 4

    def test_double_free_raises(self, device):
        block = device.allocate()
        device.free(block)
        with pytest.raises(BlockDeviceError):
            device.free(block)

    def test_free_unallocated_block_raises(self, device):
        with pytest.raises(BlockDeviceError):
            device.free(7)


class TestReadWrite:
    def test_fresh_block_reads_zeroes(self, device):
        block = device.allocate()
        assert device.read_block(block) == b"\x00" * device.block_size

    def test_write_then_read_roundtrip(self, device):
        block = device.allocate()
        payload = b"x" * device.block_size
        device.write_block(block, payload)
        assert device.read_block(block) == payload

    def test_short_write_is_zero_padded(self, device):
        block = device.allocate()
        device.write_block(block, b"abc")
        data = device.read_block(block)
        assert data.startswith(b"abc")
        assert data[3:] == b"\x00" * (device.block_size - 3)

    def test_oversized_write_raises(self, device):
        block = device.allocate()
        with pytest.raises(BlockDeviceError):
            device.write_block(block, b"y" * (device.block_size + 1))

    def test_read_out_of_range_raises(self, device):
        with pytest.raises(BlockDeviceError):
            device.read_block(0)

    def test_freed_block_is_zeroed_on_reuse(self, device):
        block = device.allocate()
        device.write_block(block, b"secret")
        device.free(block)
        again = device.allocate()
        assert again == block
        assert device.read_block(again) == b"\x00" * device.block_size


class TestStatsAndClock:
    def test_reads_and_writes_are_counted(self, device):
        block = device.allocate()
        device.write_block(block, b"a")
        device.read_block(block)
        assert device.stats.snapshot().block_writes == 1
        assert device.stats.snapshot().block_reads == 1
        assert device.stats.snapshot().bytes_written == device.block_size
        assert device.stats.snapshot().bytes_read == device.block_size

    def test_io_charges_simulated_time(self):
        clock = SimClock()
        device = MemoryBlockDevice(block_size=1024, profile=HDD_5400RPM, clock=clock)
        block = device.allocate()
        before = clock.now
        device.write_block(block, b"x")
        assert clock.now > before

    def test_metadata_access_charges_time(self, device, clock):
        before = clock.now
        device.charge_metadata_access(write=True)
        assert clock.now > before
        assert device.stats.snapshot().metadata_writes == 1


class TestCache:
    def test_cache_disabled_by_default(self, device):
        block = device.allocate()
        device.write_block(block, b"a")
        device.read_block(block)
        device.read_block(block)
        assert device.cache_hits == 0
        assert device.stats.snapshot().block_reads == 2

    def test_cached_read_is_free(self):
        device = MemoryBlockDevice(block_size=64, cache_blocks=4)
        block = device.allocate()
        device.write_block(block, b"a")
        reads_before = device.stats.snapshot().block_reads
        device.read_block(block)  # hits the write-through entry
        assert device.cache_hits == 1
        assert device.stats.snapshot().block_reads == reads_before

    def test_cache_eviction_is_lru(self):
        device = MemoryBlockDevice(block_size=64, cache_blocks=2)
        blocks = [device.allocate() for __ in range(3)]
        for block in blocks:
            device.write_block(block, b"%d" % block)
        # blocks[0] was evicted by the third write.
        device.read_block(blocks[0])
        assert device.cache_misses == 1

    def test_freed_block_leaves_cache(self):
        device = MemoryBlockDevice(block_size=64, cache_blocks=4)
        block = device.allocate()
        device.write_block(block, b"a")
        device.free(block)
        again = device.allocate()
        assert device.read_block(again) == b"\x00" * 64


class TestFileBlockDevice:
    def test_roundtrip_through_backing_file(self, tmp_path):
        path = str(tmp_path / "device.img")
        with FileBlockDevice(path, block_size=32) as device:
            block = device.allocate()
            device.write_block(block, b"hello")
            assert device.read_block(block).startswith(b"hello")

    def test_state_survives_reopen(self, tmp_path):
        path = str(tmp_path / "device.img")
        with FileBlockDevice(path, block_size=32) as device:
            block = device.allocate()
            device.write_block(block, b"persisted")
        with FileBlockDevice(path, block_size=32) as device:
            assert device.total_blocks == 1
            assert device.read_block(block).startswith(b"persisted")

    def test_erase_zeroes_backing_storage(self, tmp_path):
        path = str(tmp_path / "device.img")
        with FileBlockDevice(path, block_size=32) as device:
            block = device.allocate()
            device.write_block(block, b"junk")
            device.free(block)
            again = device.allocate()
            assert device.read_block(again) == b"\x00" * 32


class TestFreeListRebuild:
    def test_rebuild_marks_unreferenced_blocks_free(self, device):
        blocks = [device.allocate() for __ in range(5)]
        free_count = device.rebuild_free_list({blocks[0], blocks[3]})
        assert free_count == 3
        assert device.allocated_blocks == 2
        # Reuse comes from the reconstructed free list, no growth.
        device.allocate()
        assert device.total_blocks == 5

    def test_rebuild_with_everything_used(self, device):
        blocks = {device.allocate() for __ in range(3)}
        assert device.rebuild_free_list(blocks) == 0
