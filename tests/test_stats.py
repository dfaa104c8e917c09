"""Unit tests for I/O statistics counters."""

from repro.storage.stats import IOStats


class TestIOStats:
    def test_record_read(self):
        stats = IOStats()
        stats.record_read(1024)
        assert stats.snapshot().block_reads == 1
        assert stats.snapshot().bytes_read == 1024

    def test_record_write(self):
        stats = IOStats()
        stats.record_write(512)
        assert stats.snapshot().block_writes == 1
        assert stats.snapshot().bytes_written == 512

    def test_totals(self):
        stats = IOStats()
        stats.record_read(10)
        stats.record_write(20)
        stats.record_metadata_read()
        stats.record_metadata_write()
        snap = stats.snapshot()
        assert (snap.block_reads, snap.block_writes) == (1, 1)
        assert (snap.metadata_reads, snap.metadata_writes) == (1, 1)
        assert snap.bytes_read + snap.bytes_written == 30

    def test_reset_zeroes_everything(self):
        stats = IOStats()
        stats.record_read(10)
        for __ in range(3):
            stats.record_allocation()
        assert stats.snapshot().allocations == 3
        stats.reset()
        assert stats.snapshot() == IOStats().snapshot()

    def test_snapshot_is_independent(self):
        stats = IOStats()
        stats.record_read(10)
        snap = stats.snapshot()
        stats.record_read(10)
        assert snap.block_reads == 1
        assert stats.snapshot().block_reads == 2
