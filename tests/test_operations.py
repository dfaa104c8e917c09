"""Unit tests for the seven pushed-down operations (Section 4.4)."""

import pytest

from repro.core.operations import OperationError


@pytest.fixture
def loaded(engine):
    engine.create("/f")
    engine.ops.append("/f", b"the quick brown fox jumps over the lazy dog " * 5)
    return engine


class TestExtract:
    def test_whole_file(self, loaded):
        data = loaded.ops.extract("/f", 0, loaded.file_size("/f"))
        assert data == b"the quick brown fox jumps over the lazy dog " * 5

    def test_cross_block_range(self, loaded):
        bs = loaded.block_size
        data = loaded.ops.extract("/f", bs - 5, 10)
        whole = loaded.read_file("/f")
        assert data == whole[bs - 5 : bs + 5]

    def test_zero_size(self, loaded):
        assert loaded.ops.extract("/f", 3, 0) == b""

    def test_beyond_eof_truncated(self, loaded):
        size = loaded.file_size("/f")
        assert loaded.ops.extract("/f", size - 2, 100) == loaded.read_file("/f")[-2:]

    def test_negative_offset_rejected(self, loaded):
        with pytest.raises(OperationError):
            loaded.ops.extract("/f", -1, 5)


class TestReplace:
    def test_in_place(self, loaded):
        loaded.ops.replace("/f", 4, b"QUICK")
        assert loaded.read_file("/f")[4:9] == b"QUICK"

    def test_size_unchanged(self, loaded):
        before = loaded.file_size("/f")
        loaded.ops.replace("/f", 0, b"THE")
        assert loaded.file_size("/f") == before

    def test_cross_block_replace(self, loaded):
        bs = loaded.block_size
        loaded.ops.replace("/f", bs - 3, b"XXXXXX")
        data = loaded.read_file("/f")
        assert data[bs - 3 : bs + 3] == b"XXXXXX"
        loaded.check_invariants()

    def test_out_of_range_rejected(self, loaded):
        size = loaded.file_size("/f")
        with pytest.raises(OperationError):
            loaded.ops.replace("/f", size - 1, b"too long")

    def test_replace_does_not_shift_layout(self, loaded):
        """Unlike delete+insert, replace keeps all later bytes in place."""
        before = loaded.read_file("/f")
        loaded.ops.replace("/f", 10, b"##")
        after = loaded.read_file("/f")
        assert after[:10] == before[:10]
        assert after[12:] == before[12:]

    def test_shared_block_copy_on_write(self, engine):
        block = b"S" * engine.block_size
        engine.write_file("/a", block * 2)
        engine.write_file("/b", block)
        engine.ops.replace("/a", 0, b"!")
        assert engine.read_file("/b") == block  # sharer unaffected
        engine.check_invariants()


class TestInsert:
    def test_at_start(self, loaded):
        before = loaded.read_file("/f")
        loaded.ops.insert("/f", 0, b">>>")
        assert loaded.read_file("/f") == b">>>" + before

    def test_at_end_behaves_like_append(self, loaded):
        before = loaded.read_file("/f")
        loaded.ops.insert("/f", len(before), b"<<<")
        assert loaded.read_file("/f") == before + b"<<<"

    def test_unaligned_creates_hole(self, loaded):
        holes_before = loaded.inode("/f").hole_bytes
        loaded.ops.insert("/f", 10, b"odd")
        assert loaded.inode("/f").hole_bytes > holes_before

    def test_mid_block_correctness(self, loaded):
        before = loaded.read_file("/f")
        loaded.ops.insert("/f", 13, b"[inserted]")
        assert loaded.read_file("/f") == before[:13] + b"[inserted]" + before[13:]
        loaded.check_invariants()

    def test_insert_larger_than_block(self, loaded):
        before = loaded.read_file("/f")
        payload = b"L" * (loaded.block_size * 3 + 7)
        loaded.ops.insert("/f", 5, payload)
        assert loaded.read_file("/f") == before[:5] + payload + before[5:]
        loaded.check_invariants()

    def test_does_not_rewrite_untouched_blocks(self, engine):
        """The paper's core claim: insert touches O(1) blocks, so the
        rest of the file keeps its physical blocks."""
        engine.create("/f")
        unique = bytes(range(256))
        engine.ops.append("/f", (unique * 64)[: engine.block_size * 16])
        tail_blocks = engine.inode("/f").all_block_numbers()[8:]
        engine.ops.insert("/f", engine.block_size * 2 + 3, b"tiny")
        assert engine.inode("/f").all_block_numbers()[-8:] == tail_blocks

    def test_insert_out_of_range(self, loaded):
        with pytest.raises(OperationError):
            loaded.ops.insert("/f", loaded.file_size("/f") + 1, b"x")

    def test_empty_insert_is_noop(self, loaded):
        before = loaded.read_file("/f")
        loaded.ops.insert("/f", 7, b"")
        assert loaded.read_file("/f") == before


class TestDelete:
    def test_within_one_block(self, loaded):
        before = loaded.read_file("/f")
        loaded.ops.delete("/f", 4, 6)
        assert loaded.read_file("/f") == before[:4] + before[10:]
        loaded.check_invariants()

    def test_across_blocks(self, loaded):
        before = loaded.read_file("/f")
        bs = loaded.block_size
        loaded.ops.delete("/f", bs - 7, bs + 14)
        assert loaded.read_file("/f") == before[: bs - 7] + before[2 * bs + 7 :]
        loaded.check_invariants()

    def test_whole_file(self, loaded):
        loaded.ops.delete("/f", 0, loaded.file_size("/f"))
        assert loaded.file_size("/f") == 0
        assert loaded.inode("/f").num_slots == 0

    def test_creates_holes_not_data_movement(self, loaded):
        loaded.ops.delete("/f", 3, 5)
        assert loaded.inode("/f").hole_bytes > 0

    def test_hole_merge_releases_blocks(self, engine):
        """Section 4.4: adjacent remainders merging into one block."""
        engine.create("/f")
        engine.ops.append("/f", bytes(range(256))[: engine.block_size * 2])
        # Delete across the block boundary leaving small head + tail.
        bs = engine.block_size
        engine.ops.delete("/f", 10, 2 * bs - 20, merge_holes=True)
        assert engine.inode("/f").num_slots == 1  # merged into one block
        assert engine.file_size("/f") == 20

    def test_no_merge_when_disabled(self, engine):
        engine.create("/f")
        engine.ops.append("/f", bytes(range(256))[: engine.block_size * 2])
        bs = engine.block_size
        engine.ops.delete("/f", 10, 2 * bs - 20, merge_holes=False)
        assert engine.inode("/f").num_slots == 2

    def test_out_of_range(self, loaded):
        with pytest.raises(OperationError):
            loaded.ops.delete("/f", 0, loaded.file_size("/f") + 1)

    def test_zero_length_is_noop(self, loaded):
        before = loaded.read_file("/f")
        loaded.ops.delete("/f", 5, 0)
        assert loaded.read_file("/f") == before


class TestAppend:
    def test_fills_trailing_hole_first(self, engine):
        engine.create("/f")
        engine.ops.append("/f", b"abc")  # partial block
        slots_before = engine.inode("/f").num_slots
        engine.ops.append("/f", b"def")
        assert engine.inode("/f").num_slots == slots_before
        assert engine.read_file("/f") == b"abcdef"

    def test_repeated_content_reuses_blocks(self, engine):
        block = b"A" * engine.block_size
        engine.create("/f")
        for __ in range(10):
            engine.ops.append("/f", block)
        assert engine.physical_data_blocks() == 1

    def test_append_to_empty_file(self, engine):
        engine.create("/f")
        engine.ops.append("/f", b"start")
        assert engine.read_file("/f") == b"start"

    def test_append_empty_is_noop(self, loaded):
        before = loaded.read_file("/f")
        loaded.ops.append("/f", b"")
        assert loaded.read_file("/f") == before


class TestSearchAndCount:
    def test_matches_naive(self, loaded):
        data = loaded.read_file("/f")
        expected = []
        index = data.find(b"the")
        while index != -1:
            expected.append(index)
            index = data.find(b"the", index + 1)
        assert loaded.ops.search("/f", b"the") == expected

    def test_cross_block_occurrences_found(self, engine):
        engine.create("/f")
        bs = engine.block_size
        # Plant a pattern exactly straddling a block boundary.
        data = b"a" * (bs - 2) + b"NEEDLE" + b"b" * bs
        engine.ops.append("/f", data)
        assert engine.ops.search("/f", b"NEEDLE") == [bs - 2]

    def test_search_respects_holes(self, loaded):
        """Bytes split by an insert hole must not match across the gap."""
        loaded.ops.replace("/f", 0, b"ABCDEF")
        loaded.ops.insert("/f", 3, b"-")
        assert loaded.ops.search("/f", b"ABCDEF") == []
        assert loaded.ops.search("/f", b"ABC-DEF") == [0]

    def test_search_reuses_shared_blocks(self, engine):
        """Identical blocks are scanned once (block reuse saving)."""
        block = (b"needle " + b"x" * engine.block_size)[: engine.block_size]
        engine.create("/f")
        for __ in range(20):
            engine.ops.append("/f", block)
        reads_before = engine.device.stats.snapshot().block_reads
        matches = engine.ops.search("/f", b"needle")
        assert len(matches) == 20
        # Far fewer block reads than slots: one scan + junction windows.
        assert engine.device.stats.snapshot().block_reads - reads_before < 60

    def test_count_equals_len_search(self, loaded):
        assert loaded.ops.count("/f", b"o") == len(loaded.ops.search("/f", b"o"))

    def test_empty_pattern(self, loaded):
        assert loaded.ops.search("/f", b"") == []
        assert loaded.ops.count("/f", b"") == 0

    def test_pattern_longer_than_file(self, engine):
        engine.create("/f")
        engine.ops.append("/f", b"ab")
        assert engine.ops.search("/f", b"abc") == []

    def test_overlapping_matches(self, engine):
        engine.create("/f")
        engine.ops.append("/f", b"aaaa")
        assert engine.ops.search("/f", b"aa") == [0, 1, 2]


class TestStatsCounters:
    def test_each_operation_counted(self, loaded):
        loaded.ops.stats.reset()  # the fixture itself used append
        loaded.ops.extract("/f", 0, 1)
        loaded.ops.replace("/f", 0, b"x")
        loaded.ops.insert("/f", 0, b"y")
        loaded.ops.delete("/f", 0, 1)
        loaded.ops.append("/f", b"z")
        loaded.ops.search("/f", b"a")
        loaded.ops.count("/f", b"a")
        stats = loaded.ops.stats.snapshot()
        assert (
            stats["extract"],
            stats["replace"],
            stats["insert"],
            stats["delete"],
            stats["append"],
            stats["search"],
            stats["count"],
        ) == (1, 1, 1, 1, 1, 1, 1)
