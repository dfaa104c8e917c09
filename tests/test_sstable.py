"""Tests for the SSTable file format."""

import random
import struct

import pytest

from repro.compression import SnappyCodec
from repro.databases.bloom import BloomFilter
from repro.databases.common import CorruptRecord
from repro.databases.sstable import SSTableReader, SSTableWriter
from repro.fs import PassthroughFS


@pytest.fixture
def fs():
    return PassthroughFS(block_size=256)


def build_table(fs, entries, codec=None, block_target=64):
    writer = SSTableWriter(fs, "/t.sst", codec=codec, block_target=block_target)
    for key, value in entries:
        writer.add(key, value)
    writer.finish()
    return SSTableReader(fs, "/t.sst", codec=codec)


class TestWriter:
    def test_keys_must_ascend(self, fs):
        writer = SSTableWriter(fs, "/t.sst")
        writer.add(b"b", b"1")
        with pytest.raises(ValueError):
            writer.add(b"a", b"2")
        with pytest.raises(ValueError):
            writer.add(b"b", b"2")

    def test_entry_count(self, fs):
        writer = SSTableWriter(fs, "/t.sst")
        writer.add(b"a", b"1")
        writer.add(b"b", None)
        assert writer.entry_count == 2

    def test_finish_returns_file_size(self, fs):
        writer = SSTableWriter(fs, "/t.sst")
        writer.add(b"a", b"1")
        size = writer.finish()
        assert size == fs.stat("/t.sst").size


class TestReader:
    def test_get_existing_keys(self, fs):
        entries = [(b"k%03d" % i, b"v%03d" % i) for i in range(100)]
        reader = build_table(fs, entries)
        assert reader.block_count > 1
        for key, value in entries:
            assert reader.get(key) == (True, value)

    def test_get_missing_key(self, fs):
        reader = build_table(fs, [(b"a", b"1"), (b"c", b"3")])
        assert reader.get(b"b") == (False, None)
        assert reader.get(b"z") == (False, None)
        assert reader.get(b"0") == (False, None)

    def test_tombstones_are_found(self, fs):
        reader = build_table(fs, [(b"a", b"1"), (b"b", None)])
        assert reader.get(b"b") == (True, None)

    def test_first_last_key(self, fs):
        reader = build_table(fs, [(b"aa", b"1"), (b"zz", b"2")])
        assert reader.first_key == b"aa"
        assert reader.last_key == b"zz"

    def test_iterate_all(self, fs):
        entries = [(b"k%02d" % i, b"v" * i) for i in range(30)]
        reader = build_table(fs, entries)
        assert list(reader.iterate()) == entries

    def test_iterate_range(self, fs):
        entries = [(b"k%02d" % i, b"v") for i in range(30)]
        reader = build_table(fs, entries)
        got = list(reader.iterate(b"k05", b"k10"))
        assert got == entries[5:10]

    def test_iterate_start_in_gap(self, fs):
        reader = build_table(fs, [(b"a", b"1"), (b"m", b"2"), (b"z", b"3")])
        assert list(reader.iterate(b"b")) == [(b"m", b"2"), (b"z", b"3")]

    def test_not_an_sstable(self, fs):
        fs.write_file("/junk", b"short")
        with pytest.raises(CorruptRecord):
            SSTableReader(fs, "/junk")

    def test_bad_magic(self, fs):
        reader_path = "/t.sst"
        writer = SSTableWriter(fs, reader_path)
        writer.add(b"a", b"1")
        size = writer.finish()
        fs._pwrite(reader_path, size - 1, b"\xff")
        with pytest.raises(CorruptRecord):
            SSTableReader(fs, reader_path)


class TestCompression:
    def test_snappy_blocks_roundtrip(self, fs):
        entries = [(b"key%04d" % i, b"the same value " * 5) for i in range(200)]
        reader = build_table(fs, entries, codec=SnappyCodec(), block_target=512)
        for key, value in entries[::17]:
            assert reader.get(key) == (True, value)
        assert list(reader.iterate()) == entries

    def test_compression_shrinks_file(self, fs):
        entries = [(b"key%04d" % i, b"repetitive value " * 8) for i in range(100)]
        build_table(fs, entries, block_target=512)
        plain_size = fs.stat("/t.sst").size
        fs2 = PassthroughFS(block_size=256)
        writer = SSTableWriter(fs2, "/t.sst", codec=SnappyCodec(), block_target=512)
        for key, value in entries:
            writer.add(key, value)
        compressed_size = writer.finish()
        assert compressed_size < plain_size / 2

    def test_incompressible_blocks_stored_raw(self, fs):
        import random

        rng = random.Random(0)
        entries = [
            (b"k%03d" % i, bytes(rng.randrange(256) for __ in range(50)))
            for i in range(20)
        ]
        reader = build_table(fs, entries, codec=SnappyCodec(), block_target=256)
        assert list(reader.iterate()) == entries


class TestRecordAlignment:
    def test_alignment_roundtrip(self, fs):
        writer = SSTableWriter(fs, "/t.sst", block_target=1024, align_records=256)
        entries = [(b"key%03d" % i, b"V" * 300) for i in range(40)]
        for key, value in entries:
            writer.add(key, value)
        writer.finish()
        reader = SSTableReader(fs, "/t.sst")
        assert list(reader.iterate()) == entries
        for key, value in entries[::7]:
            assert reader.get(key) == (True, value)

    def test_alignment_with_codec_rejected(self, fs):
        with pytest.raises(ValueError):
            SSTableWriter(fs, "/t.sst", codec=SnappyCodec(), align_records=256)

    def test_tiny_alignment_rejected(self, fs):
        with pytest.raises(ValueError):
            SSTableWriter(fs, "/t.sst", align_records=4)

    def test_small_records_not_padded(self, fs):
        aligned = SSTableWriter(fs, "/a.sst", align_records=256)
        for i in range(50):
            aligned.add(b"k%02d" % i, b"small")
        size_aligned = aligned.finish()
        plain = SSTableWriter(fs, "/p.sst")
        for i in range(50):
            plain.add(b"k%02d" % i, b"small")
        size_plain = plain.finish()
        assert size_aligned <= size_plain + 256  # no per-record blow-up

    def test_duplicate_values_dedup_on_compressfs(self):
        """The point of alignment: same value under different keys
        occupies the same storage blocks on a dedup file system."""
        import random

        from repro.fs import CompressFS

        # A non-self-similar value (random bytes) spanning several
        # blocks: only alignment can make its copies dedup.
        rng = random.Random(1)
        value = bytes(rng.randrange(256) for __ in range(1300))
        aligned_fs = CompressFS(block_size=256)
        writer = SSTableWriter(aligned_fs, "/t.sst", block_target=1 << 16, align_records=256)
        for i in range(30):
            writer.add(b"key%04d" % i, value)
        writer.finish()
        unaligned_fs = CompressFS(block_size=256)
        writer = SSTableWriter(unaligned_fs, "/t.sst", block_target=1 << 16)
        for i in range(30):
            writer.add(b"key%04d" % i, value)
        writer.finish()
        assert aligned_fs.physical_bytes() < unaligned_fs.physical_bytes() / 2


class TestAlignedRecordModel:
    """1 KiB-aligned 512 B values — every record sits behind a filler
    run — against a dict model."""

    def test_get_iterate_and_compaction_match_model(self):
        import random

        from repro.databases.minileveldb import MiniLevelDB

        rng = random.Random(26)
        fs = PassthroughFS(block_size=1024)
        model: dict[bytes, bytes] = {}
        writer = SSTableWriter(fs, "/t.sst", block_target=4096, align_records=1024)
        for i in sorted(rng.sample(range(400), 150)):
            key = b"key%04d" % i
            model[key] = rng.randbytes(512)
            writer.add(key, model[key])
        writer.finish()
        reader = SSTableReader(fs, "/t.sst")
        for i in range(400):
            key = b"key%04d" % i
            assert reader.get(key) == ((True, model[key]) if key in model else (False, None))
        ordered = sorted(model.items())
        for __ in range(30):
            low, high = sorted(b"key%04d" % rng.randrange(401) for __ in range(2))
            assert list(reader.iterate(low, high)) == [
                (k, v) for k, v in ordered if low <= k < high
            ]

        db = MiniLevelDB(fs, "/db", memtable_limit=4096, l0_limit=2, align_records=1024)
        live: dict[bytes, bytes] = {}
        for step in range(300):
            key = b"k%03d" % rng.randrange(120)
            if rng.random() < 0.2:
                db.delete(key)
                live.pop(key, None)
            else:
                live[key] = rng.randbytes(512)
                db.put(key, live[key])
        db.flush_memtable()
        db.compact()
        assert db.compactions > 0
        for i in range(130):
            key = b"k%03d" % i
            assert db.get(key) == live.get(key)
        assert list(db.scan()) == sorted(live.items())

    def test_block_ending_in_filler(self):
        records = b"\x00" + b"\x01a" + b"\x02vv" + b"\x02" * 7 + b"\x01" + b"\x01b"
        tail = b"\x02" * 900
        assert list(SSTableReader._iter_records(records + tail)) == [
            (b"a", b"vv"),
            (b"b", None),
        ]

    def test_mutated_blocks_raise_only_corrupt_record(self, fs):
        import random

        from tests.conftest import mutate

        rng = random.Random(2026)
        writer = SSTableWriter(fs, "/t.sst", block_target=2048, align_records=512)
        for i in range(12):
            writer.add(b"key%02d" % i, rng.randbytes(300) if i % 3 else None)
        writer.finish()
        reader = SSTableReader(fs, "/t.sst")
        for base in reader._load_blocks(list(range(reader.block_count))):
            for __ in range(400):
                try:
                    list(SSTableReader._iter_records(mutate(rng, base)))
                except CorruptRecord:
                    pass


class TestHostileMetadata:
    """Footer, index and bloom bytes are decoded on open; hostile ones
    raise only ``CorruptRecord`` — no ValueError, IndexError or a
    multi-exabyte allocation."""

    ENTRIES = [(b"k%03d" % i, b"v%03d" % i) for i in range(100)]

    def table(self, fs):
        """The table's bytes, split at the start of its index."""
        build_table(fs, self.ENTRIES)
        raw = fs.read_file("/t.sst")
        index_offset = struct.unpack_from("<Q", raw, len(raw) - 40)[0]
        return raw[:index_offset], raw[index_offset:]

    def open_and_read(self, fs, raw):
        fs.write_file("/bad.sst", raw)
        reader = SSTableReader(fs, "/bad.sst")
        for key, __ in self.ENTRIES[::9]:
            reader.get(key)
        list(reader.iterate())

    def test_footer_offset_past_the_file(self, fs):
        """Was ValueError: the bloom span landed on zero bytes."""
        data, meta = self.table(fs)
        footer = bytearray(meta[-40:])
        struct.pack_into("<Q", footer, 16, 1 << 40)  # bloom offset
        with pytest.raises(CorruptRecord):
            self.open_and_read(fs, data + meta[:-40] + bytes(footer))

    def test_index_entry_cut_before_its_flag(self, fs):
        """Was IndexError: the last entry's compressed flag lay past
        the index span."""
        data, meta = self.table(fs)
        index_offset, index_size, bloom_offset, bloom_size, magic = struct.unpack(
            "<QQQQQ", meta[-40:]
        )
        index = meta[:index_size][:-1]  # drop the last flag byte
        bloom = meta[index_size : index_size + bloom_size]
        footer = struct.pack(
            "<QQQQQ", index_offset, len(index), bloom_offset - 1, bloom_size, magic
        )
        with pytest.raises(CorruptRecord):
            self.open_and_read(fs, data + index + bloom + footer)

    @pytest.mark.parametrize("header", [b"\xff" * 12, b"\x00" * 12])
    def test_bloom_header_out_of_range(self, header):
        """``\\xff`` * 12 asked for a 2**64-bit array (MemoryError);
        ``\\x00`` * 12 raised ValueError."""
        with pytest.raises(CorruptRecord):
            BloomFilter.deserialize(header)

    def test_bloom_header_must_match_its_payload(self):
        payload = BloomFilter.for_capacity(100).serialize()
        assert BloomFilter.deserialize(payload).serialize() == payload
        for bad in (payload[:-1], payload + b"\x00", payload[:12]):
            with pytest.raises(CorruptRecord):
                BloomFilter.deserialize(bad)

    def test_mutation_sweep(self, fs):
        from tests.conftest import mutate

        rng = random.Random(27)
        data, meta = self.table(fs)
        for __ in range(3000):
            try:
                self.open_and_read(fs, data + mutate(rng, meta))
            except CorruptRecord:
                pass
