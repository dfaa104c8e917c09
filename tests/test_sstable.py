"""Tests for the SSTable file format."""

import json
import random
import struct

import pytest

from repro.compression import SnappyCodec
from repro.databases.bloom import BloomFilter
from repro.databases.common import CorruptRecord, encode_bytes, encode_varint
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
        blocks = reader._load_blocks(list(range(reader.block_count)))
        for (__, __, origin, __, __), base in zip(reader._blocks, blocks):
            for __ in range(400):
                mutated = mutate(rng, base)
                try:
                    list(SSTableReader._iter_records(mutated))
                except CorruptRecord:
                    pass
                try:
                    for __, __, extent in SSTableReader._iter_extents(mutated, origin, 512):
                        # An extent is only ever an aligned run inside the block.
                        assert extent is None or (
                            extent[0] % 512 == 0
                            and origin <= extent[0] < extent[0] + extent[1] <= origin + len(mutated)
                        )
                except CorruptRecord:
                    pass


def _parent_layout(fs, path, entries, align=256, block_target=1024):
    """An SSTable as the writer laid it out before records owned whole
    alignment units: a large record starts aligned but nothing pads its
    tail, so a small record may follow it directly and a data block may
    end in a zero gap before the next aligned block."""
    raw, index, buffer, keys = bytearray(), [], bytearray(), []

    def flush():
        offset = len(raw) + (-len(raw) % align)
        index.append((keys[0], keys[-1], offset, len(buffer)))
        raw[:] = raw.ljust(offset, b"\x00") + buffer
        buffer.clear()
        keys.clear()

    for key, value in entries:
        record = b"\x00" + encode_bytes(key) + encode_bytes(value)
        if len(record) > align // 2:
            buffer += b"\x02" * (-len(buffer) % align)
        buffer += record
        keys.append(key)
        if len(buffer) >= block_target:
            flush()
    flush()
    raw += b"\x00" * (-len(raw) % align)
    meta = bytearray(encode_varint(len(index)))
    for first, last, offset, size in index:
        meta += encode_bytes(first) + encode_bytes(last)
        meta += encode_varint(offset) + encode_varint(size) + b"\x00"
    bloom = BloomFilter.for_capacity(len(entries))
    for key, __ in entries:
        bloom.add(key)
    bloom_raw = bloom.serialize()
    footer = struct.pack(
        "<QQQQQ", len(raw), len(meta), len(raw) + len(meta), len(bloom_raw), 0x5353544142004C45
    )
    fs.write_file(path, bytes(raw + meta + bloom_raw + footer))


class TestSharedCompaction:
    """Compaction shares a record's blocks only where the source bytes
    prove they are exactly what the writer lays out for it."""

    BIG = [(b"k%d" % i, bytes([65 + i]) * 200) for i in range(8)]

    def _parent_entries(self):
        big = self.BIG
        # A (big) + b (small) directly after it; C1..C3 each followed by
        # filler up to the next aligned start; D ends block 0 before a
        # zero gap; E ends the table with small f after it.
        return [big[0], (b"k0b", b"x"), big[1], big[2], big[3], big[4], big[5], (b"k5f", b"y")]

    def _db_over(self, fs, tables):
        from repro.databases.minileveldb import MiniLevelDB

        fs.write_file("/db/wal.log", b"")
        manifest = {"levels": [[], tables], "next_table": 9}
        fs.write_file("/db/MANIFEST", json.dumps(manifest).encode())
        return MiniLevelDB(fs, "/db", block_target=1024, align_records=256)

    def test_parent_layout_reads_and_compacts_sharing_only_canonical_records(self):
        from repro.fs import CompressFS

        fs = CompressFS(block_size=256)
        entries = self._parent_entries()
        _parent_layout(fs, "/db/old.sst", entries)
        reader = SSTableReader(fs, "/db/old.sst")
        assert list(reader.iterate()) == entries
        assert all(reader.get(key) == (True, value) for key, value in entries)
        extents = {key: extent for key, __, extent in reader.iterate_extents(256)}
        assert {key: extent for key, extent in extents.items() if extent} == {
            b"k1": (256, 206), b"k2": (512, 206), b"k3": (768, 206),
        }
        cloned = []
        original = fs._clone_range

        def spy(src, src_off, dst, dst_off, length):
            done = original(src, src_off, dst, dst_off, length)
            cloned.extend(range(src_off, src_off + length, 256) if done else [])
            return done

        fs._clone_range = spy
        db = self._db_over(fs, ["/db/old.sst"])
        db.compact()
        assert sorted(cloned) == [256, 512, 768]
        assert list(db.scan()) == entries
        assert fs.engine.metrics().counter("engine.clone.blocks") == 3
        fs.engine.check_invariants()

    def test_one_compaction_writes_the_same_bytes_on_both_file_systems(self):
        import random

        from repro.databases.minileveldb import MiniLevelDB
        from repro.fs import CompressFS

        outputs = []
        shared = CompressFS(block_size=256)
        for fs in (shared, PassthroughFS(block_size=256)):
            rng = random.Random(31)
            db = MiniLevelDB(fs, "/db", memtable_limit=2048, l0_limit=3, block_target=1024)
            for __ in range(120):
                key = b"key%03d" % rng.randrange(60)
                if rng.random() < 0.1:
                    db.delete(key)
                else:
                    db.put(key, rng.randbytes(rng.choice((20, 150, 300, 700))))
            db.flush_memtable()
            db.compact()
            assert db.compactions >= 2
            outputs.append({path: fs.read_file(path) for level in db._levels for path in level})
        compressed, plain = outputs
        assert compressed == plain and compressed
        assert shared.engine.metrics().counter("engine.clone.blocks") > 100


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
