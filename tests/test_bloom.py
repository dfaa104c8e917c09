"""Tests for the Bloom filter and its SSTable integration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.databases.bloom import BloomFilter
from repro.databases.minileveldb import MiniLevelDB
from repro.databases.sstable import SSTableReader, SSTableWriter
from repro.fs import PassthroughFS


class TestBloomFilter:
    def test_added_keys_always_found(self):
        bloom = BloomFilter.for_capacity(100)
        keys = [b"key-%d" % i for i in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)  # no false negatives

    def test_false_positive_rate_in_regime(self):
        bloom = BloomFilter.for_capacity(500, false_positive_rate=0.01)
        for i in range(500):
            bloom.add(b"member-%d" % i)
        false_positives = sum(
            1 for i in range(5000) if b"absent-%d" % i in bloom
        )
        assert false_positives / 5000 < 0.05

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter.for_capacity(10)
        assert b"anything" not in bloom
        assert bloom.fill_ratio() == 0.0

    def test_serialize_roundtrip(self):
        bloom = BloomFilter.for_capacity(50)
        for i in range(50):
            bloom.add(b"k%d" % i)
        restored = BloomFilter.deserialize(bloom.serialize())
        assert restored.bits == bloom.bits
        assert restored.hashes == bloom.hashes
        assert all(b"k%d" % i in restored for i in range(50))

    def test_sizing_validations(self):
        with pytest.raises(ValueError):
            BloomFilter(bits=0, hashes=1)
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(10, false_positive_rate=1.5)

    def test_lower_fp_rate_uses_more_bits(self):
        loose = BloomFilter.for_capacity(1000, 0.1)
        tight = BloomFilter.for_capacity(1000, 0.001)
        assert tight.bits > loose.bits


@given(st.sets(st.binary(min_size=1, max_size=12), max_size=60))
@settings(max_examples=60, deadline=None)
def test_bloom_never_false_negative(keys):
    bloom = BloomFilter.for_capacity(len(keys) or 1)
    for key in keys:
        bloom.add(key)
    assert all(key in bloom for key in keys)


class TestSSTableBloom:
    def test_absent_key_skips_block_reads(self):
        fs = PassthroughFS(block_size=256)
        writer = SSTableWriter(fs, "/t.sst", block_target=128)
        for i in range(200):
            writer.add(b"key%04d" % (i * 2), b"value")
        writer.finish()
        reader = SSTableReader(fs, "/t.sst")
        fs.device.stats.reset()
        misses = 0
        for i in range(200):
            found, __ = reader.get(b"absent%04d" % i)
            assert not found
            misses += 1
        # Nearly every lookup must be answered by the filter alone.
        assert reader.bloom_negatives > misses * 0.9
        assert fs.device.stats.snapshot().block_reads < misses

    def test_present_keys_unaffected(self):
        fs = PassthroughFS(block_size=256)
        writer = SSTableWriter(fs, "/t.sst", block_target=128)
        entries = [(b"key%04d" % i, b"v%d" % i) for i in range(100)]
        for key, value in entries:
            writer.add(key, value)
        writer.finish()
        reader = SSTableReader(fs, "/t.sst")
        for key, value in entries:
            assert reader.get(key) == (True, value)

    def test_lsm_negative_lookups_get_cheaper(self):
        """End to end: absent-key Gets mostly cost no table I/O."""
        fs = PassthroughFS(block_size=256)
        db = MiniLevelDB(fs, memtable_limit=1024, l0_limit=8)
        rng = random.Random(3)
        for i in range(300):
            db.put(b"present%04d" % i, b"v" * rng.randrange(1, 30))
        db.close()
        fs.device.stats.reset()
        for i in range(300):
            assert db.get(b"missing%04d" % i) is None
        reads_with_bloom = fs.device.stats.snapshot().block_reads
        # The same lookups without filters would touch a data block per
        # (table, key) pair; with filters almost nothing is read.
        assert reads_with_bloom < 50
