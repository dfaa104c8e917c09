"""Equivalence of POSIX-emulated vs pushed-down operations.

The baseline implements the seven operations through read/write/
truncate (Figure 4b); CompressDB pushes them into the engine.  Both
sides must produce the same bytes — CompressDB is just cheaper.
"""

import random

import pytest

from repro.fs import CompressFS, PassthroughFS, PosixOperations, PushdownOperations


@pytest.fixture
def pair():
    base = PassthroughFS(block_size=32)
    comp = CompressFS(block_size=32, page_capacity=3)
    data = b"the quick brown fox jumps over the lazy dog " * 6
    base.write_file("/f", data)
    comp.write_file("/f", data)
    return PosixOperations(base, io_chunk=64), PushdownOperations(comp), base, comp


class TestOperationEquivalence:
    def test_insert(self, pair):
        posix, pushdown, base, comp = pair
        posix.insert("/f", 17, b"PAYLOAD")
        pushdown.insert("/f", 17, b"PAYLOAD")
        assert base.read_file("/f") == comp.read_file("/f")

    def test_delete(self, pair):
        posix, pushdown, base, comp = pair
        posix.delete("/f", 5, 40)
        pushdown.delete("/f", 5, 40)
        assert base.read_file("/f") == comp.read_file("/f")

    def test_replace(self, pair):
        posix, pushdown, base, comp = pair
        posix.replace("/f", 3, b"REPL")
        pushdown.replace("/f", 3, b"REPL")
        assert base.read_file("/f") == comp.read_file("/f")

    def test_append(self, pair):
        posix, pushdown, base, comp = pair
        posix.append("/f", b"tail bytes")
        pushdown.append("/f", b"tail bytes")
        assert base.read_file("/f") == comp.read_file("/f")

    def test_extract(self, pair):
        posix, pushdown, __, __ = pair
        assert posix.extract("/f", 10, 50) == pushdown.extract("/f", 10, 50)

    def test_search(self, pair):
        posix, pushdown, __, __ = pair
        assert posix.search("/f", b"the") == pushdown.search("/f", b"the")

    def test_count(self, pair):
        posix, pushdown, __, __ = pair
        assert posix.count("/f", b"o") == pushdown.count("/f", b"o")

    def test_random_script_equivalence(self, pair):
        posix, pushdown, base, comp = pair
        rng = random.Random(99)
        for step in range(30):
            size = base.stat("/f").size
            op = rng.randrange(4)
            if op == 0:
                offset = rng.randrange(size + 1)
                payload = bytes(rng.randrange(97, 123) for __ in range(rng.randrange(50)))
                posix.insert("/f", offset, payload)
                pushdown.insert("/f", offset, payload)
            elif op == 1 and size:
                offset = rng.randrange(size)
                length = rng.randrange(size - offset + 1)
                posix.delete("/f", offset, length)
                pushdown.delete("/f", offset, length)
            elif op == 2 and size:
                offset = rng.randrange(size)
                payload = bytes(rng.randrange(97, 123) for __ in range(rng.randrange(size - offset + 1)))
                posix.replace("/f", offset, payload)
                pushdown.replace("/f", offset, payload)
            else:
                payload = bytes(rng.randrange(97, 123) for __ in range(rng.randrange(40)))
                posix.append("/f", payload)
                pushdown.append("/f", payload)
            assert base.read_file("/f") == comp.read_file("/f"), f"diverged at step {step}"
        comp.engine.check_invariants()


class TestSearchChunking:
    def test_posix_search_across_chunk_boundaries(self):
        fs = PassthroughFS(block_size=32)
        ops = PosixOperations(fs, io_chunk=16)  # force many chunks
        data = b"x" * 15 + b"NEEDLE" + b"y" * 30 + b"NEEDLE"
        fs.write_file("/f", data)
        assert ops.search("/f", b"NEEDLE") == [15, 51]

    def test_posix_search_overlapping(self):
        fs = PassthroughFS(block_size=8)
        ops = PosixOperations(fs, io_chunk=8)
        fs.write_file("/f", b"aaaaaaaaaa")
        assert ops.search("/f", b"aaa") == list(range(8))


class TestCostAsymmetry:
    def test_pushdown_insert_moves_less_data(self):
        """The reason Figure 10's insert speedups exist."""
        base = PassthroughFS(block_size=64)
        comp = CompressFS(block_size=64)
        payload = bytes(range(256)) * 32  # 8 KiB
        base.write_file("/f", payload)
        comp.write_file("/f", payload)
        base.device.stats.reset()
        comp.device.stats.reset()
        PosixOperations(base).insert("/f", 10, b"tiny")
        PushdownOperations(comp).insert("/f", 10, b"tiny")
        moved = {
            fs: fs.device.stats.snapshot().bytes_read
            + fs.device.stats.snapshot().bytes_written
            for fs in (base, comp)
        }
        assert (
            moved[comp] < moved[base] / 4
        ), "pushdown insert should move far fewer bytes than tail rewrite"
