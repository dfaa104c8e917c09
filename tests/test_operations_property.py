"""Property-based tests: the engine vs a plain-bytearray reference model.

DESIGN.md invariant 1: any sequence of manipulations on a CompressFS
file must read back identically to the same operations applied to a
bytearray — while every internal invariant (refcounts, dedup, hole
accounting) keeps holding.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.engine import CompressDB

_PAYLOAD = st.binary(max_size=200)


class EngineModel(RuleBasedStateMachine):
    """Random op sequences against the engine and a bytearray twin."""

    def __init__(self):
        super().__init__()
        self.engine = CompressDB(block_size=32, page_capacity=3)
        self.engine.create("/f")
        self.reference = bytearray()

    @rule(data=_PAYLOAD)
    def append(self, data):
        self.engine.ops.append("/f", data)
        self.reference.extend(data)

    @rule(data=_PAYLOAD, position=st.floats(0, 1))
    def insert(self, data, position):
        offset = int(position * len(self.reference))
        self.engine.ops.insert("/f", offset, data)
        self.reference[offset:offset] = data

    @rule(position=st.floats(0, 1), fraction=st.floats(0, 1))
    def delete(self, position, fraction):
        offset = int(position * len(self.reference))
        length = int(fraction * (len(self.reference) - offset))
        self.engine.ops.delete("/f", offset, length)
        del self.reference[offset : offset + length]

    @rule(data=_PAYLOAD, position=st.floats(0, 1))
    def replace(self, data, position):
        if not self.reference:
            return
        offset = int(position * len(self.reference))
        data = data[: len(self.reference) - offset]
        self.engine.ops.replace("/f", offset, data)
        self.reference[offset : offset + len(data)] = data

    @rule(data=_PAYLOAD, position=st.floats(0, 1.2))
    def posix_write(self, data, position):
        offset = int(position * (len(self.reference) + 1))
        self.engine.write("/f", offset, data)
        if not data:
            return  # POSIX: zero-length writes never extend the file
        if offset > len(self.reference):
            self.reference.extend(b"\x00" * (offset - len(self.reference)))
        self.reference[offset : offset + len(data)] = data

    @rule(position=st.floats(0, 1.2))
    def truncate(self, position):
        size = int(position * (len(self.reference) + 8))
        self.engine.truncate("/f", size)
        if size < len(self.reference):
            del self.reference[size:]
        else:
            self.reference.extend(b"\x00" * (size - len(self.reference)))

    @invariant()
    def contents_match(self):
        assert self.engine.read_file("/f") == bytes(self.reference)

    @invariant()
    def engine_invariants_hold(self):
        self.engine.check_invariants()

    @invariant()
    def size_matches(self):
        assert self.engine.file_size("/f") == len(self.reference)


EngineModelTest = EngineModel.TestCase
EngineModelTest.settings = settings(max_examples=30, stateful_step_count=20, deadline=None)


@given(
    chunks=st.lists(st.binary(min_size=1, max_size=80), min_size=1, max_size=8),
    pattern=st.binary(min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_search_matches_naive_find(chunks, pattern):
    """DESIGN.md invariant 5: search == offsets of bytes.find."""
    engine = CompressDB(block_size=16, page_capacity=3)
    engine.create("/f")
    for chunk in chunks:
        engine.ops.append("/f", chunk)
    data = b"".join(chunks)
    expected = []
    index = data.find(pattern)
    while index != -1:
        expected.append(index)
        index = data.find(pattern, index + 1)
    assert engine.ops.search("/f", pattern) == expected
    assert engine.ops.count("/f", pattern) == len(expected)


@given(
    blocks=st.lists(st.sampled_from([b"A" * 16, b"B" * 16, b"C" * 16]), min_size=1, max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_dedup_stores_each_distinct_block_once(blocks):
    """DESIGN.md invariant 3: full dedup of identical blocks."""
    engine = CompressDB(block_size=16, page_capacity=4)
    engine.create("/f")
    engine.ops.append("/f", b"".join(blocks))
    assert engine.physical_data_blocks() == len(set(blocks))
    engine.check_invariants()


@given(
    data=st.binary(min_size=1, max_size=300),
    offsets=st.lists(st.floats(0, 1), min_size=1, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_extract_any_range_matches_slice(data, offsets):
    engine = CompressDB(block_size=16, page_capacity=3)
    engine.create("/f")
    engine.ops.append("/f", data)
    for fraction in offsets:
        offset = int(fraction * len(data))
        size = len(data) - offset
        assert engine.ops.extract("/f", offset, size) == data[offset : offset + size]


# -- search/count on adversarial slot layouts --------------------------------
_BS = 8
_SYMBOL = st.sampled_from([b"a", b"b", b"\x00"])
_PIECE = st.one_of(st.integers(1, 3), st.integers(1, _BS)).flatmap(
    lambda size: st.lists(_SYMBOL, min_size=size, max_size=size).map(b"".join)
)


def _engine_with_slots(pieces):
    """An engine whose ``/f`` holds exactly one slot per piece: an
    insert at offset 0 is slot-aligned, so it splices its own slot in
    front instead of filling a neighbour's hole."""
    engine = CompressDB(block_size=_BS, page_capacity=3)
    engine.create("/f")
    for piece in reversed(pieces):
        engine.ops.insert("/f", 0, piece)
    assert [slot.used for slot in engine.inode("/f").iter_slots()] == [len(p) for p in pieces]
    return engine


def _check_search_and_count(engine, reference, pattern):
    """search == a naive scan, count == len(search), and the scan costs
    one ``read_blocks`` over the distinct blocks (the parent's I/O)."""
    reference = bytes(reference)
    expected = [
        i for i in range(len(reference) - len(pattern) + 1)
        if pattern and reference[i : i + len(pattern)] == pattern
    ]
    distinct = len({slot.block_no for slot in engine.inode("/f").iter_slots()})
    scans = 0 < len(pattern) <= len(reference)
    for call, want in ((engine.ops.search, expected), (engine.ops.count, len(expected))):
        before = engine.device.stats.snapshot()
        assert call("/f", pattern) == want
        after = engine.device.stats.snapshot()
        assert after.block_reads - before.block_reads == (distinct if scans else 0)
        assert after.batched_reads - before.batched_reads == int(scans and distinct > 1)


@given(
    pieces=st.lists(_PIECE, min_size=1, max_size=14),
    edits=st.lists(
        st.tuples(st.booleans(), st.floats(0, 1), st.integers(1, 2 * _BS), _PIECE), max_size=4
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_search_and_count_on_adversarial_layouts(pieces, edits, data):
    """Runs of 1-3-byte slots (``delete(merge_holes=False)`` and
    unaligned inserts add more), zero bytes in the data *and* in the
    holes' padding, patterns from one byte to over two blocks."""
    engine = _engine_with_slots(pieces)
    reference = bytearray(b"".join(pieces))
    for is_delete, position, length, payload in edits:
        offset = int(position * len(reference))
        if is_delete:
            length = min(length, len(reference) - offset)
            engine.ops.delete("/f", offset, length, merge_holes=False)
            del reference[offset : offset + length]
        else:
            engine.ops.insert("/f", offset, payload)
            reference[offset:offset] = payload
    assert engine.read_file("/f") == bytes(reference)
    patterns = [b"\x00\x00", b"aa", b"ab\x00"]
    for m in (1, _BS, _BS + 3, 2 * _BS + 5):
        if m <= len(reference):  # a pattern the file is known to hold
            start = data.draw(st.integers(0, len(reference) - m))
            patterns.append(bytes(reference[start : start + m]))
        patterns.append(b"".join(data.draw(st.lists(_SYMBOL, min_size=m, max_size=m))))
    for pattern in patterns:
        _check_search_and_count(engine, reference, pattern)


def test_hole_padding_never_completes_a_match():
    """One block behind four slots with different ``used``: the bytes
    past ``used`` are zero padding, in the stitched buffer but not in
    the file."""
    pieces = [b"ab", b"ab\x00", b"ab\x00\x00\x00", b"ab" + bytes(6), b"b"]
    engine = _engine_with_slots(pieces)
    assert len({slot.block_no for slot in engine.inode("/f").iter_slots()}) == 2
    for pattern in (
        b"\x00\x00", b"\x00", b"b\x00", b"\x00a", b"\x00\x00\x00ab", b"b" + bytes(6) + b"b",
    ):
        _check_search_and_count(engine, b"".join(pieces), pattern)


def test_match_ending_exactly_at_used_is_kept():
    pieces = [b"xxab", b"xab", b"ab", b"a", b"b"]
    engine = _engine_with_slots(pieces)
    assert engine.ops.search("/f", b"ab") == [2, 5, 7, 9]
    for pattern in (b"ab", b"b", b"xab", b"abxab", b"ababab", b""):
        _check_search_and_count(engine, b"".join(pieces), pattern)
