"""The Raft log's on-device format under crashes, tears and random use.

The log is a snapshot plus a packed stream of ``crc32 | term | len |
command`` records (``repro.raft.log``).  Every test here runs on 128-byte
blocks, so a record boundary meets a block boundary every few entries: a
crash sweep over one script that visits each write shape, a seeded random
append / truncate / reopen walk against a Python list, the hard-state
block, and the one cut a truncation cannot leave to the CRC chain.  Then
the same for compaction — a crash sweep, a walk against a model, and a
mutation fuzz over the pointer, manifest and snapshot blocks — on a
device that fails any write to, or read of, a block on its free list.
"""

import copy
import random
import zlib

import pytest

from repro.raft.log import LAYOUT_MARK, LogEntry, RaftLog, RaftLogError
from repro.storage.block_device import (
    CrashPoint,
    CrashPointDevice,
    DeviceWrapper,
    MemoryBlockDevice,
)

BLOCK = 128
HEADER = 16  # crc32, term, command length


def _end(model):
    """Where the stream ends after ``model``'s ``(term, command)`` pairs."""
    return sum(HEADER + len(command) for __, command in model)


def _filler(model, tag):
    """A command that makes the next record end exactly at a block end
    (empty when no record that fits a block could)."""
    room = -(_end(model) + HEADER) % BLOCK
    return (tag * BLOCK)[:room] if HEADER + room <= BLOCK else b""


def _entries(log):
    return [(entry.term, entry.command) for entry in log.entries_from(1)]


def _script():
    """``(op, arguments, model afterwards)`` steps covering every write shape."""
    model, steps = [], []

    def append(term, commands, replicated=False):
        if replicated:
            first = len(model) + 1
            argument = (
                [LogEntry(term, first + i, command) for i, command in enumerate(commands)],
            )
        else:
            argument = (term, commands)
        model.extend((term, command) for command in commands)
        steps.append(("append_entries" if replicated else "append", argument, list(model)))

    def truncate(index):
        del model[index - 1 :]
        steps.append(("truncate_from", (index,), list(model)))

    steps.append(("set_hard_state", (1, "n1"), []))
    for i in range(3):  # single entries, all inside block 1
        append(1, [b"single-%d" % i])
    append(1, [b"crosses-into-block-2:" + b"x" * 60])
    assert _end(model[:-1]) // BLOCK != _end(model) // BLOCK
    append(2, [b"catch-up-%02d:" % i + b"y" * 30 for i in range(12)], replicated=True)
    assert _end(model) // BLOCK - _end(model[:-12]) // BLOCK >= 4
    truncate(9)  # mid-block
    assert _end(model) % BLOCK
    append(3, [b"after-cut-a", b"after-cut-b"])
    append(3, [_filler(model, b"f")])
    boundary = len(model) + 1
    append(3, [b"doomed-%d:" % i + b"z" * 50 for i in range(4)], replicated=True)
    truncate(boundary)  # exactly on a block boundary, stale blocks beyond
    assert _end(model) % BLOCK == 0
    append(4, [b"short"])
    truncate(len(model))
    append(4, [_filler(model, b"g")])  # ends exactly where a stale block begins
    assert _end(model) % BLOCK == 0
    steps.append(("set_hard_state", (4, None), list(model)))
    append(4, [b"last"])
    return steps


def _run(log, steps):
    """Apply ``steps``, yielding ``(model before, model after)`` before each."""
    before = []
    for op, argument, after in steps:
        yield op, before, after
        getattr(log, op)(*argument)
        before = after


class TestCrashSweep:
    def test_script_reopens_to_the_model_after_every_step(self):
        device = MemoryBlockDevice(block_size=BLOCK)
        log = RaftLog(device)
        for __, before, __ in _run(log, _script()):
            assert _entries(log) == _entries(RaftLog(device)) == before
        assert _entries(RaftLog(device)) == _script()[-1][2]
        assert (log.current_term, log.voted_for) == (4, None)

    @pytest.mark.parametrize("tear", [False, True], ids=["plain", "torn"])
    def test_crash_at_every_write_recovers_an_acked_prefix(self, tear):
        steps = _script()
        counting = CrashPointDevice(MemoryBlockDevice(block_size=BLOCK))
        for __ in _run(RaftLog(counting), steps):
            pass
        assert counting.writes_seen > 20
        for crash_after in range(1, counting.writes_seen + 1):
            inner = MemoryBlockDevice(block_size=BLOCK)
            log = RaftLog(CrashPointDevice(inner, crash_after=crash_after, tear=tear))
            with pytest.raises(CrashPoint):
                for op, before, after in _run(log, steps):
                    pass
            recovered = RaftLog(inner)
            got = _entries(recovered)
            if op == "truncate_from":
                # Un-acked: the pre-image or the post-image, nothing between.
                assert got in (before, after), crash_after
            else:
                assert got == after[: len(got)] and len(got) >= len(before), crash_after
            # Whatever the crash left beyond the tail is never read again.
            recovered.append(9, [b"after-recovery"])
            assert _entries(RaftLog(inner)) == got + [(9, b"after-recovery")], crash_after

    @pytest.mark.parametrize("tear", [False, True], ids=["plain", "torn"])
    @pytest.mark.parametrize(
        "new", [(3, "n2"), (3, None), (2, "a-longer-name")], ids=["vote", "term", "name"]
    )
    def test_hard_state_crash_keeps_old_or_new_vote(self, tear, new):
        inner = MemoryBlockDevice(block_size=BLOCK)
        RaftLog(inner).set_hard_state(2, "n1")
        log = RaftLog(CrashPointDevice(inner, crash_after=1, tear=tear))
        with pytest.raises(CrashPoint):
            log.set_hard_state(*new)
        recovered = RaftLog(inner)
        assert (recovered.current_term, recovered.voted_for) in ((2, "n1"), new)


class TestRandomWalk:
    @pytest.mark.parametrize("seed", range(200))
    def test_append_truncate_reopen_matches_a_list(self, seed):
        rng = random.Random(seed)
        device = MemoryBlockDevice(block_size=BLOCK)
        log = RaftLog(device)
        model = []
        term = 1
        for step in range(40):
            roll = rng.random()
            if roll < 0.55:
                term += rng.random() < 0.2
                commands = [
                    b"%d.%d.%d:" % (seed, step, i) + b"c" * rng.randrange(90)
                    for i in range(rng.randrange(1, 5))
                ]
                if rng.random() < 0.3:
                    commands.append(_filler(model + [(term, c) for c in commands], b"b"))
                if rng.random() < 0.5:
                    log.append(term, commands)
                else:
                    log.append_entries(
                        [
                            LogEntry(term, len(model) + 1 + i, command)
                            for i, command in enumerate(commands)
                        ]
                    )
                model.extend((term, command) for command in commands)
            elif roll < 0.8 and model:
                index = rng.randrange(1, len(model) + 1)
                log.truncate_from(index)
                del model[index - 1 :]
            else:
                log = RaftLog(device)
            assert _entries(log) == model
            assert [e.index for e in log.entries_from(1)] == list(range(1, len(model) + 1))
        assert _entries(RaftLog(device)) == model


class TestTruncationCut:
    def test_cut_record_straddling_the_block_end_stays_cut(self):
        """Seeded regression.  The record at the cut chains from the
        prefix that survives, so only zeroing it stops recovery there.
        With one header byte left in the block and that byte of its CRC
        already zero, zeroing "the rest of the block" changes nothing —
        the truncation has to reach into the next block."""
        first = (b"p" * BLOCK)[: BLOCK - 1 - HEADER]
        for attempt in range(10_000):
            device = MemoryBlockDevice(block_size=BLOCK)
            log = RaftLog(device)
            log.append(1, [first])
            log.append(1, [b"victim-%d" % attempt])
            if device.read_block(1)[BLOCK - 1] == 0:
                break
        else:
            pytest.fail("no victim with a zero CRC byte found")
        log.truncate_from(2)
        assert _entries(RaftLog(device)) == [(1, first)]
        log.append(2, [b"next"])
        assert _entries(RaftLog(device)) == [(1, first), (2, b"next")]


class FreeListGuard(DeviceWrapper):
    """Fails any write to, or read of, a block on the device's free list."""

    def write_blocks(self, pairs):
        pairs = list(pairs)
        freed = {block for block, __ in pairs} & self.inner._free_set
        assert not freed, f"wrote freed blocks {sorted(freed)}"
        self.inner.write_blocks(pairs)

    def read_blocks(self, block_nos):
        freed = set(block_nos) & self.inner._free_set
        assert not freed, f"read freed blocks {sorted(freed)}"
        return self.inner.read_blocks(block_nos)


def _view(log):
    """Everything a log holds: snapshot, entries after it, hard state."""
    entries = log.entries_from(log.snapshot_index + 1)
    assert [e.index for e in entries] == list(
        range(log.snapshot_index + 1, log.last_index + 1)
    )
    return (
        (log.snapshot_index, log.snapshot_term, log.snapshot),
        [(e.term, e.command) for e in entries],
        (log.current_term, log.voted_for),
    )


def _reopen(inner):
    """Recover from ``inner`` and check the space it leaves allocated."""
    log = RaftLog(FreeListGuard(inner))
    assert log.live_blocks == inner.allocated_blocks
    return log


def _compaction_script():
    """``(op, arguments, view afterwards)`` steps: a first compaction out
    of the plain layout, a stream that outgrows its blocks, a truncation
    and a vote behind a snapshot, a compaction that keeps no tail, and an
    installed snapshot that replaces the whole log."""
    snapshot, entries, hard, steps = (0, 0, b""), [], (0, None), []

    def step(op, *argument):
        steps.append((op, argument, (snapshot, list(entries), hard)))

    def append(term, commands):
        entries.extend((term, command) for command in commands)
        step("append", term, commands)

    def compact(index, term, data):
        nonlocal snapshot, entries
        keep = snapshot[0] < index <= snapshot[0] + len(entries)
        keep = keep and entries[index - snapshot[0] - 1][0] == term
        entries = entries[index - snapshot[0] :] if keep else []
        snapshot = (index, term, data)
        step("compact", index, term, data)

    def truncate(index):
        del entries[index - snapshot[0] - 1 :]
        step("truncate_from", index)

    def vote(term, name):
        nonlocal hard
        hard = (term, name)
        step("set_hard_state", term, name)

    vote(1, "n1")
    append(1, [b"plain-%d:" % i + b"p" * 20 for i in range(6)])
    compact(4, 1, b"S" * 300)  # three blocks; entries 5 and 6 stay
    append(2, [b"grow-%02d:" % i + b"g" * 40 for i in range(12)])
    truncate(12)
    vote(3, None)
    append(3, [b"after-vote"])
    compact(snapshot[0] + len(entries), 3, b"T" * 200)  # no tail
    append(3, [b"tail-a", b"tail-b"])
    compact(40, 9, b"U" * 150)  # a leader's snapshot past this log
    append(9, [b"installed-%d" % i for i in range(3)])
    return steps


class TestCompactionCrashSweep:
    def test_script_reopens_to_the_model_after_every_step(self):
        inner = MemoryBlockDevice(block_size=BLOCK)
        log = RaftLog(FreeListGuard(inner))
        for op, argument, after in _compaction_script():
            getattr(log, op)(*argument)
            assert _view(log) == _view(_reopen(inner)) == after, op
        assert log.live_blocks == inner.allocated_blocks
        assert inner.read_block(1).startswith(LAYOUT_MARK)

    @pytest.mark.parametrize("tear", [False, True], ids=["plain", "torn"])
    def test_crash_at_every_write_recovers_old_or_new(self, tear):
        steps = _compaction_script()
        counting = CrashPointDevice(MemoryBlockDevice(block_size=BLOCK))
        log = RaftLog(counting)
        for op, argument, __ in steps:
            getattr(log, op)(*argument)
        assert counting.writes_seen > 30
        empty = ((0, 0, b""), [], (0, None))
        for crash_after in range(1, counting.writes_seen + 1):
            inner = MemoryBlockDevice(block_size=BLOCK)
            log = RaftLog(CrashPointDevice(FreeListGuard(inner), crash_after, tear))
            before = empty
            with pytest.raises(CrashPoint):
                for op, argument, after in steps:
                    getattr(log, op)(*argument)
                    before = after
            got = _view(_reopen(inner))
            if op == "append":
                # Same snapshot, and an acked prefix of the new entries.
                assert got[0] == before[0] and got[2] == before[2], crash_after
                assert got[1] == after[1][: len(got[1])], crash_after
                assert len(got[1]) >= len(before[1]), crash_after
            else:
                # The previous snapshot and log, or the new ones.
                assert got in (before, after), (crash_after, op)
            # Whatever the crash left behind is never read again.
            recovered = _reopen(inner)
            recovered.append(20, [b"after-recovery"])
            assert _view(_reopen(inner))[1] == got[1] + [(20, b"after-recovery")]


class TestCompactionFormat:
    def test_a_kept_tail_is_repacked_byte_for_byte(self):
        """The stream after a snapshot is seeded with the chain crc of
        the snapshot's last entry, so the records it keeps keep their
        crcs; an installed snapshot seeds it with its own crc32."""
        log = RaftLog(MemoryBlockDevice(block_size=BLOCK))
        log.append(1, [b"a" * 20, b"b" * 20, b"c" * 20])
        record = HEADER + 20
        third = log.device.read_block(1)[2 * record : 3 * record]
        log.compact(2, 1, b"snapshot")
        assert log.device.read_block(log._blocks[0])[:record] == third
        log.compact(9, 2, b"installed")
        log.append(2, [b"d" * 20])
        body = log.device.read_block(log._blocks[0])[:record]
        assert body[:4] == zlib.crc32(body[4:], zlib.crc32(b"installed")).to_bytes(4, "little")


class TestCompactionWalk:
    @pytest.mark.parametrize("seed", range(60))
    def test_append_truncate_compact_reopen_matches_a_model(self, seed):
        rng = random.Random(seed)
        inner = MemoryBlockDevice(block_size=BLOCK)
        log = RaftLog(FreeListGuard(inner))
        base, base_term, snapshot, model = 0, 0, b"", []
        term = 1
        for step in range(60):
            roll = rng.random()
            if roll < 0.5:
                term += rng.random() < 0.2
                commands = [
                    b"%d.%d.%d:" % (seed, step, i) + b"c" * rng.randrange(60)
                    for i in range(rng.randrange(1, 4))
                ]
                log.append(term, commands)
                model.extend((term, command) for command in commands)
            elif roll < 0.65 and model:
                index = rng.randrange(base + 1, base + len(model) + 1)
                log.truncate_from(index)
                del model[index - base - 1 :]
            elif roll < 0.9 and (model or roll < 0.7):
                if model and rng.random() < 0.8:  # a replica's own snapshot
                    index = base + len(model) - rng.randrange(min(3, len(model)))
                    base_term = model[index - base - 1][0]
                    model = model[index - base :]
                else:  # a leader's, past or across this log
                    index = base + len(model) + rng.randrange(1, 5)
                    base_term, model = term + 1, []
                    term += 1
                snapshot = b"%d.%d" % (seed, step) * rng.randrange(1, 25)
                freed_before = len(inner._free_set)
                log.compact(index, base_term, snapshot)
                base = index
                assert log.live_blocks == inner.allocated_blocks
                assert len(inner._free_set) >= freed_before
            else:
                log = _reopen(inner)
            assert (log.snapshot_index, log.snapshot_term, log.snapshot) == (
                base, base_term, snapshot,
            )
            assert _view(log)[1] == model
            if log.compaction_due and model and rng.random() < 0.9:
                index = base + len(model)
                base_term, model, base = model[-1][0], [], index
                snapshot = b"due-%d" % step
                log.compact(index, base_term, snapshot)
        assert _view(_reopen(inner))[0:2] == ((base, base_term, snapshot), model)


def _mutate(rng, raw, start, end):
    """One seeded mutation inside ``raw[start:end]``: a bit flip, a random
    byte, a random run, or zeros from a position to the block's end."""
    raw = bytearray(raw)
    at = rng.randrange(start, end)
    kind = rng.randrange(4)
    if kind == 0:
        raw[at] ^= 1 << rng.randrange(8)
    elif kind == 1:
        raw[at] = rng.randrange(256)
    elif kind == 2:
        run = rng.randbytes(rng.randrange(1, 9))
        raw[at : at + len(run)] = run[: len(raw) - at]
    else:
        raw[at:] = bytes(len(raw) - at)
    return bytes(raw)


def _fuzz_subject(kind):
    """A compacted log to damage: the compaction script's, or one whose
    16-block snapshot needs a manifest of two blocks."""
    inner = MemoryBlockDevice(block_size=BLOCK)
    log = RaftLog(inner)
    if kind == "script":
        for op, argument, __ in _compaction_script()[:-2]:
            getattr(log, op)(*argument)
    else:
        log.set_hard_state(2, "n2")
        log.append(1, [b"entry-%d" % i for i in range(5)])
        log.compact(3, 1, bytes(range(256)) * 8)
        log.append(2, [b"more"])
        assert len(log._manifest) == 2
    return inner, log


class TestHostileSnapshotBytes:
    @pytest.mark.parametrize("kind", ["script", "two-block manifest"])
    def test_damage_recovers_the_same_log_or_raises_raft_log_error(self, kind):
        inner, log = _fuzz_subject(kind)
        expected = _view(log)
        pointer = 20 + len(log.voted_for or "")  # magic, term, length, name
        listed = 44 + 4 * (len(log._snapshot_blocks) + len(log._blocks))
        chain, room = log._manifest, BLOCK - 4  # each block: next block, piece

        def record(start, end):
            """Bytes ``start..end`` of the manifest record, as regions."""
            return [
                (block, 4 + max(start - i * room, 0), 4 + min(end - i * room, room))
                for i, block in enumerate(chain)
                if start < (i + 1) * room and end > i * room
            ]

        payload = [
            (block, 0, min(BLOCK, len(log.snapshot) - i * BLOCK))
            for i, block in enumerate(log._snapshot_blocks)
        ]
        guarded = {
            "hard state": [(0, 0, pointer)],
            "pointer": [(0, pointer, pointer + 4)],
            "pointer crc": [(0, pointer + 4, pointer + 8)],
            "manifest links": [(block, 0, 4) for block in chain],
            "manifest header": record(0, 44),
            "manifest block list": record(44, listed),
            "manifest crc": record(listed, listed + 4),
            "snapshot payload": payload,
        }
        redundant = {
            "after block 0's record": [(0, pointer + 8, BLOCK)],
            "after the manifest": [(chain[-1], record(0, listed + 4)[-1][2], BLOCK)],
            "layout mark": [(1, 0, BLOCK)],
        }
        rng = random.Random(20261017)
        for name, regions in {**guarded, **redundant}.items():
            raised = 0
            for trial in range(300):
                block, start, end = regions[trial % len(regions)]
                damaged = copy.deepcopy(inner)
                damaged._write(block, _mutate(rng, damaged._read(block), start, end))
                try:
                    got = _view(RaftLog(damaged))
                except RaftLogError:
                    raised += 1
                    continue
                assert got == expected, (name, trial)
            # Guarded bytes are caught (a mutation may rewrite what was
            # there); redundant ones never cost the log.
            assert raised > 240 if name in guarded else raised == 0, (name, raised)


class TestLargeSnapshots:
    def test_a_manifest_spans_as_many_blocks_as_its_list_needs(self):
        inner = MemoryBlockDevice(block_size=BLOCK)
        log = RaftLog(FreeListGuard(inner))
        log.append(1, [b"a-%d" % i for i in range(10)])
        log.compact(8, 1, b"S" * 2000)  # 16 snapshot blocks, 17 of room
        assert len(log._manifest) == 2
        assert _view(_reopen(inner)) == _view(log)
        # The stream outgrows its room: fresh blocks, a longer manifest.
        log.append(2, [b"grow-%03d:" % i + b"g" * 90 for i in range(60)])
        assert len(log._blocks) > 40 and len(log._manifest) == 3
        assert _view(_reopen(inner)) == _view(log)
        freed = log.compact(log.last_index - 1, 2, b"T" * 5000)
        assert freed > 16 + 40
        assert _view(_reopen(inner)) == _view(log)
        assert len(log._manifest) == 3
        assert log.live_blocks == inner.allocated_blocks

    def test_old_bytes_in_a_room_block_are_never_read_as_entries(self):
        """Recovery hands the blocks no manifest names back to the
        device as they are — after a crash between the pointer flip and
        the frees, the whole old stream — so a room block a later
        compaction takes may hold records that chain.  Here it holds
        exactly the records this log would write next, the second of
        which it never does.  An append that ends on a block boundary
        zeroes the header after it."""

        def build(device):
            log = RaftLog(device)
            log.append(1, [b"a" * 20] * 3)
            log.compact(3, 1, b"S" * 100)
            return log

        fill = b"f" * (BLOCK - HEADER)
        twin = build(MemoryBlockDevice(block_size=BLOCK))
        twin.append(1, [fill, b"ghost"])
        inner = MemoryBlockDevice(block_size=BLOCK)
        log = build(inner)
        assert log._blocks == twin._blocks
        stale = log._blocks[1]
        inner._write(stale, twin.device.read_block(stale))
        log.append(1, [fill])
        assert _view(RaftLog(inner))[1] == [(1, fill)]

    @pytest.mark.parametrize("seed", range(30))
    def test_boundary_appends_after_crashed_compactions(self, seed):
        """Compactions die at a random write, plain or torn; the appends
        between them end on, or just short of, a block boundary, on
        blocks recovery has handed back as they were."""
        rng = random.Random(seed)
        inner = MemoryBlockDevice(block_size=BLOCK)
        log = RaftLog(FreeListGuard(inner))
        log.append(1, [b"first"])
        log.compact(1, 1, b"base")
        term = 1
        for step in range(60):
            before = _view(log)
            base = log.snapshot_index
            roll = rng.random()
            if roll < 0.55:
                command = _filler(before[1], b"%d" % (step % 10))
                short = rng.choice([0, 0, 1, 7, 15])
                command = command[: max(len(command) - short, 1)] or b"x"
                log.append(term, [command])
                expected = [(before[0], before[1] + [(term, command)], before[2])]
            elif roll < 0.7 and before[1]:
                index = rng.randrange(base + 1, log.last_index + 1)
                log.truncate_from(index)
                expected = [(before[0], before[1][: index - base - 1], before[2])]
            else:
                if before[1] and rng.random() < 0.7:  # a replica's own
                    index = rng.randrange(base + 1, log.last_index + 1)
                    index_term = log.term_at(index)
                else:  # a leader's, past this log
                    term += 1
                    index, index_term = log.last_index + rng.randrange(1, 4), term
                snapshot = b"%d:%d;" % (seed, step) * rng.randrange(1, 40)
                twin = copy.deepcopy(inner)
                RaftLog(twin).compact(index, index_term, snapshot)
                doomed = RaftLog(
                    CrashPointDevice(
                        FreeListGuard(inner), rng.randrange(1, 6), rng.random() < 0.5
                    )
                )
                try:
                    doomed.compact(index, index_term, snapshot)
                except CrashPoint:
                    pass
                expected = [before, _view(RaftLog(twin))]
            log = _reopen(inner)
            assert _view(log) in expected, step
