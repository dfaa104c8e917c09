"""The Raft log's on-device format under crashes, tears and random use.

The log is a packed stream of ``crc32 | term | len | command`` records
(``repro.raft.log``).  Every test here runs on 128-byte blocks, so a
record boundary meets a block boundary every few entries: a crash sweep
over one script that visits each write shape, a seeded random
append / truncate / reopen walk against a Python list, the hard-state
block, and the one cut a truncation cannot leave to the CRC chain.
"""

import random

import pytest

from repro.raft.log import LogEntry, RaftLog
from repro.storage.block_device import (
    CrashPoint,
    CrashPointDevice,
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
