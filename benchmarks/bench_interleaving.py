"""Section 6.3, interleaving operations — and MVCC session concurrency.

The paper mixes the seven operation types (~14% each) and reports that
extract/replace/search/append/count slow down mildly versus running
each type in isolation (4–18%), insert/delete stay the same, and the
overall CompressDB advantage over the baseline persists (~19% under
mixed workloads).

On top of the single-stream mix, this benchmark measures the MVCC
session layer (DESIGN.md §13): how many journal commit sequences 64
concurrent small writers need (group commit must batch them into
``<= GROUP_COMMIT_BOUND``), the abort rate under single-file
contention, and the snapshot read path's simulated-time overhead
against direct engine reads (``<= READ_OVERHEAD_BOUND``).  A full
standalone run writes ``BENCH_mvcc.json``; a ``--smoke`` or pytest run
writes ``benchmarks/out/BENCH_mvcc.json`` instead.  Runnable standalone
(``python benchmarks/bench_interleaving.py [--smoke]``) or under
pytest with the benchmark suite.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from _shared import trajectory_path

from repro.bench import make_fs, print_table
from repro.core.engine import CompressDB
from repro.distributed.interleave import run_mvcc_sessions
from repro.fs.posix_ops import PosixOperations, PushdownOperations
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.simclock import HDD_5400RPM, SimClock
from repro.workloads import generate_dataset

#: 64 concurrent writers must need at most this many journal sequences.
GROUP_COMMIT_BOUND = 8
#: Snapshot reads may cost at most 10% over direct engine reads.
READ_OVERHEAD_BOUND = 1.10

MVCC_JSON_NAME = "BENCH_mvcc.json"

OP_NAMES = ("extract", "replace", "insert", "delete", "append", "search", "count")
OPS_PER_TYPE = 12


def _apply(ops, path, op_name, rng, size):
    offset = rng.randrange(max(1, size - 2048))
    if op_name == "extract":
        ops.extract(path, offset, 512)
    elif op_name == "replace":
        ops.replace(path, offset, b"mixed-replace!")
    elif op_name == "insert":
        ops.insert(path, offset, b"mixed-insert")
        return size + 12
    elif op_name == "delete":
        ops.delete(path, offset, 12)
        return size - 12
    elif op_name == "append":
        ops.append(path, b"mixed-append " * 2)
        return size + 26
    elif op_name == "search":
        ops.search(path, b"the")
    elif op_name == "count":
        ops.count(path, b"data")
    return size


def _setup(variant):
    mounted = make_fs(variant, cache_blocks=32)
    data = generate_dataset("D", scale=0.15).concatenated()
    mounted.fs.write_file("/f", data)
    if variant == "baseline":
        return mounted, PosixOperations(mounted.fs), len(data)
    return mounted, PushdownOperations(mounted.fs), len(data)


def _isolated(variant):
    """Per-op simulated time when each type runs on its own mount."""
    times = {}
    for op_name in OP_NAMES:
        mounted, ops, size = _setup(variant)
        rng = random.Random(5)
        start = mounted.clock.now
        for __ in range(OPS_PER_TYPE):
            size = _apply(ops, "/f", op_name, rng, size)
        times[op_name] = (mounted.clock.now - start) / OPS_PER_TYPE
    return times


def _interleaved(variant):
    """Per-op simulated time within one shuffled mixed stream."""
    mounted, ops, size = _setup(variant)
    rng = random.Random(5)
    schedule = list(OP_NAMES) * OPS_PER_TYPE
    rng.shuffle(schedule)
    totals = {op: 0.0 for op in OP_NAMES}
    counts = {op: 0 for op in OP_NAMES}
    overall_start = mounted.clock.now
    for op_name in schedule:
        start = mounted.clock.now
        size = _apply(ops, "/f", op_name, rng, size)
        totals[op_name] += mounted.clock.now - start
        counts[op_name] += 1
    overall = mounted.clock.now - overall_start
    return {op: totals[op] / counts[op] for op in OP_NAMES}, overall


def test_interleaving(benchmark):
    def run():
        return (
            _isolated("compressdb"),
            _interleaved("compressdb"),
            _interleaved("baseline"),
        )

    isolated, (mixed, comp_total), (__, base_total) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = []
    for op_name in OP_NAMES:
        change = (mixed[op_name] / isolated[op_name] - 1) * 100
        rows.append(
            [
                op_name,
                f"{isolated[op_name] * 1e3:.2f}",
                f"{mixed[op_name] * 1e3:.2f}",
                f"{change:+.1f}%",
            ]
        )
    print_table(
        ["operation", "isolated (ms)", "interleaved (ms)", "latency change"],
        rows,
        title="Section 6.3: interleaving operations (CompressDB)",
    )
    gain = (base_total / comp_total - 1) * 100
    print(
        f"\nCompressDB advantage under the mixed workload: {gain:.0f}% "
        "(paper reports 18.82% is maintained)"
    )
    assert gain > 0, "CompressDB must stay ahead under mixed workloads"


# ---------------------------------------------------------------------------
# MVCC sessions: group commit, contention, snapshot read overhead
# ---------------------------------------------------------------------------


def _mvcc_group_commit(writers: int = 64) -> dict:
    """Journal commit sequences needed by ``writers`` concurrent sessions."""
    engine = CompressDB.mount(
        MemoryBlockDevice(block_size=512), journal_blocks=256
    )
    lsn_before = engine.device.lsn
    sessions = []
    for index in range(writers):
        session = engine.mvcc.begin()
        path = f"/writer-{index:03d}"
        session.create(path)
        session.write(path, 0, b"small group-commit payload " * 2)
        sessions.append(session)
    tickets = [session.commit() for session in sessions]
    engine.mvcc.flush_group()
    assert all(ticket.durable for ticket in tickets)
    return {
        "writers": writers,
        "journal_commits": engine.device.lsn - lsn_before,
        "distinct_lsns": len({ticket.lsn for ticket in tickets}),
        "group_size": engine.mvcc.group_size,
    }


def _mvcc_contention(sessions: int = 8, steps: int = 320, seed: int = 9) -> dict:
    """Abort rate when every session fights over one shared file."""
    result = run_mvcc_sessions(
        sessions=sessions, steps=steps, seed=seed, shared_paths=1,
        record_history=False,
    )
    closed = result["committed"] + result["aborted"]
    return {
        "sessions": sessions,
        "steps": steps,
        "committed": result["committed"],
        "aborted": result["aborted"],
        "abort_rate": result["aborted"] / max(1, closed),
    }


def _mvcc_read_overhead(reads: int = 256) -> dict:
    """Simulated device time: snapshot reads vs direct engine reads."""
    payload = b"snapshot read-path payload " * 512

    def mount():
        clock = SimClock()
        device = MemoryBlockDevice(
            block_size=512, profile=HDD_5400RPM, clock=clock
        )
        engine = CompressDB.mount(device)
        engine.write_file("/doc", payload)
        engine.fsync()
        return engine, clock

    rng = random.Random(17)
    offsets = [rng.randrange(len(payload) - 256) for __ in range(reads)]
    engine, clock = mount()
    start = clock.now
    for offset in offsets:
        engine.read("/doc", offset, 256)
    baseline = clock.now - start
    engine, clock = mount()
    session = engine.mvcc.begin()
    start = clock.now
    for offset in offsets:
        session.read("/doc", offset, 256)
    session_time = clock.now - start
    session.commit()
    overhead = session_time / baseline if baseline > 0 else 1.0
    return {
        "reads": reads,
        "baseline_sim_ms": baseline * 1e3,
        "session_sim_ms": session_time * 1e3,
        "overhead": overhead,
    }


def run_mvcc(smoke: bool = False) -> dict:
    return {
        "group_commit": _mvcc_group_commit(writers=64),
        "contention": _mvcc_contention(steps=160 if smoke else 320),
        "read_overhead": _mvcc_read_overhead(reads=128 if smoke else 256),
    }


def mvcc_report(results: dict, path: Path) -> dict:
    group = results["group_commit"]
    contention = results["contention"]
    reads = results["read_overhead"]
    print_table(
        ["writers", "journal commits", "distinct LSNs", "group size"],
        [[
            str(group["writers"]),
            str(group["journal_commits"]),
            str(group["distinct_lsns"]),
            str(group["group_size"]),
        ]],
        title="MVCC group commit: 64 concurrent writers",
    )
    print_table(
        ["sessions", "committed", "aborted", "abort rate"],
        [[
            str(contention["sessions"]),
            str(contention["committed"]),
            str(contention["aborted"]),
            f"{contention['abort_rate'] * 100:.1f}%",
        ]],
        title="MVCC contention: one shared file",
    )
    print_table(
        ["path", "sim time (ms)", "overhead"],
        [
            ["direct engine reads", f"{reads['baseline_sim_ms']:.2f}", "1.00x"],
            [
                "snapshot session reads",
                f"{reads['session_sim_ms']:.2f}",
                f"{reads['overhead']:.2f}x",
            ],
        ],
        title="MVCC read path: snapshot vs direct",
    )
    path.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _check_mvcc(summary: dict) -> None:
    commits = summary["group_commit"]["journal_commits"]
    assert commits <= GROUP_COMMIT_BOUND, (
        f"{summary['group_commit']['writers']} writers took {commits} journal "
        f"commit sequences, over the {GROUP_COMMIT_BOUND} bound"
    )
    overhead = summary["read_overhead"]["overhead"]
    assert overhead <= READ_OVERHEAD_BOUND, (
        f"snapshot read overhead {overhead:.2f}x exceeds the "
        f"{READ_OVERHEAD_BOUND}x bound"
    )


def test_mvcc_sessions(benchmark):
    results = benchmark.pedantic(run_mvcc, rounds=1, iterations=1)
    _check_mvcc(mvcc_report(results, trajectory_path(MVCC_JSON_NAME, committed=False)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="reduced volume for CI smoke runs"
    )
    args = parser.parse_args(argv)
    path = trajectory_path(MVCC_JSON_NAME, committed=not args.smoke)
    _check_mvcc(mvcc_report(run_mvcc(smoke=args.smoke), path))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
