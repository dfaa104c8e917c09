"""Write-ahead journal overhead on the PR 1 write workloads (PR 3).

Two write-heavy access patterns over mounted CompressDB images on the
HDD cost model, each run twice — once on an unjournaled image and once
on an image formatted with a journal region — with an ``fsync`` every
few operations so the journaled engine actually pays its commit
protocol (journal append + barrier, in-place apply at checkpoints):

* **append** — 2048 sequential 512 B records (the LevelDB/SSTable
  pattern), fsync every 256 records;
* **random write** — 256 overwrites of 4 KiB spans at random offsets
  in an 1 MiB file, fsync every 64 spans.

Because the journal runs in ordered mode — freshly allocated blocks are
written directly and shared/committed blocks are shadowed copy-on-write
— only a delta record of what changed (and, at a checkpoint, the
superblock) flows through the journal, so the measured overhead should
stay well under the 1.5x acceptance bound.  Device blocks written per
fsync are printed for both: the unjournaled image rewrites its metadata
at every fsync, while a journaled fsync that logs a delta record writes
one journal block (its descriptor carries the record and seals the
batch), so the journaled mount writes *fewer* on both patterns.  The
append pattern must stay under two device blocks per fsync.  A smoke
run shrinks the volume and the fsync interval together, so it pays as
many fsyncs as a full run.  Runnable standalone (``python benchmarks/bench_journal.py [--smoke]``)
or under pytest with the rest of the benchmark suite.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.bench import print_table
from repro.core.engine import CompressDB
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.simclock import HDD_5400RPM, SimClock

BLOCK_SIZE = 1024
JOURNAL_BLOCKS = 64
APPEND_RECORDS = 2048
APPEND_RECORD_BYTES = 512
APPEND_FSYNC_EVERY = 256
RANDOM_FILE_BYTES = 1024 * 1024
RANDOM_SPANS = 256
RANDOM_SPAN_BYTES = 4096
RANDOM_FSYNC_EVERY = 64
SMOKE_SCALE = 4
OVERHEAD_BOUND = 1.5  # journaled sim time must stay under 1.5x unjournaled
APPEND_BLOCKS_PER_FSYNC_BOUND = 2.0  # journaled append: device blocks per fsync


def _mount(journal_blocks: int = 0) -> CompressDB:
    clock = SimClock()
    device = MemoryBlockDevice(
        block_size=BLOCK_SIZE,
        profile=HDD_5400RPM,
        clock=clock,
        cache_blocks=0,  # no page cache: measure the device transactions
    )
    return CompressDB.mount(device, journal_blocks=journal_blocks or None)


def _measure(engine: CompressDB, fn):
    """(simulated seconds, wall seconds, device blocks written per
    fsync, result) of fn()."""
    registry = engine.obs.registry
    before = registry.snapshot()
    sim_before = engine.device.clock.now
    wall_before = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - wall_before
    sim = engine.device.clock.now - sim_before
    delta = registry.snapshot().delta(before)
    per_fsync = delta.counter("storage.device.block_writes") / max(
        1, delta.counter("engine.txn.commits")
    )
    return sim, wall, per_fsync, result


def _append_workload(engine: CompressDB, records: int, fsync_every: int) -> bytes:
    record = bytes(range(256)) * (APPEND_RECORD_BYTES // 256)
    engine.create("/log")
    for index in range(records):
        engine.write("/log", index * APPEND_RECORD_BYTES, record)
        if (index + 1) % fsync_every == 0:
            engine.fsync("/log")
    engine.fsync("/log")
    return engine.read_file("/log")


def _random_write_workload(engine: CompressDB, spans: int) -> bytes:
    rng = random.Random(23)
    patch = bytes(rng.randrange(256) for __ in range(64)) * (
        RANDOM_SPAN_BYTES // 64
    )
    for index in range(spans):
        offset = rng.randrange(0, RANDOM_FILE_BYTES - RANDOM_SPAN_BYTES)
        engine.write("/data", offset, patch)
        if (index + 1) % RANDOM_FSYNC_EVERY == 0:
            engine.fsync("/data")
    engine.fsync("/data")
    return engine.read_file("/data")


def bench_append(smoke: bool = False) -> dict:
    scale = SMOKE_SCALE if smoke else 1
    records, every = APPEND_RECORDS // scale, APPEND_FSYNC_EVERY // scale
    plain = _mount()
    *plain_cost, plain_data = _measure(
        plain, lambda: _append_workload(plain, records, every)
    )
    journaled = _mount(JOURNAL_BLOCKS)
    *journal_cost, journal_data = _measure(
        journaled, lambda: _append_workload(journaled, records, every)
    )
    assert plain_data == journal_data
    return {
        "pattern": f"append ({records} x {APPEND_RECORD_BYTES} B)",
        "plain": tuple(plain_cost),
        "journaled": tuple(journal_cost),
    }


def bench_random_write(smoke: bool = False) -> dict:
    spans = RANDOM_SPANS // (SMOKE_SCALE if smoke else 1)
    rng = random.Random(17)
    payload = bytes(rng.randrange(256) for __ in range(RANDOM_FILE_BYTES // 512)) * 512

    def _prepare(engine: CompressDB) -> None:
        engine.write_file("/data", payload)
        engine.fsync("/data")

    plain = _mount()
    _prepare(plain)
    *plain_cost, plain_data = _measure(
        plain, lambda: _random_write_workload(plain, spans)
    )
    journaled = _mount(JOURNAL_BLOCKS)
    _prepare(journaled)
    *journal_cost, journal_data = _measure(
        journaled, lambda: _random_write_workload(journaled, spans)
    )
    assert plain_data == journal_data
    return {
        "pattern": f"random write ({spans} x {RANDOM_SPAN_BYTES} B)",
        "plain": tuple(plain_cost),
        "journaled": tuple(journal_cost),
    }


def run_all(smoke: bool = False) -> list[dict]:
    return [bench_append(smoke), bench_random_write(smoke)]


def report(results: list[dict]) -> dict[str, tuple[float, float]]:
    """Print the table; return pattern -> (overhead, journaled device
    blocks per fsync)."""
    rows = []
    overheads: dict[str, tuple[float, float]] = {}
    for entry in results:
        plain_sim, plain_wall, plain_blocks = entry["plain"]
        journal_sim, journal_wall, journal_blocks = entry["journaled"]
        ratio = journal_sim / plain_sim if plain_sim else 1.0
        overheads[entry["pattern"]] = (ratio, journal_blocks)
        rows.append(
            [
                entry["pattern"],
                f"{plain_sim * 1e3:.2f}",
                f"{journal_sim * 1e3:.2f}",
                f"{ratio:.2f}x",
                f"{plain_wall * 1e3:.0f}/{journal_wall * 1e3:.0f}",
                f"{plain_blocks:.1f}/{journal_blocks:.1f}",
            ]
        )
    print_table(
        [
            "pattern",
            "plain sim ms",
            "journaled sim ms",
            "overhead",
            "wall ms (p/j)",
            "dev blocks per fsync (p/j)",
        ],
        rows,
        title="Write-ahead journal overhead vs unjournaled mounts",
    )
    return overheads


def _check(overheads: dict[str, tuple[float, float]]) -> None:
    for pattern, (ratio, blocks_per_fsync) in overheads.items():
        assert ratio < OVERHEAD_BOUND, (
            f"journal overhead {ratio:.2f}x on '{pattern}' exceeds the "
            f"{OVERHEAD_BOUND}x bound"
        )
        if pattern.startswith("append"):
            # A small fsync logs one sealed journal block, not three.
            assert blocks_per_fsync < APPEND_BLOCKS_PER_FSYNC_BOUND, (
                f"journaled append writes {blocks_per_fsync:.1f} device blocks "
                f"per fsync, bound {APPEND_BLOCKS_PER_FSYNC_BOUND}"
            )


def test_journal_overhead(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    _check(report(results))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="reduced volume for CI smoke runs"
    )
    args = parser.parse_args(argv)
    _check(report(run_all(smoke=args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
