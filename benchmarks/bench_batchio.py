"""Batched scatter-gather I/O vs per-block requests (PR tentpole).

Three access patterns over a CompressDB engine on the HDD cost model:

* **sequential scan** — read a 4 MiB file front to back; per-block
  issues one engine read per block, batched issues one ``read_file``
  (a single scatter-gather device transaction);
* **random read** — 256 spans of 4 KiB at random offsets; per-block
  loops ``read``, batched issues one ``readv``;
* **append** — 2048 sequential 512 B writes (the LevelDB/SSTable
  pattern); per-block commits every write, batched rides the engine's
  write-coalescing buffer.

The win is the seek amortisation of the SimClock model: a batch of N
blocks pays one seek plus streaming bandwidth instead of N seeks.
Runnable standalone (``python benchmarks/bench_batchio.py [--smoke]``)
or under pytest with the rest of the benchmark suite.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.bench import print_table, speedup
from repro.core.engine import CompressDB
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.simclock import HDD_5400RPM, SimClock

BLOCK_SIZE = 1024
FILE_BYTES = 4 * 1024 * 1024  # sequential-scan file (acceptance: >= 4 MiB)
RANDOM_SPANS = 256
RANDOM_SPAN_BYTES = 4096
APPEND_RECORDS = 2048
APPEND_RECORD_BYTES = 512
SMOKE_SCALE = 4  # shrink random/append volume; the scan file stays 4 MiB


def _make_engine(coalesce_writes: bool = True) -> CompressDB:
    clock = SimClock()
    device = MemoryBlockDevice(
        block_size=BLOCK_SIZE,
        profile=HDD_5400RPM,
        clock=clock,
        cache_blocks=0,  # no page cache: measure the device transactions
    )
    return CompressDB(device=device, coalesce_writes=coalesce_writes)


def _file_payload(nbytes: int) -> bytes:
    """Mostly-unique blocks with a sprinkle of duplicates (every 8th)."""
    rng = random.Random(7)
    blocks = []
    for index in range(nbytes // BLOCK_SIZE):
        if index % 8 == 7:
            blocks.append(blocks[index - 1])
        else:
            blocks.append(bytes(rng.randrange(256) for __ in range(16)) * (BLOCK_SIZE // 16))
    return b"".join(blocks)[:nbytes]


def _measure(engine: CompressDB, fn):
    """(simulated seconds, device ops, wall seconds, result) of fn()."""
    engine.device.stats.reset()
    sim_before = engine.device.clock.now
    wall_before = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - wall_before
    sim = engine.device.clock.now - sim_before
    stats = engine.device.stats.snapshot()
    # Device transactions: batched ops count once however many blocks
    # they cover; singles count one each.
    reads = stats.batched_reads + (stats.block_reads - stats.batched_blocks_read)
    writes = stats.batched_writes + (stats.block_writes - stats.batched_blocks_written)
    return sim, reads + writes, wall, result


def bench_sequential_scan(smoke: bool = False) -> dict:
    payload = _file_payload(FILE_BYTES)
    engine = _make_engine()
    engine.write_file("/scan", payload)
    perblock_sim, perblock_ops, perblock_wall, perblock_data = _measure(
        engine,
        lambda: b"".join(
            engine.read("/scan", offset, BLOCK_SIZE)
            for offset in range(0, FILE_BYTES, BLOCK_SIZE)
        ),
    )
    batched_sim, batched_ops, batched_wall, batched_data = _measure(
        engine, lambda: engine.read_file("/scan")
    )
    assert perblock_data == payload and batched_data == payload
    return {
        "pattern": f"sequential scan ({FILE_BYTES // (1024 * 1024)} MiB)",
        "perblock": (perblock_sim, perblock_ops, perblock_wall),
        "batched": (batched_sim, batched_ops, batched_wall),
    }


def bench_random_read(smoke: bool = False) -> dict:
    spans_count = RANDOM_SPANS // (SMOKE_SCALE if smoke else 1)
    payload = _file_payload(FILE_BYTES)
    engine = _make_engine()
    engine.write_file("/rand", payload)
    rng = random.Random(11)
    spans = [
        (rng.randrange(0, FILE_BYTES - RANDOM_SPAN_BYTES), RANDOM_SPAN_BYTES)
        for __ in range(spans_count)
    ]
    perblock_sim, perblock_ops, perblock_wall, perblock_data = _measure(
        engine, lambda: [engine.read("/rand", offset, size) for offset, size in spans]
    )
    batched_sim, batched_ops, batched_wall, batched_data = _measure(
        engine, lambda: engine.readv([("/rand", offset, size) for offset, size in spans])
    )
    assert perblock_data == batched_data
    return {
        "pattern": f"random read ({spans_count} x {RANDOM_SPAN_BYTES} B)",
        "perblock": (perblock_sim, perblock_ops, perblock_wall),
        "batched": (batched_sim, batched_ops, batched_wall),
    }


def bench_append(smoke: bool = False) -> dict:
    records = APPEND_RECORDS // (SMOKE_SCALE if smoke else 1)
    record = bytes(range(256)) * (APPEND_RECORD_BYTES // 256)

    def _append_with(engine: CompressDB):
        engine.create("/log")
        for index in range(records):
            engine.write("/log", index * APPEND_RECORD_BYTES, record)
        engine.sync("/log")
        return engine.read_file("/log")

    direct = _make_engine(coalesce_writes=False)
    perblock_sim, perblock_ops, perblock_wall, perblock_data = _measure(
        direct, lambda: _append_with(direct)
    )
    coalesced = _make_engine(coalesce_writes=True)
    batched_sim, batched_ops, batched_wall, batched_data = _measure(
        coalesced, lambda: _append_with(coalesced)
    )
    assert perblock_data == batched_data
    return {
        "pattern": f"append ({records} x {APPEND_RECORD_BYTES} B)",
        "perblock": (perblock_sim, perblock_ops, perblock_wall),
        "batched": (batched_sim, batched_ops, batched_wall),
    }


def run_all(smoke: bool = False) -> list[dict]:
    return [
        bench_sequential_scan(smoke),
        bench_random_read(smoke),
        bench_append(smoke),
    ]


def report(results: list[dict]) -> dict[str, float]:
    rows = []
    speedups: dict[str, float] = {}
    for entry in results:
        perblock_sim, perblock_ops, perblock_wall = entry["perblock"]
        batched_sim, batched_ops, batched_wall = entry["batched"]
        gain = speedup(perblock_sim, batched_sim)
        speedups[entry["pattern"]] = gain
        rows.append(
            [
                entry["pattern"],
                f"{perblock_sim * 1e3:.2f}",
                f"{batched_sim * 1e3:.2f}",
                f"{perblock_ops}",
                f"{batched_ops}",
                f"{gain:.1f}x",
                f"{perblock_wall * 1e3:.0f}/{batched_wall * 1e3:.0f}",
            ]
        )
    print_table(
        [
            "pattern",
            "per-block sim ms",
            "batched sim ms",
            "per-block dev ops",
            "batched dev ops",
            "speedup",
            "wall ms (pb/b)",
        ],
        rows,
        title="Batched scatter-gather I/O vs per-block requests",
    )
    return speedups


def _check(speedups: dict[str, float]) -> None:
    sequential = next(v for k, v in speedups.items() if k.startswith("sequential"))
    assert sequential >= 2.0, f"sequential batched speedup {sequential:.2f}x < 2x"


def test_batchio(benchmark):
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
