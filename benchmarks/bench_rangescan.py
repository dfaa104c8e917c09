"""Section 6.2, range scan — and the compressed-domain execution gain.

The paper runs ``select id, sum(cnt)/count(dt) avg_cnt from tbl where
idx >= 0 and idx <= 8 group by id order by avg_cnt desc`` and reports
15.48% improvement on ClickHouse and 9.62% on SQLite with CompressDB.
Both engines load the *same* derived dataset (the grouping key is
``id % 40`` in each) so their result sets describe the same relation.

On top of the engine comparison, this benchmark measures what
MiniColumn's block encodings buy on identical hardware: the same
executor (:mod:`repro.databases.vector_executor`) over plain
fixed-width blocks versus delta/RLE/dictionary blocks.  SimClock
charges device time only, and the encoded working set is a fraction of
the plain one, so the simulated time drops by ``SPEEDUP_BOUND`` or
better.  A full standalone run writes ``BENCH_rangescan.json``; a
``--smoke`` or pytest run writes ``benchmarks/out/BENCH_rangescan.json``
instead.

Runnable standalone (``python benchmarks/bench_rangescan.py
[--smoke]``) or under pytest with the benchmark suite.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from _shared import trajectory_path

from repro.bench import improvement_percent, make_database, make_fs, print_table
from repro.databases.minicolumn import MiniColumn
from repro.fs import PassthroughFS
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.simclock import HDD_5400RPM, SimClock
from repro.workloads import structured_rows

QUERY = (
    "SELECT id, sum(cnt)/count(dt) avg_cnt FROM tbl "
    "WHERE idx >= 0 AND idx <= 8 GROUP BY id ORDER BY avg_cnt DESC"
)
ROWS = 3000
REPEATS = 5
SMOKE_SCALE = 4
#: Encoded blocks must beat plain blocks by this.
SPEEDUP_BOUND = 5.0
GROUPS = 40  # the grouping key domain: id % GROUPS

JSON_NAME = "BENCH_rangescan.json"


def _dataset(rows: int) -> list[dict[str, object]]:
    """One derived dataset for every engine and variant.

    ``structured_rows`` has a unique ``id`` per row; the benchmark
    groups by ``id % GROUPS`` so the aggregate actually folds, and both
    engines must see the *same* derived column (a seed-era bug had
    SQLite grouping by ``id % 40`` while the column store grouped by
    the raw id, making the two result sets incomparable).
    """
    return [
        {
            "id": row["id"] % GROUPS,
            "idx": row["idx"],
            "cnt": row["cnt"],
            "dt": row["dt"],
        }
        for row in structured_rows(rows)
    ]


def _prepare_clickhouse(fs, dataset):
    # The paper's engine comparison runs a *stock* column store over
    # the two file systems — plain fixed-width blocks — so the measured
    # gain is CompressDB's (the FS), not our encodings'.  The
    # compressed-domain variant is measured separately below.
    db = MiniColumn(fs, encodings=False)
    db.execute("CREATE TABLE tbl (id INT, idx INT, cnt INT, dt TEXT)")
    db.table("tbl").insert_rows(dataset)
    return db


def _prepare_sqlite(fs, dataset):
    db = make_database("sqlite", fs)
    db.execute("CREATE TABLE tbl (pk INT PRIMARY KEY, id INT, idx INT, cnt INT, dt TEXT)")
    for pk, row in enumerate(dataset):
        db.execute(
            "INSERT INTO tbl VALUES (%d, %d, %d, %d, '%s')"
            % (pk, row["id"], row["idx"], row["cnt"], row["dt"])
        )
    return db


def _loaded_row_count(db) -> int:
    return int(db.execute("SELECT count(*) c FROM tbl")[0]["c"])


def _run_engine(engine_name, rows, repeats):
    dataset = _dataset(rows)
    timings = {}
    result_sets = {}
    for variant in ("baseline", "compressdb"):
        mounted = make_fs(variant, cache_blocks=16)
        if engine_name == "clickhouse":
            db = _prepare_clickhouse(mounted.fs, dataset)
        else:
            db = _prepare_sqlite(mounted.fs, dataset)
        assert _loaded_row_count(db) == len(dataset), engine_name
        start = mounted.clock.now
        for __ in range(repeats):
            result_sets[variant] = db.execute(QUERY)
        timings[variant] = (mounted.clock.now - start) / repeats
    assert result_sets["baseline"] == result_sets["compressdb"]
    return timings, result_sets["compressdb"]


def _run_engines(rows, repeats):
    timings = {}
    results = {}
    for name in ("clickhouse", "sqlite"):
        timings[name], results[name] = _run_engine(name, rows, repeats)
    # Aligned datasets: both engines compute the same groups and
    # aggregates (SQLite also projects pk-less rows of the same shape).
    assert results["clickhouse"] == results["sqlite"]
    return timings


def _column_store(encodings: bool, cache_blocks: int):
    clock = SimClock()
    device = MemoryBlockDevice(
        block_size=1024, profile=HDD_5400RPM, clock=clock, cache_blocks=cache_blocks
    )
    return MiniColumn(PassthroughFS(device=device), encodings=encodings), clock


def _run_compressed_domain(rows, repeats, cache_blocks=32):
    """Plain blocks vs encoded blocks under MiniColumn's one executor.

    The cache budget (32 KiB) sits between the encoded and the plain
    working sets: delta/RLE/dictionary blocks stay resident across
    repeats while fixed-width blocks thrash — compression converting
    space savings into read savings, the CompressDB thesis applied to
    column blocks."""
    dataset = _dataset(rows)
    timings = {}
    result_sets = {}
    for label, encodings in (("plain-blocks", False), ("compressed-domain", True)):
        db, clock = _column_store(encodings, cache_blocks)
        db.execute("CREATE TABLE tbl (id INT, idx INT, cnt INT, dt TEXT)")
        db.table("tbl").insert_rows(dataset)
        assert _loaded_row_count(db) == len(dataset)
        start = clock.now
        for __ in range(repeats):
            result_sets[label] = db.execute(QUERY)
        timings[label] = (clock.now - start) / repeats
    assert result_sets["plain-blocks"] == result_sets["compressed-domain"]
    return timings


def run_all(smoke: bool = False) -> dict:
    scale = SMOKE_SCALE if smoke else 1
    rows = ROWS // scale
    repeats = max(REPEATS // scale, 2)
    return {
        "query": QUERY,
        "rows": rows,
        "repeats": repeats,
        "engines": _run_engines(rows, repeats),
        "compressed_domain": _run_compressed_domain(rows, repeats),
    }


def report(results: dict, path: Path) -> dict:
    paper = {"clickhouse": 15.48, "sqlite": 9.62}
    rows = []
    for engine, timings in results["engines"].items():
        if timings["baseline"] > 0 and timings["compressdb"] > 0:
            gain = improvement_percent(
                1.0 / timings["baseline"], 1.0 / timings["compressdb"]
            )
            gain_label = f"{gain:.1f}%"
        else:
            gain_label = "n/a"  # smoke volumes can be fully cached
        rows.append(
            [
                engine,
                f"{timings['baseline'] * 1e3:.2f}",
                f"{timings['compressdb'] * 1e3:.2f}",
                gain_label,
                f"{paper[engine]:.2f}%",
            ]
        )
    print_table(
        ["engine", "baseline (ms)", "CompressDB (ms)", "gain", "paper gain"],
        rows,
        title="Section 6.2: range scan query",
    )
    domain = results["compressed_domain"]
    plain = domain["plain-blocks"]
    vectorized = domain["compressed-domain"]
    if vectorized > 0:
        speedup = plain / vectorized
    else:
        # A fully-cached vectorized run: finite stand-in keeps the JSON valid.
        speedup = 1.0 if plain == 0 else 1e9
    print_table(
        ["path", "per-query sim (ms)", "speedup"],
        [
            ["plain blocks", f"{plain * 1e3:.2f}", "1.0x"],
            ["compressed-domain (encoded blocks)", f"{vectorized * 1e3:.2f}", f"{speedup:.1f}x"],
        ],
        title="Compressed-domain execution: range scan + GROUP BY",
    )
    summary = {
        "query": results["query"],
        "rows": results["rows"],
        "repeats": results["repeats"],
        "engines": {
            engine: {
                "baseline_ms": timings["baseline"] * 1e3,
                "compressdb_ms": timings["compressdb"] * 1e3,
            }
            for engine, timings in results["engines"].items()
        },
        "compressed_domain": {
            "plain_blocks_ms": plain * 1e3,
            "vectorized_ms": vectorized * 1e3,
            "speedup": speedup,
        },
    }
    path.write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def _check(summary: dict) -> None:
    for engine, timings in summary["engines"].items():
        assert timings["compressdb_ms"] <= timings["baseline_ms"], engine
    speedup = summary["compressed_domain"]["speedup"]
    assert speedup >= SPEEDUP_BOUND, (
        f"compressed-domain speedup {speedup:.2f}x is under the "
        f"{SPEEDUP_BOUND}x bound"
    )


def test_rangescan(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    _check(report(results, trajectory_path(JSON_NAME, committed=False)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="reduced volume for CI smoke runs"
    )
    args = parser.parse_args(argv)
    path = trajectory_path(JSON_NAME, committed=not args.smoke)
    _check(report(run_all(smoke=args.smoke), path))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
