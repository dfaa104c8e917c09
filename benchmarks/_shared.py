"""Shared state for the benchmark suite.

End-to-end workload runs are cached here so that the throughput
benchmark (Figure 7) and the latency benchmark (Figure 8) measure the
same runs, exactly as one experiment in the paper produces both
figures.  :func:`trajectory_path` says where a benchmark writes its
``BENCH_*.json``.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from repro.bench import run_database_workload
from repro.workloads import generate_dataset

#: Where a full standalone run commits its trajectory, and where every
#: other run (``--smoke``, pytest) writes instead (git-ignored).
REPO = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def trajectory_path(name: str, committed: bool) -> Path:
    """The file a benchmark writes its ``name`` results to: the
    committed one at the repo root only when ``committed`` (a full run
    from ``main``), else ``benchmarks/out/name`` — so a smoke or pytest
    run never rewrites the numbers the docs cite."""
    if committed:
        return REPO / name
    OUT.mkdir(exist_ok=True)
    return OUT / name


#: (database, dataset) pairs of the end-to-end evaluation, scaled down.
#: The paper runs A/B/C on the cluster and D/E/F on a single node; we
#: keep one small and one larger dataset per database plus the
#: structured dataset for the column store.
END_TO_END_MATRIX = [
    ("sqlite", "D"),
    ("sqlite", "E"),
    ("leveldb", "D"),
    ("leveldb", "E"),
    ("mongodb", "D"),
    ("mongodb", "E"),
    ("clickhouse", "F"),
]

VARIANTS = ("baseline", "baseline-lz4", "compressdb", "compressdb-lz4")

#: Workload size knobs (the paper uses 500k statements; we use enough
#: to stabilise the simulated averages).
OPERATIONS = 160
UNIVERSE = 80
PRELOAD = 80
DATASET_SCALE = 0.25


@lru_cache(maxsize=None)
def dataset(name: str):
    return generate_dataset(name, scale=DATASET_SCALE)


@lru_cache(maxsize=None)
def workload_result(database: str, dataset_name: str, variant: str):
    """One cached (db, dataset, variant) end-to-end run."""
    return run_database_workload(
        database,
        dataset(dataset_name),
        variant,
        operations=OPERATIONS,
        universe=UNIVERSE,
        preload=PRELOAD,
    )


def run_matrix():
    """All end-to-end runs of Figures 7/8 (cached)."""
    results = []
    for database, dataset_name in END_TO_END_MATRIX:
        for variant in VARIANTS:
            results.append(workload_result(database, dataset_name, variant))
    return results
