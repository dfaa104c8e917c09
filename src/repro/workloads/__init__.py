"""Workload generation: datasets, query mixes, filebench, metrics."""

from repro.workloads.datasets import (
    DATASET_SPECS,
    DOCUMENT_DATASETS,
    STRUCTURED_DATASETS,
    Dataset,
    DatasetSpec,
    generate_dataset,
    generate_redundancy_sweep,
    structured_rows,
)
from repro.workloads.filebench import FilebenchResult, build_fileset, run_fileserver
from repro.workloads.metrics import (
    LatencyRecorder,
    LatencySummary,
    percentile,
)
from repro.workloads.querygen import (
    Operation,
    QueryMixGenerator,
    ReadOp,
    WriteOp,
    zipf_rank,
)
from repro.workloads.ycsb import PROFILES as YCSB_PROFILES
from repro.workloads.ycsb import (
    TimedOp,
    YCSBGenerator,
    YCSBOp,
    YCSBProfile,
    open_loop_arrivals,
    run_ycsb,
)

__all__ = [
    "DATASET_SPECS",
    "DOCUMENT_DATASETS",
    "Dataset",
    "DatasetSpec",
    "FilebenchResult",
    "LatencyRecorder",
    "LatencySummary",
    "Operation",
    "QueryMixGenerator",
    "ReadOp",
    "STRUCTURED_DATASETS",
    "TimedOp",
    "WriteOp",
    "YCSBGenerator",
    "YCSBOp",
    "YCSBProfile",
    "YCSB_PROFILES",
    "build_fileset",
    "run_ycsb",
    "generate_dataset",
    "generate_redundancy_sweep",
    "open_loop_arrivals",
    "percentile",
    "run_fileserver",
    "structured_rows",
    "zipf_rank",
]
