"""Names, units and directions of everything the benchmark reports.

``BENCHMARK.json`` at the repo root is the contract the driver reads;
this module is the same list in a form the harness, ``check.py`` and
the self-test share (the self-test asserts the two agree).
"""

from __future__ import annotations

from typing import NamedTuple

#: How long one timed phase is sized for, in seconds on the 2-core box.
#: Op counts scale linearly with ``--seconds``; must equal
#: ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 3

#: Workload name -> why it exists (one line; README has the long form).
WORKLOADS: dict[str, str] = {
    "db_mix": (
        "Fig. 7/8 statement mix on MiniSQL/MiniLevelDB/MiniMongo, fsync every "
        "32nd statement: databases, fs, core and the journal/superblock fsync "
        "path do the work; serving, mvcc and raft do none"
    ),
    "scan_agg": (
        "MiniColumn range-scan GROUP BY, full scan and batch appends on a table "
        "6x the device cache: vector executor and device reads dominate, the "
        "fsync path is almost idle"
    ),
    "direct_ops": (
        "Fig. 10 extract/replace/append/insert/delete/search/count through "
        "PushdownOperations on a 1 MiB file: core.operations, holes, compressor "
        "and hashtable with no database or serving above"
    ),
    "kv_serving": (
        "YCSB-A-shaped zipfian get/put/scan from 4 tenants through api.connect, "
        "WireClient and Server.serve_frame with admission on: prices the "
        "serving stack over MiniLevelDB; storage is light"
    ),
    "txn_sessions": (
        "8 interleaved MVCC sessions over the wire doing read-modify-write on "
        "64 account files with 4 hot ones: snapshot resolve, first-committer-"
        "wins aborts and group commit dominate"
    ),
    "cluster_rw": (
        "5-node replicated sharded cluster, read/append/create/overwrite via "
        "ClusterClient with a leader crash and a replica restart: every create "
        "pays a Raft round; serving, mvcc and databases do none"
    ),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Two runs of the same code and seed must report the same value.
    exact: bool
    definition: str


#: The end-to-end metrics every workload reports (``failed_share`` is
#: printed too, but it lives in the result's ``failed``/``attempted``
#: keys because the contract forbids a metric that is always 0).
END_TO_END: tuple[Metric, ...] = (
    Metric("wall_ops_per_s", "ops/s", "higher", False,
           "ops completed in the timed phase / its perf_counter seconds"),
    Metric("cpu_us_per_op", "us", "lower", False,
           "process_time of the timed phase / ops"),
    Metric("wall_p50_us", "us", "lower", False,
           "median per-op wall latency"),
    Metric("sim_ops_per_s", "ops/s", "higher", True,
           "ops / SimClock seconds of the timed phase"),
    Metric("sim_tail1pct_ms", "ms", "lower", True,
           "mean SimClock latency of the slowest 1 % of ops (at least 10)"),
    Metric("stored_per_user_byte", "ratio", "lower", True,
           "device bytes in use (all devices) / logical user bytes at end of run"),
    Metric("dev_write_per_user_byte", "ratio", "lower", True,
           "device bytes written in the timed phase / user bytes written in it"),
    Metric("setup_s", "s", "lower", False,
           "set-up phase wall time (median over the run's set-ups)"),
    Metric("peak_rss_mb", "MiB", "lower", False,
           "ru_maxrss of the workload process at the end of the timed phase"),
)

#: The repo's modules, in stack order; ``trace.py`` maps code to them.
LAYERS: tuple[str, ...] = (
    "api",
    "serving.client",
    "serving.protocol",
    "serving.server",
    "serving.admission",
    "serving.namespace",
    "mvcc",
    "databases.minisql",
    "databases.minileveldb",
    "databases.minimongo",
    "databases.minicolumn",
    "fs",
    "core.engine",
    "core.operations",
    "core.compressor",
    "core.hashtable",
    "core.superblock",
    "storage.journal",
    "storage.block_device",
    "distributed.client",
    "distributed.shardmap",
    "distributed.replicated",
    "raft.node",
    "raft.log",
    "raft.statemachine",
    "distributed.chunkserver",
)

#: Counter-derived layer metrics: deltas of the program's public
#: counters over the timed phase of the untraced pass.  All exact.
COUNTER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("storage.block_device.reads_per_op", "count", "lower"),
    ("storage.block_device.writes_per_op", "count", "lower"),
    ("storage.block_device.cache_hit_ratio", "ratio", "higher"),
    ("storage.block_device.cache_evictions_per_op", "count", "lower"),
    ("storage.journal.commits_per_kop", "count", "lower"),
    ("storage.journal.blocks_per_commit", "count", "lower"),
    ("core.engine.fsyncs_per_kop", "count", "lower"),
    ("core.superblock.image_bytes_per_fsync", "bytes", "lower"),
    ("core.compressor.dedup_hit_ratio", "ratio", "higher"),
    ("core.compressor.cow_per_op", "count", "lower"),
    ("core.compressor.in_place_ratio", "ratio", "higher"),
    ("core.hashtable.load_factor", "ratio", "lower"),
    ("databases.minileveldb.compactions", "count", "lower"),
    ("serving.admission.shed_share", "ratio", "lower"),
    ("serving.server.error_share", "ratio", "lower"),
    ("serving.protocol.bytes_per_op", "bytes", "lower"),
    ("mvcc.abort_share", "ratio", "lower"),
    ("mvcc.commits_per_journal_commit", "count", "higher"),
    ("raft.node.messages_per_propose", "count", "lower"),
    ("raft.node.bytes_per_propose", "bytes", "lower"),
    ("distributed.replicated.failover_sim_ms", "ms", "lower"),
    ("distributed.replicated.redirects", "count", "lower"),
    ("distributed.client.rpcs_per_op", "count", "lower"),
    ("distributed.client.net_bytes_per_op", "bytes", "lower"),
)

DIRECT_OP_KINDS = ("extract", "replace", "insert", "delete", "append", "search", "count")

#: Layer metrics the driver times around its own calls (wall time, so
#: not exact) plus the run's own bookkeeping.
DRIVER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("databases.minisql.wall_ops_per_s", "ops/s", "higher"),
    ("databases.minileveldb.wall_ops_per_s", "ops/s", "higher"),
    ("databases.minimongo.wall_ops_per_s", "ops/s", "higher"),
    ("databases.minicolumn.narrow_wall_p50_us", "us", "lower"),
    ("databases.minicolumn.wide_wall_p50_us", "us", "lower"),
    ("databases.minicolumn.append_wall_p50_us", "us", "lower"),
    *((f"core.operations.{kind}.wall_p50_us", "us", "lower") for kind in DIRECT_OP_KINDS),
    ("fs.sim_gain_vs_passthrough_pct", "%", "higher"),
    ("fs.wall_cost_vs_passthrough_x", "x", "lower"),
    ("run.sim_p99_ms", "ms", "lower"),
    ("run.wall_p99_us", "us", "lower"),
    ("run.ops", "count", "higher"),
    ("run.trace_overhead_x", "x", "lower"),
)

#: Layer metrics that repeat exactly for one seed (everything counted,
#: nothing timed).  ``fs.sim_gain_vs_passthrough_pct`` is SimClock time.
EXACT_LAYER_METRICS: frozenset[str] = frozenset(
    [name for name, __, __ in COUNTER_METRICS]
    + [f"{layer}.calls_per_op" for layer in LAYERS]
    + ["fs.sim_gain_vs_passthrough_pct", "run.sim_p99_ms", "run.ops"]
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in print order."""
    out: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.self_us_per_op", "us", "lower"))
        out.append((f"{layer}.calls_per_op", "count", "lower"))
    out.extend(COUNTER_METRICS)
    out.extend(DRIVER_METRICS)
    return out
