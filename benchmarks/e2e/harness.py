"""One pass of one workload: set-up, warm-up, timed phase, verification.

A pass is closed loop with one outstanding request and no think time:
the driver thread issues an action, waits for it, records its wall and
SimClock latency and its result, and issues the next.  Results are
checked against the workload's model *after* the timed phase, so the
model costs the measurement nothing.  The timed phase runs a fixed
number of actions (never a time limit), which is why every counted
metric repeats exactly for one seed.

Phases: generate inputs -> [set-up (timed as ``setup_s``) -> warm-up
(first 5 % of the actions, untimed) -> timed phase] x replays ->
verification (model replay, fsck, remount; untimed).
"""

from __future__ import annotations

import gc
import re
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.engine import CompressDB
from repro.fs.compressfs import CompressFS
from repro.obs.metrics import MetricsSnapshot
from repro.serving import Server, ServerConfig, TenantConfig
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.simclock import HDD_5400RPM

from . import spec
from .trace import ROOT_LAYER, Tracer

#: Share of the timed action count run first, untimed, to fill caches
#: and finish lazy set-up (database front ends, first memtable flush).
WARMUP_SHARE = 0.05
#: ``--smoke`` runs this share of the actions (self-test and CI).
SMOKE_SHARE = 0.05
#: Requests whose spans are recorded in full in a traced pass: the
#: first ``HEAD`` and then evenly spaced ones up to ``SPREAD`` more.
RECORD_HEAD = 40
RECORD_SPREAD = 160

_NODE_DEVICE = re.compile(r"^cluster\.node\d+\.device\.")


def fsck_violations(engine: CompressDB) -> int:
    """Invariant violations ``fsck`` counts, without repairing any."""
    report = engine.fsck(repair=False)
    return sum(count for key, count in report.items() if key != "index_entries")


class Mount:
    """The production single-node stack: journaled CompressDB on an HDD
    profile with a 256 KiB page cache, under CompressFS."""

    BLOCK_SIZE = 1024
    CACHE_BLOCKS = 256
    JOURNAL_BLOCKS = 256

    def __init__(self) -> None:
        self.device = MemoryBlockDevice(
            block_size=self.BLOCK_SIZE,
            profile=HDD_5400RPM,
            cache_blocks=self.CACHE_BLOCKS,
        )
        self.engine = CompressDB.mount(self.device, journal_blocks=self.JOURNAL_BLOCKS)
        self.fs = CompressFS(engine=self.engine)

    @property
    def clock(self):
        return self.device.clock

    def bytes_in_use(self) -> int:
        return self.device.allocated_blocks * self.device.block_size

    def fsck_violations(self) -> int:
        return fsck_violations(self.engine)

    def remount(self) -> CompressFS:
        """A fresh engine over the same device: it sees only the bytes
        the journal committed.  The old engine must not be used after."""
        return CompressFS(engine=CompressDB.mount(self.device))


def wire_server(fs: CompressFS, tenants: tuple[str, ...]) -> Server:
    """A ``Server`` over ``fs`` with admission on at a rate that never
    sheds: the SimClock charges two LAN transfers (>= 0.4 ms) per
    request, so no tenant can exceed 2 500 requests/s of simulated time."""
    server = Server(fs=fs, config=ServerConfig(admission=True, default_rate_per_s=10_000.0))
    for tenant in tenants:
        server.add_tenant(TenantConfig(name=tenant, burst=64.0))
    return server


class Failure:
    """Stands in for the result of an action that raised unexpectedly."""

    def __init__(self, error: str) -> None:
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Failure({self.error})"


class Workload:
    """What a workload provides; see ``workloads/`` for the six.

    An *action* is one call the driver makes (a tuple whose first item
    is its kind).  An *op* is what the metrics count: by default every
    action is an op; ``ops_view`` lets a workload say otherwise.
    """

    name = "abstract"
    flush_policy = ""
    #: Timed actions per second of ``--seconds`` (calibrated on the
    #: 2-core box so the timed phase takes about that long).
    actions_per_second = 0

    def __init__(self, seed: int, timed_actions: int) -> None:
        self.seed = seed
        self.warm = max(1, int(timed_actions * WARMUP_SHARE))
        self.actions: list[tuple] = []
        self.input_sha256 = ""
        self.sizes: dict[str, object] = {}

    # -- phases --------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, action: tuple) -> object:
        raise NotImplementedError

    def check(self, action: tuple, got: object) -> bool:
        """Replay ``action`` on the model; was ``got`` the right answer?"""
        raise NotImplementedError

    def finish(self) -> None:
        """After the last timed phase: make everything durable (a final
        fsync), so space is read and durability checked at a quiet point."""

    def verify(self) -> tuple[int, int]:
        """Final checks after the replay: (failed, attempted)."""
        raise NotImplementedError

    # -- readings ------------------------------------------------------------
    def sim_now(self) -> float:
        raise NotImplementedError

    def snapshots(self) -> list[MetricsSnapshot]:
        """The program's metric registries (``engine.metrics()`` …)."""
        raise NotImplementedError

    def extra_counters(self) -> dict[str, float]:
        """Cumulative public readings that are not registry counters."""
        return {}

    def gauges(self) -> dict[str, float]:
        """Point-in-time readings taken at the end of the timed phase."""
        return {}

    def device_bytes_in_use(self) -> int:
        """Allocated bytes on every device, read after ``finish()``."""
        raise NotImplementedError

    def user_bytes_stored(self) -> int:
        """Logical user bytes per the model (call after the replay)."""
        raise NotImplementedError

    def user_bytes_written(self, action: tuple) -> int:
        return 0

    def ops_view(
        self, actions: list[tuple], wall: list[float], sim: list[float], results: list
    ) -> tuple[list[float], list[float]]:
        """Per-op wall and SimClock latencies of the timed actions."""
        return wall, sim


class SingleMountWorkload(Workload):
    """A workload on one ``Mount`` (``self.mount``, built by ``setup``)."""

    mount: Mount

    def sim_now(self) -> float:
        return self.mount.clock.now

    def snapshots(self) -> list[MetricsSnapshot]:
        # Not ``engine.metrics()``: that flushes the coalescing buffers
        # first, which would change what is being measured.
        return [self.mount.device.obs.registry.snapshot()]

    def gauges(self) -> dict[str, float]:
        return {"hashtable.load_factor": self.mount.engine.hashtable.load_factor()}

    def device_bytes_in_use(self) -> int:
        return self.mount.bytes_in_use()


def read_counters(snapshots: list[MetricsSnapshot]) -> dict[str, float]:
    """Sum the registries' counters under the program's own names, with
    the cluster's per-node device counters folded into ``storage.device``."""
    total: dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.counters.items():
            key = _NODE_DEVICE.sub("storage.device.", name)
            total[key] = total.get(key, 0) + value
    return total


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.999999) - 1))
    return ordered[rank]


def tail_mean(samples: list[float], share: float) -> float:
    """Mean of the slowest ``share`` of the samples (at least 10).

    SimClock latencies are quantised in device seeks, so a single
    percentile sits on a step: ``kv_serving``'s p99 flips between 3 and
    4 seeks (24.5 / 32.5 ms) from seed to seed.  The tail mean moves
    smoothly with how many ops are slow and how slow they are."""
    count = max(10, int(len(samples) * share))
    return statistics.fmean(sorted(samples)[-count:])


@dataclass
class PassResult:
    """Everything one pass measured."""

    workload: Workload
    timed_actions: list[tuple]
    wall: list[float]
    wall_s: float
    cpu_s: float
    sim_s: float
    setup_times: list[float]
    peak_rss_mb: float
    counters: dict[str, float]
    gauges: dict[str, float]
    device_bytes_in_use: int
    attempted: int = 0
    failed: int = 0
    user_bytes_stored: int = 0
    tracer: Optional[Tracer] = None
    op_wall: list[float] = field(default_factory=list)
    op_sim: list[float] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.op_wall)

    def kind_walls(self) -> dict[str, list[float]]:
        by_kind: dict[str, list[float]] = {}
        for action, seconds in zip(self.timed_actions, self.wall):
            by_kind.setdefault(action[0], []).append(seconds)
        return by_kind


def _recorded_requests(count: int) -> set[int]:
    stride = max(1, count // RECORD_SPREAD)
    return set(range(min(RECORD_HEAD, count))) | set(range(0, count, stride))


def run_pass(
    make: Callable[[], Workload],
    traced: bool = False,
    replays: int = 1,
    verify: bool = True,
) -> PassResult:
    """Run one pass of the workload ``make()`` builds.

    With ``replays > 1`` the same actions run that many times, each on a
    freshly set-up stack.  The program is deterministic, so every replay
    does the same work (checked: results, SimClock latencies and
    counters must be identical) and an action's wall latency is taken
    as its **minimum** over the replays.  On this shared 2-core box
    identical work varies by 20-40 % in bursts of a few hundred
    milliseconds; a burst has to hit the same action in every replay to
    survive the minimum, which is what makes one run's wall metrics
    steady.  The replays' set-ups are the ``setup_s`` samples.
    """
    workload = make()
    tracer: Optional[Tracer] = None
    if traced:
        tracer = Tracer()
        tracer.install()
    try:
        return _run_pass(workload, tracer, replays, verify)
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()


@dataclass
class _Replay:
    wall: list[float]
    sim: list[float]
    results: list
    cpu_s: float
    sim_s: float
    counters: dict[str, float]


def _timed_setup(workload: Workload, setup_times: list[float]) -> None:
    gc.collect()  # the previous set-up's stack is garbage by now
    start = time.perf_counter()
    workload.setup()
    setup_times.append(time.perf_counter() - start)


def _replay(workload: Workload, tracer: Optional[Tracer]) -> _Replay:
    """Warm-up and timed phase on the stack ``workload.setup()`` built."""
    actions = workload.actions
    results = [_attempt(workload.execute, action) for action in actions[: workload.warm]]
    timed = actions[workload.warm :]

    execute = workload.execute
    sim_now = workload.sim_now
    recorded: set[int] = set()
    if tracer is not None:
        execute = tracer.wrap(execute, ROOT_LAYER, "run.action")
        tracer.sim_now = sim_now
        recorded = _recorded_requests(len(timed))
        tracer.active = True

    before = read_counters(workload.snapshots())
    before_extra = workload.extra_counters()
    wall: list[float] = []
    sim: list[float] = []
    perf = time.perf_counter
    sim_start = sim_now()
    cpu_start = time.process_time()
    for index, action in enumerate(timed):
        if tracer is not None:
            tracer.begin_request(index, index in recorded)
        sim_before = sim_now()
        started = perf()
        try:
            got = execute(action)
        except Exception as exc:  # counted as a failed op by check()
            got = Failure(repr(exc))
        wall.append(perf() - started)
        sim.append(sim_now() - sim_before)
        results.append(got)
    cpu_s = time.process_time() - cpu_start
    sim_s = sim_now() - sim_start
    if tracer is not None:
        tracer.active = False

    after = read_counters(workload.snapshots())
    counters = {key: value - before.get(key, 0) for key, value in after.items()}
    for key, value in workload.extra_counters().items():
        counters[key] = value - before_extra.get(key, 0)
    return _Replay(wall, sim, results, cpu_s, sim_s, counters)


def _run_pass(
    workload: Workload, tracer: Optional[Tracer], replays: int, verify: bool
) -> PassResult:
    setup_times: list[float] = []
    runs: list[_Replay] = []
    for index in range(replays):
        _timed_setup(workload, setup_times)
        if index == 0 and replays > 1:
            # A 10 ms set-up is sampled up to 31 times (1.5 s in all) so
            # that its median is as steady as that of a 2 s one.
            for __ in range(min(31, int(1.5 / setup_times[0])) - replays):
                _timed_setup(workload, setup_times)
        runs.append(_replay(workload, tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workload.finish()
    last = runs[-1]
    timed = workload.actions[workload.warm :]
    wall = [min(samples) for samples in zip(*(run.wall for run in runs))]
    result = PassResult(
        workload=workload,
        timed_actions=timed,
        wall=wall,
        wall_s=sum(wall),
        cpu_s=min(run.cpu_s for run in runs),
        sim_s=last.sim_s,
        setup_times=setup_times,
        peak_rss_mb=peak_rss_mb,
        counters=last.counters,
        gauges=workload.gauges(),
        device_bytes_in_use=workload.device_bytes_in_use(),
        tracer=tracer,
    )
    result.op_wall, result.op_sim = workload.ops_view(
        timed, wall, last.sim, last.results[workload.warm :]
    )

    # Verification: every replay did the same; replay every action
    # (warm-up included, it changed state) through the model; then the
    # workload's final checks on the last replay's stack.
    result.attempted = len(workload.actions) + len(runs) - 1
    for run in runs[:-1]:
        same = (run.results, run.sim, run.counters) == (last.results, last.sim, last.counters)
        result.failed += not same
    for action, got in zip(workload.actions, last.results):
        if isinstance(got, Failure) or not workload.check(action, got):
            result.failed += 1
    result.user_bytes_stored = workload.user_bytes_stored()
    if verify:
        failed, attempted = workload.verify()
        result.failed += failed
        result.attempted += attempted
    return result


def _attempt(execute: Callable[[tuple], object], action: tuple) -> object:
    try:
        return execute(action)
    except Exception as exc:
        return Failure(repr(exc))


# -- metrics ------------------------------------------------------------------


def end_to_end_metrics(result: PassResult) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass."""
    ops = result.ops
    user_written = sum(
        result.workload.user_bytes_written(action) for action in result.timed_actions
    )
    device_written = result.counters.get("storage.device.bytes_written", 0) + (
        result.counters.get("raft.device.bytes_written", 0)
    )
    return {
        "wall_ops_per_s": ops / result.wall_s,
        "cpu_us_per_op": result.cpu_s / ops * 1e6,
        "wall_p50_us": statistics.median(result.op_wall) * 1e6,
        "sim_ops_per_s": ops / result.sim_s,
        "sim_tail1pct_ms": tail_mean(result.op_sim, 0.01) * 1e3,
        "stored_per_user_byte": _ratio(result.device_bytes_in_use, result.user_bytes_stored),
        "dev_write_per_user_byte": _ratio(device_written, user_written),
        "setup_s": statistics.median(result.setup_times),
        "peak_rss_mb": result.peak_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    untraced: PassResult, traced: PassResult, passthrough: Optional[PassResult]
) -> dict[str, float]:
    """Every per-layer metric: self time and calls from the traced
    pass, counter deltas and driver timings from the untraced one."""
    tracer = traced.tracer
    assert tracer is not None
    ops = untraced.ops
    out: dict[str, float] = {}
    self_s = tracer.layer_self_s()
    calls = tracer.layer_calls()
    for layer in spec.LAYERS:
        out[f"{layer}.self_us_per_op"] = self_s[layer] / traced.ops * 1e6
        out[f"{layer}.calls_per_op"] = calls[layer] / traced.ops

    c = untraced.counters.get
    reads = c("storage.device.block_reads", 0)
    hits = c("storage.device.cache.hits", 0)
    misses = c("storage.device.cache.misses", 0)
    commits = c("engine.compressor.commits", 0)
    image_bytes, image_count = tracer.probes["repro.core.superblock:serialize_metadata"]
    frame_bytes, __ = tracer.probes["repro.serving.server:Server.serve_frame"]
    out.update(
        {
            "storage.block_device.reads_per_op": reads / ops,
            "storage.block_device.writes_per_op": c("storage.device.block_writes", 0) / ops,
            "storage.block_device.cache_hit_ratio": _ratio(hits, hits + misses),
            "storage.block_device.cache_evictions_per_op": (
                c("storage.device.cache.evictions", 0) / ops
            ),
            "storage.journal.commits_per_kop": c("journal.commits", 0) / ops * 1e3,
            "storage.journal.blocks_per_commit": _ratio(
                c("journal.blocks_written", 0), c("journal.commits", 0)
            ),
            "core.engine.fsyncs_per_kop": c("engine.txn.commits", 0) / ops * 1e3,
            "core.superblock.image_bytes_per_fsync": _ratio(image_bytes, image_count),
            "core.compressor.dedup_hit_ratio": _ratio(
                c("engine.compressor.dedup_hits", 0),
                commits + c("engine.compressor.stores", 0),
            ),
            "core.compressor.cow_per_op": c("engine.compressor.cow_allocations", 0) / ops,
            "core.compressor.in_place_ratio": _ratio(
                c("engine.compressor.in_place_updates", 0), commits
            ),
            "core.hashtable.load_factor": untraced.gauges.get("hashtable.load_factor", 0.0),
            "databases.minileveldb.compactions": tracer.calls_named("MiniLevelDB.compact"),
            "serving.admission.shed_share": _ratio(
                c("serving.server.shed", 0), c("serving.server.requests", 0)
            ),
            "serving.server.error_share": _ratio(
                c("serving.server.errors", 0), c("serving.server.requests", 0)
            ),
            "serving.protocol.bytes_per_op": frame_bytes / traced.ops,
            "mvcc.abort_share": _ratio(
                c("mvcc.sessions.aborted", 0), c("mvcc.sessions.begun", 0)
            ),
            "mvcc.commits_per_journal_commit": _ratio(
                c("mvcc.sessions.committed", 0), c("journal.commits", 0)
            ),
            "raft.node.messages_per_propose": _ratio(
                c("raft.transport.messages", 0), c("raft.log.entries", 0)
            ),
            "raft.node.bytes_per_propose": _ratio(
                c("raft.transport.bytes", 0), c("raft.log.entries", 0)
            ),
            "distributed.replicated.failover_sim_ms": (
                untraced.gauges.get("failover_sim_s", 0.0) * 1e3
            ),
            "distributed.replicated.redirects": c("raft.group.redirects", 0),
            "distributed.client.rpcs_per_op": c("cluster.rpc.count", 0) / ops,
            "distributed.client.net_bytes_per_op": c("cluster.rpc.bytes", 0) / ops,
        }
    )

    kinds = untraced.kind_walls()

    def rate(kind: str) -> float:
        seconds = kinds.get(kind)
        return len(seconds) / sum(seconds) if seconds else 0.0

    def p50_us(kind: str) -> float:
        seconds = kinds.get(kind)
        return statistics.median(seconds) * 1e6 if seconds else 0.0

    for engine in ("minisql", "minileveldb", "minimongo"):
        out[f"databases.{engine}.wall_ops_per_s"] = rate(engine)
    for statement in ("narrow", "wide", "append"):
        out[f"databases.minicolumn.{statement}_wall_p50_us"] = p50_us(f"col_{statement}")
    for kind in spec.DIRECT_OP_KINDS:
        out[f"core.operations.{kind}.wall_p50_us"] = p50_us(f"op_{kind}")
    if passthrough is not None:
        out["fs.sim_gain_vs_passthrough_pct"] = (
            (passthrough.sim_s - untraced.sim_s) / passthrough.sim_s * 100.0
        )
        out["fs.wall_cost_vs_passthrough_x"] = untraced.wall_s / passthrough.wall_s
    else:
        out["fs.sim_gain_vs_passthrough_pct"] = 0.0
        out["fs.wall_cost_vs_passthrough_x"] = 0.0
    out["run.sim_p99_ms"] = percentile(untraced.op_sim, 0.99) * 1e3
    out["run.wall_p99_us"] = percentile(untraced.op_wall, 0.99) * 1e6
    out["run.ops"] = ops
    out["run.trace_overhead_x"] = traced.wall_s / untraced.wall_s
    return out


def conservation(traced: PassResult) -> dict[str, float]:
    """How well the layer self times add up to the root spans."""
    tracer = traced.tracer
    assert tracer is not None
    self_s = tracer.layer_self_s()
    total = sum(self_s.values())
    return {
        "root_s": tracer.root_s,
        "self_sum_s": total,
        "gap_share": abs(total - tracer.root_s) / tracer.root_s,
        "driver_share": self_s[ROOT_LAYER] / tracer.root_s,
    }
