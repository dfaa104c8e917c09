"""Tests for repro.obs: metrics, tracing, exporters, and the
redesigned stats surface (DESIGN.md §9).

Covers the registry's typed instruments and snapshot algebra, lexical
span nesting within one component and *across* layers (a journaled
CompressFS write producing one connected VFS → engine → journal →
device trace), the spans and the counter that replaced the three hook
sites, byte-stable exporter output against golden files, a Prometheus
text-format validator over ``repro stats --prom``, and the
snapshot-only read surface of the counter groups.
"""

from __future__ import annotations

import json
import os
import re
import warnings

import pytest

from repro.core.compressor import COMPRESSOR_FIELDS
from repro.core.engine import CompressDB
from repro.fs.compressfs import CompressFS
from repro.fs.fd import O_CREAT, O_RDWR
from repro.fs.vfs import PassthroughFS
from repro.obs import (
    CounterGroup,
    MetricsRegistry,
    Observability,
    Tracer,
    disable_global_tracing,
    enable_global_tracing,
)
from repro.obs.exporters import chrome_trace_json, metrics_json, prometheus_text
from repro.obs.trace import Span
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.simclock import SimClock
from repro.storage.stats import IOStats, IOStatsSnapshot

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


# ---------------------------------------------------------------------------
# Metrics instruments and registry
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        c = registry.counter("a.b")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("a.b")

    def test_name_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("Not.Valid")

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat.ms", bounds=(1.0, 5.0))
        for value in (0.5, 3.0, 42.0):
            h.observe(value)
        snap = registry.snapshot().histograms["lat.ms"]
        assert snap.counts == (1, 1, 1)  # <=1, <=5, overflow
        assert snap.cumulative() == (1, 2, 3)
        assert snap.count == 3 and snap.sum == 45.5

    def test_histogram_bounds_conflict(self):
        registry = MetricsRegistry()
        registry.histogram("lat.ms", bounds=(1.0, 5.0))
        with pytest.raises(ValueError, match="different bounds"):
            registry.histogram("lat.ms", bounds=(2.0,))

    def test_snapshot_delta_and_merge(self):
        registry = MetricsRegistry()
        c = registry.counter("a.b")
        g = registry.gauge("c.d")
        c.inc(3)
        g.set(1.0)
        earlier = registry.snapshot()
        c.inc(2)
        g.set(9.0)
        later = registry.snapshot()
        delta = later.delta(earlier)
        assert delta.counter("a.b") == 2  # counters subtract
        assert delta.gauge("c.d") == 9.0  # gauges keep the later value
        merged = later.merge(later)
        assert merged.counter("a.b") == 10

    def test_snapshot_filter(self):
        registry = MetricsRegistry()
        registry.counter("storage.device.block_reads").inc()
        registry.counter("engine.txn.commits").inc()
        filtered = registry.snapshot(prefix="storage")
        assert list(filtered.counters) == ["storage.device.block_reads"]

    def test_disabled_registry_hands_out_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        c = registry.counter("a.b")
        c.inc(1000)
        assert c.value == 0
        registry.gauge("c.d").set(5.0)
        registry.histogram("e.f").observe(1.0)
        snap = registry.snapshot()
        assert not snap.counters and not snap.gauges and not snap.histograms


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.span("a.b"):
            pass
        assert tracer.spans() == []

    def test_nesting_and_deterministic_ids(self):
        clock = SimClock()
        tracer = Tracer(clock=clock, enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current is inner
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]  # completion order
        assert outer.span_id == 1 and inner.span_id == 2
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("engine.write"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "RuntimeError"

    def test_ring_buffer_bounds_retention(self):
        tracer = Tracer(capacity=4, enabled=True)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [s.name for s in tracer.spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_timestamps_from_simclock(self):
        clock = SimClock()
        tracer = Tracer(clock=clock, enabled=True)
        with tracer.span("timed"):
            clock.charge(0.25)
        (span,) = tracer.spans()
        assert span.duration == pytest.approx(0.25)


class TestGlobalTracing:
    def test_new_bundles_adopt_global_tracer(self):
        tracer = enable_global_tracing()
        try:
            a = Observability()
            b = Observability()
            assert a.tracer is tracer and b.tracer is tracer
        finally:
            disable_global_tracing()
        assert Observability().tracer is not tracer

    def test_first_bundle_donates_its_clock(self):
        tracer = enable_global_tracing()
        try:
            clock = SimClock()
            Observability(clock=clock)
            assert tracer.clock is clock
        finally:
            disable_global_tracing()


# ---------------------------------------------------------------------------
# Cross-layer span nesting: one workload, one connected trace
# ---------------------------------------------------------------------------

class TestCrossLayerTracing:
    def test_journaled_write_connects_four_layers(self):
        tracer = enable_global_tracing()
        try:
            engine = CompressDB.mount(
                MemoryBlockDevice(block_size=1024), journal_blocks=64
            )
            fs = CompressFS(engine=engine)
            fd = fs.open("/f", O_RDWR | O_CREAT)
            fs.write(fd, b"observable bytes " * 200)
            fs.close(fd)  # close == commit point: flush + journal commit
        finally:
            disable_global_tracing()
        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        layers = {s.name.split(".", 1)[0] for s in spans}
        assert {"vfs", "engine", "journal", "device"} <= layers

        def ancestors(span):
            chain = []
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                chain.append(span.name)
            return chain

        # A journal phase's device write sits under the whole stack.
        device_writes = [
            s
            for s in spans
            if s.name == "device.write"
            and any(a.startswith("journal.phase.") for a in ancestors(s))
        ]
        assert device_writes, "no device.write nested under a journal phase"
        chain = ancestors(device_writes[0])
        assert "journal.commit" in chain
        assert "engine.flush" in chain
        assert "vfs.close" in chain
        # Parent intervals contain their children.
        for span in spans:
            if span.parent_id in by_id:
                parent = by_id[span.parent_id]
                assert parent.start <= span.start
                assert span.end <= parent.end

    def test_vfs_write_span_wraps_engine_write(self):
        tracer = enable_global_tracing()
        try:
            fs = CompressFS(block_size=1024)
            fd = fs.open("/f", O_RDWR | O_CREAT)
            fs.write(fd, b"x" * 4096)
            fs.close(fd)
        finally:
            disable_global_tracing()
        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        engine_writes = [s for s in spans if s.name == "engine.write"]
        assert engine_writes
        assert by_id[engine_writes[0].parent_id].name == "vfs.write"


# ---------------------------------------------------------------------------
# The former hook sites: a counter and two families of spans
# ---------------------------------------------------------------------------

class TestHooks:
    """The hook registry is gone; what its three sites announced is read
    off the instrument or the span that already carried it."""

    def test_cache_eviction_site_fires(self):
        device = MemoryBlockDevice(block_size=64, cache_blocks=2)
        blocks = [device.allocate() for __ in range(4)]
        for no in blocks:
            device.write_block(no, b"x" * 64)
        for no in blocks:
            device.read_block(no)
        evictions = device.obs.registry.counter("storage.device.cache.evictions")
        assert evictions.value > 0, "filling a 2-block cache with 4 blocks must evict"

    def test_journal_commit_phases_fire_in_order(self):
        tracer = enable_global_tracing()
        try:
            engine = CompressDB.mount(
                MemoryBlockDevice(block_size=1024), journal_blocks=64
            )
            engine.create("/f")
            engine.write("/f", 0, b"y" * 3000)
            engine.fsync("/f")
            # Overwriting committed blocks shadows them and defers the frees.
            engine.write("/f", 0, b"z" * 3000)
            engine.fsync("/f")
        finally:
            disable_global_tracing()
        spans = tracer.spans()
        commits = {s.span_id: s for s in spans if s.name == "journal.commit"}
        order = {"fresh": 0, "append": 1, "apply": 2, "frees": 3}
        by_commit: dict = {}
        for span in spans:  # completion order == protocol order within a commit
            if span.name.startswith("journal.phase."):
                assert span.attrs["blocks"] > 0
                phase = span.name.rsplit(".", 1)[1]
                by_commit.setdefault(span.parent_id, []).append(order[phase])
        assert by_commit and set(by_commit) <= set(commits)
        assert {0, 3} <= {rank for ranks in by_commit.values() for rank in ranks}
        for ranks in by_commit.values():
            assert ranks == sorted(ranks)
        lsns = [commits[span_id].attrs["lsn"] for span_id in by_commit]
        assert lsns == sorted(set(lsns))  # one commit span per epoch

    def test_coalesce_flush_site_fires(self):
        tracer = enable_global_tracing()
        try:
            engine = CompressDB(block_size=1024)
            engine.create("/f")
            engine.write("/f", 0, b"a" * 100)
            engine.write("/f", 100, b"b" * 100)  # sequential: coalesces
            engine.flush()
        finally:
            disable_global_tracing()
        (flush,) = [s for s in tracer.spans() if s.name == "engine.coalesce.flush"]
        assert flush.attrs == {"path": "/f", "nbytes": 200}


# ---------------------------------------------------------------------------
# Exporters (golden files) and the Prometheus text-format validator
# ---------------------------------------------------------------------------

def _golden_snapshot():
    registry = MetricsRegistry()
    registry.counter("storage.device.block_reads").inc(3)
    registry.counter("engine.txn.commits").inc(1)
    registry.counter("engine.checkpoints").inc(1)
    registry.counter("engine.checkpoint.image_bytes").inc(2048)
    registry.counter("engine.delta.record_bytes").inc(96)
    registry.gauge("engine.space.compression_ratio").set(2.5)
    registry.gauge("journal.log_used_blocks").set(12)
    h = registry.histogram("engine.txn.commit_ms", bounds=(1.0, 5.0))
    for value in (0.5, 3.0, 42.0):
        h.observe(value)
    return registry.snapshot()


def _golden_spans():
    return [
        Span(span_id=2, parent_id=1, name="engine.write", start=0.25, end=1.0,
             attrs={"path": "/f", "nbytes": 100}),
        Span(span_id=1, parent_id=None, name="vfs.write", start=0.0, end=1.5,
             attrs={"path": "/f"}),
    ]


_PROM_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? "
    r"(-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$"
)


def validate_prometheus_text(text: str) -> int:
    """A strict validator for the Prometheus text exposition format.

    Checks line syntax, HELP/TYPE preceding each family, histogram
    bucket monotonicity, and the ``+Inf`` bucket equalling ``_count``.
    Returns the number of samples validated.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    typed: dict[str, str] = {}
    helped: set[str] = set()
    samples = 0
    buckets: dict[str, list[tuple[float, float]]] = {}
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            helped.add(line.split(" ", 3)[2])
            continue
        if line.startswith("# TYPE "):
            __, __, family, kind = line.split(" ", 3)
            assert kind in {"counter", "gauge", "histogram"}, kind
            assert family in helped, f"TYPE before HELP for {family}"
            typed[family] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        assert _PROM_METRIC_LINE.match(line), f"bad sample line: {line!r}"
        name = line.split("{", 1)[0].split(" ", 1)[0]
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or family in typed, f"sample {name} lacks TYPE"
        raw = line.rsplit(" ", 1)[1]
        value = float("inf") if raw == "+Inf" else float(raw)
        if name.endswith("_bucket"):
            le = line.split('le="', 1)[1].split('"', 1)[0]
            bound = float("inf") if le == "+Inf" else float(le)
            buckets.setdefault(family, []).append((bound, value))
        else:
            values[name] = value
        samples += 1
    for family, series in buckets.items():
        bounds = [b for b, __ in series]
        counts = [c for __, c in series]
        assert bounds == sorted(bounds), f"{family}: le bounds out of order"
        assert counts == sorted(counts), f"{family}: buckets not cumulative"
        assert bounds[-1] == float("inf"), f"{family}: missing +Inf bucket"
        assert counts[-1] == values[f"{family}_count"], (
            f"{family}: +Inf bucket != _count"
        )
    return samples


class TestExporters:
    def _check_golden(self, name: str, rendered: str):
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "r", encoding="utf-8") as handle:
            assert rendered == handle.read(), f"golden mismatch: {path}"

    def test_prometheus_text_matches_golden(self):
        self._check_golden("metrics.prom", prometheus_text(_golden_snapshot()))

    def test_metrics_json_matches_golden(self):
        self._check_golden("metrics.json", metrics_json(_golden_snapshot()) + "\n")

    def test_chrome_trace_matches_golden(self):
        self._check_golden("trace.json", chrome_trace_json(_golden_spans()) + "\n")

    def test_prometheus_output_validates(self):
        assert validate_prometheus_text(prometheus_text(_golden_snapshot())) > 0

    def test_metrics_json_is_byte_stable(self):
        assert metrics_json(_golden_snapshot()) == metrics_json(_golden_snapshot())

    def test_chrome_trace_parent_links(self):
        payload = json.loads(chrome_trace_json(_golden_spans()))
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        child = next(e for e in events if e["name"] == "engine.write")
        parent = next(e for e in events if e["name"] == "vfs.write")
        assert child["args"]["parent_id"] == parent["args"]["span_id"]
        assert child["ts"] == 250000.0 and child["dur"] == 750000.0  # µs


# ---------------------------------------------------------------------------
# Redesigned stats surface: registry-backed classes + legacy shims
# ---------------------------------------------------------------------------

class TestLegacyShims:
    """The PR 4 attribute shims are gone: counters are read through
    frozen snapshots only."""

    def test_legacy_attributes_are_gone(self):
        assert not hasattr(IOStats(), "block_reads")
        group = CounterGroup("engine.compressor", COMPRESSOR_FIELDS)
        assert not hasattr(group, "dedup_hits")

    def test_snapshot_is_frozen(self):
        snap = IOStats().snapshot()
        with pytest.raises(AttributeError):
            snap.block_reads = 5
        assert isinstance(snap, IOStatsSnapshot)


class TestMetricsAccessors:
    def test_filesystem_metrics_accessor(self):
        fs = PassthroughFS(block_size=1024)
        fs.write_file("/f", b"z" * 2048)
        snap = fs.metrics()
        assert snap.counter("storage.device.block_writes") > 0

    def test_compressfs_metrics_publishes_engine_gauges(self):
        fs = CompressFS(block_size=1024)
        fs.write_file("/f", b"z" * 4096)
        snap = fs.metrics()
        assert snap.gauge("engine.space.files") == 1
        assert snap.gauge("engine.space.logical_bytes") == 4096
        assert snap.counter("engine.compressor.stores") > 0

    def test_one_stack_one_registry(self):
        fs = CompressFS(block_size=1024)
        assert fs.obs.registry is fs.engine.obs.registry
        assert fs.engine.obs.registry is fs.device.obs.registry
