"""Typed metric instruments and the hierarchical registry.

The observability redesign (DESIGN.md §9) replaces the four ad-hoc
counter classes with one :class:`MetricsRegistry` holding three typed
instruments under dotted hierarchical names::

    registry.counter("storage.device.block_reads").inc()
    registry.gauge("engine.space.files").set(3)
    registry.histogram("engine.txn.commit_ms").observe(1.8)

Counters are monotone; gauges are point-in-time values; histograms are
fixed-bucket (no dynamic resizing, so snapshots merge exactly).  A
:meth:`MetricsRegistry.snapshot` is an immutable view supporting
``delta`` (counters/histograms subtract, gauges keep the later value)
and ``merge`` (everything sums) — the cluster simulator merges per-node
snapshots into a fleet view, benchmarks delta around a measured region.

A registry built with ``enabled=False`` hands out shared null
instruments whose mutators are no-ops: the instrumented code path then
costs one attribute load plus an empty method call, which is what the
``benchmarks/bench_obs.py`` overhead guard measures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

__all__ = [
    "Counter",
    "CounterGroup",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_LATENCY_BUCKETS_MS",
]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9][a-z0-9_]*)*$")

#: Default fixed buckets for latency histograms, in milliseconds.
#: Spans the simulated profiles: RAM-disk metadata ticks up to
#: multi-second HDD batch commits.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.01, 0.1, 1.0, 5.0, 25.0, 100.0, 500.0, 2_000.0, 10_000.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: dotted lowercase identifiers "
            "only (e.g. 'storage.device.block_reads')"
        )
    return name


class Counter:
    """A monotonically increasing counter.

    ``value`` is read-only: a counter changes through :meth:`inc` and
    :meth:`reset` alone, which is what keeps the snapshot
    ``delta``/``merge`` algebra sound.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name}: cannot add {n} < 0")
        self._value += n

    def reset(self) -> None:
        self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (files, bytes, ratio); ``value`` is
    read-only, written through :meth:`set`/:meth:`inc`/:meth:`dec`."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, n: float = 1.0) -> None:
        self._value += n

    def dec(self, n: float = 1.0) -> None:
        self._value -= n

    def reset(self) -> None:
        self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``bounds`` are the inclusive upper edges of each bucket; a final
    implicit overflow bucket catches everything above the last bound.
    Bounds are fixed at creation so any two snapshots of histograms
    with equal bounds can be subtracted or summed bucket-by-bucket.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError(f"histogram {name}: at least one bucket bound required")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name}: bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def snapshot(self) -> "HistogramSnapshot":
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(self.counts),
            sum=self.sum,
            count=self.count,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count}, sum={self.sum})"


class _NullCounter(Counter):
    """Shared no-op counter handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable view of one histogram's state."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int

    def cumulative(self) -> tuple[int, ...]:
        """Bucket counts accumulated left to right (Prometheus ``le`` form)."""
        total = 0
        out = []
        for c in self.counts:
            total += c
            out.append(total)
        return tuple(out)

    def delta(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        if earlier.bounds != self.bounds:
            raise ValueError("histogram bounds differ; snapshots are incompatible")
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a - b for a, b in zip(self.counts, earlier.counts)),
            sum=self.sum - earlier.sum,
            count=self.count - earlier.count,
        )

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if other.bounds != self.bounds:
            raise ValueError("histogram bounds differ; snapshots are incompatible")
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            sum=self.sum + other.sum,
            count=self.count + other.count,
        )

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from the buckets.

        Linear interpolation inside the covering bucket (lower edge 0
        for the first); the overflow bucket has no upper edge, so its
        estimate is the last finite bound — a deliberate *floor* that
        still flags SLO misses without inventing a magnitude.  This is
        the Prometheus ``histogram_quantile`` estimator, which is what
        the serving layer's p50/p95/p99 SLO tracking reports.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if seen + bucket_count >= target and bucket_count > 0:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                within = (target - seen) / bucket_count
                return lower + (upper - lower) * within
            seen += bucket_count
        return self.bounds[-1]


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time view of a whole registry.

    ``counters``/``gauges`` map metric name → value; ``histograms``
    map name → :class:`HistogramSnapshot`.  The mappings are plain
    dicts by construction but treated as frozen: mutate the registry,
    not a snapshot.
    """

    counters: Mapping[str, int]
    gauges: Mapping[str, float]
    histograms: Mapping[str, HistogramSnapshot]

    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self.gauges.get(name, default)

    def filter(self, prefix: str) -> "MetricsSnapshot":
        """The sub-snapshot of metrics under ``prefix`` (dot-delimited)."""
        dotted = prefix.rstrip(".") + "."
        return MetricsSnapshot(
            counters={k: v for k, v in self.counters.items() if k.startswith(dotted)},
            gauges={k: v for k, v in self.gauges.items() if k.startswith(dotted)},
            histograms={
                k: v for k, v in self.histograms.items() if k.startswith(dotted)
            },
        )

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Counters and histograms subtract; gauges keep the later value."""
        return MetricsSnapshot(
            counters={
                k: v - earlier.counters.get(k, 0) for k, v in self.counters.items()
            },
            gauges=dict(self.gauges),
            histograms={
                k: (v.delta(earlier.histograms[k]) if k in earlier.histograms else v)
                for k, v in self.histograms.items()
            },
        )

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Element-wise sum (cluster-wide aggregation of per-node views)."""
        counters = dict(self.counters)
        for k, v in other.counters.items():
            counters[k] = counters.get(k, 0) + v
        gauges = dict(self.gauges)
        for k, v in other.gauges.items():
            gauges[k] = gauges.get(k, 0.0) + v
        histograms = dict(self.histograms)
        for k, v in other.histograms.items():
            histograms[k] = histograms[k].merge(v) if k in histograms else v
        return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)


class MetricsRegistry:
    """Get-or-create registry of typed instruments under dotted names.

    Asking for an existing name returns the same instrument object;
    asking for it as a *different* type raises ``ValueError`` (one name,
    one type — exporters rely on it).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        if not enabled:
            self._null_counter = _NullCounter("disabled")
            self._null_gauge = _NullGauge("disabled")
            self._null_histogram = _NullHistogram("disabled", (1.0,))

    def _check_free(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}, "
                    f"requested as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return self._null_counter
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(_check_name(name), "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return self._null_gauge
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(_check_name(name), "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> Histogram:
        if not self.enabled:
            return self._null_histogram
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(_check_name(name), "histogram")
            instrument = self._histograms[name] = Histogram(name, bounds)
        elif tuple(float(b) for b in bounds) != instrument.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different bounds"
            )
        return instrument

    def names(self) -> list[str]:
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )

    def snapshot(self, prefix: Optional[str] = None) -> MetricsSnapshot:
        snap = MetricsSnapshot(
            counters={name: c.value for name, c in self._counters.items()},
            gauges={name: g.value for name, g in self._gauges.items()},
            histograms={name: h.snapshot() for name, h in self._histograms.items()},
        )
        return snap.filter(prefix) if prefix else snap

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero every instrument (optionally only those under ``prefix``)."""
        dotted = prefix.rstrip(".") + "." if prefix else None
        for table in (self._counters, self._gauges, self._histograms):
            for name, instrument in table.items():
                if dotted is None or name.startswith(dotted):
                    instrument.reset()


class CounterGroup:
    """A fixed set of counters under one prefix, bumped by field name.

    How a layer with a handful of related counts reports them:
    ``CounterGroup("engine.ops", OPERATION_FIELDS, registry)`` registers
    ``engine.ops.<field>`` for every field, :meth:`record` bumps one and
    :meth:`snapshot` reads them all back as a ``field -> value`` dict.
    Without a ``registry`` the group counts into a private one.
    ``__slots__`` makes a stray ``group.commits += 1`` an
    ``AttributeError`` instead of a silent divergence from the registry.
    """

    __slots__ = ("registry", "prefix", "_counters")

    def __init__(
        self,
        prefix: str,
        fields: Sequence[str],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.prefix = prefix
        self._counters = {
            name: self.registry.counter(f"{prefix}.{name}") for name in fields
        }

    def record(self, field_name: str, n: int = 1) -> None:
        self._counters[field_name].inc(n)

    def snapshot(self) -> dict[str, int]:
        return {name: c.value for name, c in self._counters.items()}

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
