"""Per-tenant SLO tracking through :mod:`repro.obs`.

Each tenant gets a latency histogram plus accepted/shed/completed/
error counters and a queue-depth gauge, all registered under
``serving.tenant.<name>.*`` in the server's :class:`MetricsRegistry`.
:meth:`TenantSLO.report` condenses them into the p50/p95/p99 summary
the issue asks for; percentiles come from
:meth:`repro.obs.metrics.HistogramSnapshot.percentile`, so they are
bucket estimates — benchmarks that need exact percentiles keep their
own sample lists and use :func:`repro.workloads.metrics.percentile`.
"""

from __future__ import annotations

import re

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry

_METRIC_SEGMENT_RE = re.compile(r"[^a-z0-9_]+")

#: Finer-grained low end than the storage default: serving-layer
#: requests on the LAN profile complete in tens of microseconds.
SERVING_LATENCY_BUCKETS_MS: tuple[float, ...] = tuple(
    sorted({0.005, 0.02, 0.05, 0.2, 0.5, *DEFAULT_LATENCY_BUCKETS_MS})
)


def metric_segment(tenant: str) -> str:
    """A tenant name coerced into a legal metric-name segment."""
    segment = _METRIC_SEGMENT_RE.sub("_", tenant.lower()).strip("_")
    return segment or "tenant"


class TenantSLO:
    """One tenant's serving-level indicators."""

    def __init__(self, registry: MetricsRegistry, tenant: str) -> None:
        self.tenant = tenant
        prefix = f"serving.tenant.{metric_segment(tenant)}"
        self.latency_ms = registry.histogram(
            f"{prefix}.latency_ms", bounds=SERVING_LATENCY_BUCKETS_MS
        )
        self.accepted = registry.counter(f"{prefix}.accepted")
        self.shed = registry.counter(f"{prefix}.shed")
        self.completed = registry.counter(f"{prefix}.completed")
        self.errors = registry.counter(f"{prefix}.errors")
        self.queue_depth = registry.gauge(f"{prefix}.queue_depth")

    # -- recording ------------------------------------------------------------
    def on_accept(self) -> None:
        self.accepted.inc()

    def on_shed(self) -> None:
        self.shed.inc()

    def on_complete(self, latency_s: float, error: bool = False) -> None:
        self.completed.inc()
        self.latency_ms.observe(latency_s * 1e3)
        if error:
            self.errors.inc()

    # -- reporting ------------------------------------------------------------
    def report(self) -> dict:
        """The SLO summary for this tenant (latencies in ms)."""
        snap = self.latency_ms.snapshot()
        offered = self.accepted.value + self.shed.value
        return {
            "tenant": self.tenant,
            "offered": offered,
            "accepted": self.accepted.value,
            "shed": self.shed.value,
            "completed": self.completed.value,
            "errors": self.errors.value,
            "shed_rate": (self.shed.value / offered) if offered else 0.0,
            "queue_depth": self.queue_depth.value,
            "p50_ms": snap.percentile(0.50),
            "p95_ms": snap.percentile(0.95),
            "p99_ms": snap.percentile(0.99),
            "mean_ms": (snap.sum / snap.count) if snap.count else 0.0,
        }


def jain_fairness(values: list[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly equal, 1/n = one hog."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)
