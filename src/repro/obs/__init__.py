"""``repro.obs`` — the unified observability subsystem (DESIGN.md §9).

One bundle of two facilities, shared by every layer of a running
stack — a layer reports by holding an instrument or by opening a span:

* **metrics** — :class:`~repro.obs.metrics.MetricsRegistry`: typed
  counters/gauges/histograms under dotted names
  (``storage.device.block_reads``, ``engine.txn.commit_ms``,
  ``cluster.rpc.bytes``) with snapshot/delta/merge semantics, a
  handful of related counts held together as one
  :class:`~repro.obs.metrics.CounterGroup`;
* **tracing** — :class:`~repro.obs.trace.Tracer`: nestable spans with
  deterministic ids, timestamps from the simulated clock, exported as
  Chrome ``trace_event`` JSON.

An :class:`Observability` instance travels with a block device: the
engine, VFS, journal wrapper, and cluster nodes all adopt the device's
bundle, so one workload reports into one registry and one trace.

``repro trace`` uses :func:`enable_global_tracing` to make every
bundle created afterwards share a single tracer, which is how a trace
connects spans across independently constructed components.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (
    Counter,
    CounterGroup,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "CounterGroup",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Observability",
    "Span",
    "Tracer",
    "disable_global_tracing",
    "enable_global_tracing",
    "global_tracer",
]

#: Process-wide tracer installed by :func:`enable_global_tracing`.
_GLOBAL_TRACER: Optional[Tracer] = None


def enable_global_tracing(capacity: int = 65536) -> Tracer:
    """Install a shared, enabled tracer adopted by every new bundle.

    Returns the tracer; it picks up the clock of the first component
    built afterwards (all components of one stack share that clock).
    """
    global _GLOBAL_TRACER
    _GLOBAL_TRACER = Tracer(capacity=capacity, enabled=True)
    return _GLOBAL_TRACER


def disable_global_tracing() -> None:
    global _GLOBAL_TRACER
    _GLOBAL_TRACER = None


def global_tracer() -> Optional[Tracer]:
    return _GLOBAL_TRACER


class Observability:
    """The per-stack observability bundle: clock + registry + tracer.

    Components receiving an existing bundle share everything; a
    component constructing its own gets a private registry and a
    disabled tracer — and, while global tracing is on, the process-wide
    tracer instead.
    """

    __slots__ = ("clock", "registry", "tracer")

    def __init__(
        self,
        clock=None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        if tracer is None:
            tracer = _GLOBAL_TRACER
            if tracer is not None and tracer.clock is None:
                tracer.clock = clock
        if tracer is None:
            tracer = Tracer(clock=clock)
        self.tracer = tracer

    def span(self, name: str, **attrs):
        """Shorthand for ``self.tracer.span(...)``."""
        return self.tracer.span(name, **attrs)
