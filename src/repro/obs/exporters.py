"""Exporters: Prometheus text, stable JSON, and Chrome ``trace_event``.

All three are byte-stable: metric names sort lexicographically,
``json.dumps`` runs with ``sort_keys`` and fixed separators, and span
ordering follows completion order from the tracer's ring buffer.  The
golden-file tests in ``tests/test_obs.py`` diff exporter output
verbatim.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from repro.obs.metrics import MetricsSnapshot
from repro.obs.trace import Span

__all__ = ["chrome_trace_json", "metrics_json", "prometheus_text"]

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return _PROM_INVALID.sub("_", f"repro_{name}")


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(snapshot: MetricsSnapshot) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Dots in metric names become underscores; histograms expand to the
    conventional ``_bucket{le=...}`` / ``_sum`` / ``_count`` series.
    """
    lines: list[str] = []
    for name in sorted(snapshot.counters):
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} Counter {name}")
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {snapshot.counters[name]}")
    for name in sorted(snapshot.gauges):
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} Gauge {name}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(snapshot.gauges[name])}")
    for name in sorted(snapshot.histograms):
        hist = snapshot.histograms[name]
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} Histogram {name}")
        lines.append(f"# TYPE {prom} histogram")
        cumulative = hist.cumulative()
        for bound, count in zip(hist.bounds, cumulative):
            lines.append(f'{prom}_bucket{{le="{_prom_value(bound)}"}} {count}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{prom}_sum {_prom_value(hist.sum)}")
        lines.append(f"{prom}_count {hist.count}")
    return "\n".join(lines) + "\n"


def metrics_json(snapshot: MetricsSnapshot) -> str:
    """Byte-stable JSON rendering of a snapshot (sorted keys, version tag)."""
    payload = {
        "version": 1,
        "counters": dict(sorted(snapshot.counters.items())),
        "gauges": dict(sorted(snapshot.gauges.items())),
        "histograms": {
            name: {
                "bounds": list(hist.bounds),
                "counts": list(hist.counts),
                "sum": hist.sum,
                "count": hist.count,
            }
            for name, hist in sorted(snapshot.histograms.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def chrome_trace_json(spans: Iterable[Span]) -> str:
    """Render spans as Chrome ``trace_event`` JSON (load via chrome://tracing).

    Each span becomes one complete ("X") event.  Simulated seconds are
    expressed in microseconds, the format's native unit.  Parent/child
    structure is carried both implicitly (containment of ``ts``/``dur``
    intervals) and explicitly through ``args.span_id`` /
    ``args.parent_id``.
    """
    scale = 1e6
    events = []
    for span in spans:
        event_args = {"span_id": span.span_id, "parent_id": span.parent_id}
        for key, value in span.attrs.items():
            event_args[key] = value if isinstance(value, (int, float, bool)) else str(value)
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round(span.start * scale, 3),
                "dur": round(span.duration * scale, 3),
                "pid": 1,
                "tid": 1,
                "args": event_args,
            }
        )
    payload = {"displayTimeUnit": "ms", "traceEvents": events}
    return json.dumps(payload, indent=2, sort_keys=True)
