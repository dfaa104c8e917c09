"""Latency and throughput collection for the benchmark harness.

The paper reports averages, standard deviations, and tail percentiles
(Section 6.2/6.3: "the latencies of 90% operations are within …, 5% of
operations are more than …"), so the recorder computes exactly those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class LatencySummary:
    """Summary statistics over one batch of operation latencies."""

    count: int
    mean: float
    stdev: float
    p50: float
    p90: float
    p95: float
    p99: float
    maximum: float

    def as_millis(self) -> "LatencySummary":
        """The same summary scaled from seconds to milliseconds."""
        return LatencySummary(
            count=self.count,
            mean=self.mean * 1e3,
            stdev=self.stdev * 1e3,
            p50=self.p50 * 1e3,
            p90=self.p90 * 1e3,
            p95=self.p95 * 1e3,
            p99=self.p99 * 1e3,
            maximum=self.maximum * 1e3,
        )


@dataclass
class LatencyRecorder:
    """Accumulates per-operation latencies."""

    samples: list[float] = field(default_factory=list)

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latencies must be non-negative")
        self.samples.append(seconds)

    def extend(self, other: "LatencyRecorder") -> None:
        self.samples.extend(other.samples)

    def __len__(self) -> int:
        return len(self.samples)

    def summary(self) -> LatencySummary:
        if not self.samples:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(self.samples)
        n = len(ordered)
        mean = sum(ordered) / n
        variance = sum((value - mean) ** 2 for value in ordered) / n
        return LatencySummary(
            count=n,
            mean=mean,
            stdev=math.sqrt(variance),
            p50=percentile(ordered, 0.50),
            p90=percentile(ordered, 0.90),
            p95=percentile(ordered, 0.95),
            p99=percentile(ordered, 0.99),
            maximum=ordered[-1],
        )


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile over a pre-sorted sample list."""
    if not ordered:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]
