"""I/O statistics for storage components, backed by the metrics registry.

Every counter lives in a :class:`~repro.obs.metrics.MetricsRegistry`
under ``<prefix>.<counter>`` (default prefix ``storage.device``);
:class:`IOStats` is the :class:`~repro.obs.metrics.CounterGroup` of
those counters plus the ``record_*`` accessors that hide which of them
one (batched) transfer bumps.  Reads go through
:meth:`IOStats.snapshot`, which returns a frozen
:class:`IOStatsSnapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.obs.metrics import CounterGroup, MetricsRegistry

__all__ = ["IOStats", "IOStatsSnapshot"]


@dataclass(frozen=True)
class IOStatsSnapshot:
    """Immutable view of one component's I/O counters."""

    block_reads: int = 0
    block_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    metadata_reads: int = 0
    metadata_writes: int = 0
    allocations: int = 0
    frees: int = 0
    # Scatter-gather accounting: one batched op covers many blocks in a
    # single device transaction (one seek charged for the whole run).
    batched_reads: int = 0
    batched_writes: int = 0
    batched_blocks_read: int = 0
    batched_blocks_written: int = 0


#: The counters every storage/network component reports, in render order.
IO_FIELDS = tuple(spec.name for spec in fields(IOStatsSnapshot))


class IOStats(CounterGroup):
    """One component's I/O counters, named ``<prefix>.<field>``.

    All mutation goes through the ``record_*`` accessors.  A standalone
    ``IOStats()`` creates a private registry; components sharing an
    :class:`~repro.obs.Observability` bundle pass its registry so
    everything lands in one place.
    """

    __slots__ = ()

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        prefix: str = "storage.device",
    ) -> None:
        super().__init__(prefix, IO_FIELDS, registry)

    def record_read(self, nbytes: int) -> None:
        self._counters["block_reads"].inc()
        self._counters["bytes_read"].inc(nbytes)

    def record_write(self, nbytes: int) -> None:
        self._counters["block_writes"].inc()
        self._counters["bytes_written"].inc(nbytes)

    def record_batched_read(self, nblocks: int, nbytes: int) -> None:
        """One multi-block read transaction covering ``nblocks`` blocks."""
        self._counters["block_reads"].inc(nblocks)
        self._counters["bytes_read"].inc(nbytes)
        self._counters["batched_reads"].inc()
        self._counters["batched_blocks_read"].inc(nblocks)

    def record_batched_write(self, nblocks: int, nbytes: int) -> None:
        """One multi-block write transaction covering ``nblocks`` blocks."""
        self._counters["block_writes"].inc(nblocks)
        self._counters["bytes_written"].inc(nbytes)
        self._counters["batched_writes"].inc()
        self._counters["batched_blocks_written"].inc(nblocks)

    def record_metadata_read(self) -> None:
        self._counters["metadata_reads"].inc()

    def record_metadata_write(self) -> None:
        self._counters["metadata_writes"].inc()

    def record_allocation(self) -> None:
        self._counters["allocations"].inc()

    def record_free(self) -> None:
        self._counters["frees"].inc()

    def snapshot(self) -> IOStatsSnapshot:  # type: ignore[override]
        """Frozen view of the current counters."""
        return IOStatsSnapshot(**super().snapshot())
