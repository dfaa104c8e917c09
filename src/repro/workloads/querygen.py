"""Query-mix generation for the end-to-end database benchmarks.

Section 6.1: *"For each database, we randomly generate 500,000 query
statements, of which 50% are write and 50% are read."*  This module
generates that mix (scaled down), drawing keys from a Zipf-like
popularity distribution and write payloads from the dataset's own
content — so writes re-introduce redundant blocks the way real
document updates do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Union

from repro.workloads.datasets import Dataset


@dataclass(frozen=True)
class ReadOp:
    key: str


@dataclass(frozen=True)
class WriteOp:
    key: str
    value: str


Operation = Union[ReadOp, WriteOp]


#: Exponent of the approximate Zipf distribution :func:`zipf_rank` draws.
ZIPF_SKEW = 1.1


def zipf_rank(rng: random.Random, universe: int) -> int:
    """Approximate Zipf sampling by inverse-power transform."""
    # u in (0, 1]; rank ~ u^(-1/(skew-1)) clipped to the universe.
    u = 1.0 - rng.random()
    rank = int(u ** (-1.0 / ZIPF_SKEW)) - 1
    return min(rank, universe - 1)


class QueryMixGenerator:
    """Generates the 50/50 read-write statement stream."""

    def __init__(
        self,
        dataset: Dataset,
        universe: int = 1000,
        write_fraction: float = 0.5,
        payload_bytes: int = 256,
        seed: int = 42,
    ) -> None:
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        self._rng = random.Random(f"{seed}-{dataset.name}")
        self.universe = universe
        self.write_fraction = write_fraction
        self.payload_bytes = payload_bytes
        # Payload source: slices of the dataset's own content.
        self._corpus = dataset.concatenated()
        if not self._corpus:
            raise ValueError("dataset is empty")

    def _payload(self) -> str:
        limit = max(1, len(self._corpus) - self.payload_bytes)
        # Align payload starts so repeated writes reuse identical slices
        # (documents get re-saved, not re-written from scratch).
        start = (self._rng.randrange(limit) // self.payload_bytes) * self.payload_bytes
        raw = self._corpus[start : start + self.payload_bytes]
        return raw.decode("ascii", errors="replace")

    def _key(self) -> str:
        return str(zipf_rank(self._rng, self.universe))

    def operations(self, count: int) -> Iterator[Operation]:
        """Yield ``count`` operations in the configured mix."""
        for __ in range(count):
            if self._rng.random() < self.write_fraction:
                yield WriteOp(key=self._key(), value=self._payload())
            else:
                yield ReadOp(key=self._key())

    def preload_operations(self, count: int) -> Iterator[WriteOp]:
        """Writes covering the key universe, used to seed the database."""
        for index in range(count):
            yield WriteOp(key=str(index % self.universe), value=self._payload())
