"""YCSB-style workload profiles for the key-value benchmarks.

The Yahoo! Cloud Serving Benchmark's core workloads are the lingua
franca for key-value stores like LevelDB, so the repo ships them as a
second workload family next to the paper's 50/50 statement mix:

========  ===========================================  ==================
workload  operation mix                                 distribution
========  ===========================================  ==================
A         50% read / 50% update                         zipfian
B         95% read / 5% update                          zipfian
C         100% read                                     zipfian
D         95% read / 5% insert (read mostly-latest)     latest
E         95% scan / 5% insert                          zipfian
F         50% read / 50% read-modify-write              zipfian
========  ===========================================  ==================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.workloads.querygen import zipf_rank


@dataclass(frozen=True)
class YCSBOp:
    """One generated operation."""

    kind: str  # read | update | insert | scan | rmw
    key: int
    scan_length: int = 0


@dataclass(frozen=True)
class YCSBProfile:
    name: str
    read: float
    update: float
    insert: float
    scan: float
    rmw: float
    distribution: str  # "zipfian" | "latest"

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.scan + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"workload {self.name}: mix sums to {total}, not 1")


PROFILES: dict[str, YCSBProfile] = {
    "A": YCSBProfile("A", read=0.5, update=0.5, insert=0.0, scan=0.0, rmw=0.0,
                     distribution="zipfian"),
    "B": YCSBProfile("B", read=0.95, update=0.05, insert=0.0, scan=0.0, rmw=0.0,
                     distribution="zipfian"),
    "C": YCSBProfile("C", read=1.0, update=0.0, insert=0.0, scan=0.0, rmw=0.0,
                     distribution="zipfian"),
    "D": YCSBProfile("D", read=0.95, update=0.0, insert=0.05, scan=0.0, rmw=0.0,
                     distribution="latest"),
    "E": YCSBProfile("E", read=0.0, update=0.0, insert=0.05, scan=0.95, rmw=0.0,
                     distribution="zipfian"),
    "F": YCSBProfile("F", read=0.5, update=0.0, insert=0.0, scan=0.0, rmw=0.5,
                     distribution="zipfian"),
}


class YCSBGenerator:
    """Generates a YCSB core-workload operation stream."""

    def __init__(
        self,
        workload: str,
        record_count: int = 1000,
        max_scan_length: int = 50,
        seed: int = 7,
    ) -> None:
        if record_count <= 0:
            raise ValueError("record_count must be positive")
        self.profile = PROFILES[workload.upper()]
        self.record_count = record_count
        self.max_scan_length = max_scan_length
        self._rng = random.Random(f"{seed}-ycsb-{self.profile.name}")
        self._inserted = record_count  # next insert key

    def _choose_key(self) -> int:
        if self.profile.distribution == "latest":
            # Most reads target recently inserted records.
            rank = zipf_rank(self._rng, self._inserted)
            return self._inserted - 1 - rank
        return zipf_rank(self._rng, self._inserted)

    def operations(self, count: int) -> Iterator[YCSBOp]:
        profile = self.profile
        for __ in range(count):
            roll = self._rng.random()
            if roll < profile.read:
                yield YCSBOp("read", self._choose_key())
            elif roll < profile.read + profile.update:
                yield YCSBOp("update", self._choose_key())
            elif roll < profile.read + profile.update + profile.insert:
                key = self._inserted
                self._inserted += 1
                yield YCSBOp("insert", key)
            elif roll < profile.read + profile.update + profile.insert + profile.scan:
                yield YCSBOp(
                    "scan",
                    self._choose_key(),
                    scan_length=self._rng.randint(1, self.max_scan_length),
                )
            else:
                yield YCSBOp("rmw", self._choose_key())

    def preload_keys(self) -> range:
        """Keys to load before running the mix."""
        return range(self.record_count)


@dataclass(frozen=True)
class TimedOp:
    """One open-loop operation: what arrives, and when."""

    arrival_s: float
    op: YCSBOp


def open_loop_arrivals(
    workload: str,
    rate_per_s: float,
    duration_s: float,
    record_count: int = 1000,
    max_scan_length: int = 50,
    seed: int = 7,
) -> list[TimedOp]:
    """A Poisson open-loop arrival schedule for one YCSB workload.

    *Open loop* means arrivals do not wait for completions: an
    overloaded server sees the offered rate regardless of how far
    behind it falls, which is what exposes queueing collapse (and what
    admission control must survive).  Inter-arrival gaps are
    exponential with mean ``1/rate_per_s``, so the counting process is
    Poisson; the generator is deterministic in ``seed``.
    """
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    generator = YCSBGenerator(
        workload,
        record_count=record_count,
        max_scan_length=max_scan_length,
        seed=seed,
    )
    rng = random.Random(f"{seed}-arrivals-{generator.profile.name}")
    schedule: list[TimedOp] = []
    now = 0.0
    ops = generator.operations(count=1 << 62)
    while True:
        now += rng.expovariate(rate_per_s)
        if now >= duration_s:
            return schedule
        schedule.append(TimedOp(arrival_s=now, op=next(ops)))


#: Bytes per stored value in :func:`run_ycsb`.
VALUE_BYTES = 256


def run_ycsb(
    db,
    workload: str,
    operations: int = 500,
    record_count: int = 300,
    seed: int = 7,
    corpus: Optional[bytes] = None,
) -> dict[str, int]:
    """Drive a MiniLevelDB-like store through one YCSB workload.

    ``db`` needs ``put``/``get``/``scan``.  Values are slices of
    ``corpus`` (or a deterministic pattern), so redundancy-aware
    storage engines see realistic duplication.  Returns operation
    counts by kind.
    """
    generator = YCSBGenerator(workload, record_count=record_count, seed=seed)
    rng = random.Random(f"{seed}-values")

    def key_bytes(key: int) -> bytes:
        return b"user%010d" % key

    def value_for(key: int) -> bytes:
        if corpus:
            start = (key * VALUE_BYTES) % max(1, len(corpus) - VALUE_BYTES)
            return corpus[start : start + VALUE_BYTES]
        return (b"v%08d" % rng.randrange(10**8)) * (VALUE_BYTES // 9 + 1)

    for key in generator.preload_keys():
        db.put(key_bytes(key), value_for(key))
    counts: dict[str, int] = {}
    for op in generator.operations(operations):
        counts[op.kind] = counts.get(op.kind, 0) + 1
        if op.kind == "read":
            db.get(key_bytes(op.key))
        elif op.kind in ("update", "insert"):
            db.put(key_bytes(op.key), value_for(op.key))
        elif op.kind == "scan":
            start = key_bytes(op.key)
            taken = 0
            for __ in db.scan(start):
                taken += 1
                if taken >= op.scan_length:
                    break
        elif op.kind == "rmw":
            current = db.get(key_bytes(op.key)) or b""
            db.put(key_bytes(op.key), current[: VALUE_BYTES // 2] + value_for(op.key)[: VALUE_BYTES // 2])
    return counts
