"""Simulated time accounting for storage and network components.

Running the real paper requires spinning disks, ESSDs, and a five-node
cluster; a pure-Python in-process reproduction would otherwise measure
interpreter overhead instead of I/O behaviour.  The :class:`SimClock`
charges every block access and network transfer against a device
profile, so benchmarks can report *simulated* throughput and latency
whose shape matches a disk-backed deployment.

Profiles are deliberately simple first-order models::

    time = seek_latency + nbytes / bandwidth

which is the level of fidelity the paper's conclusions depend on: the
baseline loses because it moves strictly more blocks, not because of a
subtle queueing effect.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class DeviceProfile:
    """First-order cost model of one storage device.

    ``write_penalty`` models writes being slower than reads (flush and
    write-amplification effects) — the reason the paper's ``extract``
    outruns every write-carrying operation.
    """

    name: str
    seek_latency_s: float
    bandwidth_bytes_per_s: float
    metadata_latency_s: float
    write_penalty: float = 1.0

    def read_cost(self, nbytes: int) -> float:
        return self.seek_latency_s + nbytes / self.bandwidth_bytes_per_s

    def write_cost(self, nbytes: int) -> float:
        return (self.seek_latency_s + nbytes / self.bandwidth_bytes_per_s) * self.write_penalty

    def metadata_cost(self) -> float:
        return self.metadata_latency_s


@dataclass(frozen=True)
class NetworkProfile:
    """First-order cost model of one network link."""

    name: str
    rtt_s: float
    bandwidth_bytes_per_s: float

    def transfer_cost(self, nbytes: int) -> float:
        return self.rtt_s + nbytes / self.bandwidth_bytes_per_s


# Profiles mirroring the paper's two platforms (Section 6.1).
#: WDC WD60EZAZ 5400 RPM hard drive used for datasets D, E, F.
HDD_5400RPM = DeviceProfile(
    name="hdd-5400rpm",
    seek_latency_s=8e-3,
    bandwidth_bytes_per_s=150e6,
    metadata_latency_s=1e-4,
    write_penalty=1.6,
)

#: 50k IOPS cloud ESSD used by the five-node cluster for datasets A, B, C.
CLOUD_ESSD = DeviceProfile(
    name="cloud-essd",
    seek_latency_s=2e-5,
    bandwidth_bytes_per_s=350e6,
    metadata_latency_s=5e-6,
    write_penalty=2.0,
)

#: DRAM-like profile for unit tests that should not be dominated by cost.
RAM_DISK = DeviceProfile(
    name="ram",
    seek_latency_s=1e-7,
    bandwidth_bytes_per_s=10e9,
    metadata_latency_s=1e-8,
)

#: Datacenter LAN between the cluster nodes.
DATACENTER_LAN = NetworkProfile(
    name="dc-lan",
    rtt_s=2e-4,
    bandwidth_bytes_per_s=1.25e9,  # 10 GbE
)


class SimClock:
    """Accumulates simulated seconds charged by devices and links.

    A single clock is usually shared by every component participating
    in one experiment so that the total is the end-to-end simulated
    time.  The clock is monotone: charges are non-negative.  The one
    exception is :meth:`fork`: each of its branches rewinds the clock to
    the fork's instant, and the join makes time monotone again.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds since the clock was created."""
        return self._now

    def charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self._now += seconds

    def charge_read(self, profile: DeviceProfile, nbytes: int) -> None:
        self.charge(profile.read_cost(nbytes))

    def charge_write(self, profile: DeviceProfile, nbytes: int) -> None:
        self.charge(profile.write_cost(nbytes))

    def charge_metadata(self, profile: DeviceProfile) -> None:
        self.charge(profile.metadata_cost())

    def charge_transfer(self, profile: NetworkProfile, nbytes: int) -> None:
        self.charge(profile.transfer_cost(nbytes))

    def reset(self) -> None:
        self._now = 0.0

    def fork(self) -> "Fork":
        """Branches side by side in time: ``with clock.fork() as fork:``."""
        return Fork(self)


class Fork:
    """Concurrent branches: each ``with fork.branch():`` starts at the
    fork's instant, and leaving the fork (also by ``return`` or an
    exception) joins at the latest branch end, or where it began."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self.start = self.end = clock.now

    def __enter__(self) -> "Fork":
        return self

    def __exit__(self, *exc_info) -> None:
        self._clock._now = self.end

    @contextmanager
    def branch(self) -> Iterator[None]:
        self._clock._now = self.start
        try:
            yield
        finally:
            self.end = max(self.end, self._clock._now)


class Stopwatch:
    """Measures a span of simulated time on a :class:`SimClock`."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start = clock.now

    def restart(self) -> None:
        self._start = self._clock.now

    @property
    def elapsed(self) -> float:
        return self._clock.now - self._start
