"""Block-storage substrate: devices, inodes, cost model, and stats."""

from repro.storage.block_device import (
    BlockDevice,
    BlockDeviceError,
    CrashPoint,
    CrashPointDevice,
    DeviceWrapper,
    FileBlockDevice,
    MemoryBlockDevice,
)
from repro.storage.inode import Inode, InodeError, PointerPage, Slot
from repro.storage.journal import (
    Journal,
    JournalDevice,
    JournalError,
    Transaction,
)
from repro.storage.simclock import (
    CLOUD_ESSD,
    DATACENTER_LAN,
    HDD_5400RPM,
    RAM_DISK,
    DeviceProfile,
    NetworkProfile,
    SimClock,
    Stopwatch,
)
from repro.storage.stats import IOStats, IOStatsSnapshot

__all__ = [
    "BlockDevice",
    "BlockDeviceError",
    "CLOUD_ESSD",
    "CrashPoint",
    "CrashPointDevice",
    "DATACENTER_LAN",
    "DeviceProfile",
    "DeviceWrapper",
    "FileBlockDevice",
    "HDD_5400RPM",
    "IOStats",
    "IOStatsSnapshot",
    "Inode",
    "InodeError",
    "Journal",
    "JournalDevice",
    "JournalError",
    "MemoryBlockDevice",
    "NetworkProfile",
    "PointerPage",
    "RAM_DISK",
    "SimClock",
    "Slot",
    "Stopwatch",
    "Transaction",
]
