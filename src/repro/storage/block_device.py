"""Fixed-size block devices backing every file system in the repo.

The paper's CompressDB lives below the file system: all of its data
structures ultimately read and write fixed-size blocks.  This module
provides that substrate.  Two backends are offered:

* :class:`MemoryBlockDevice` — blocks live in a Python list; the default
  for tests and benchmarks (combined with a :class:`~repro.storage.simclock.SimClock`
  cost model to recover disk-like timing behaviour).
* :class:`FileBlockDevice` — blocks live in one backing file on the host
  file system, demonstrating that the engine state is fully
  serialisable (used by persistence tests).

Both share allocation via a free list and charge every access to the
attached stats/clock.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Optional, Sequence

from repro.obs import Observability
from repro.storage.simclock import DeviceProfile, RAM_DISK, SimClock
from repro.storage.stats import IOStats


class BlockDeviceError(Exception):
    """Raised on invalid block-device operations (bad block no, double free)."""


class BlockDevice:
    """Abstract fixed-block-size device with allocation.

    Blocks are addressed by integer block numbers starting at 0.  Reads
    of never-written blocks return zero bytes of length ``block_size``.
    """

    def __init__(
        self,
        block_size: int = 1024,
        profile: DeviceProfile = RAM_DISK,
        clock: Optional[SimClock] = None,
        stats: Optional[IOStats] = None,
        cache_blocks: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self.profile = profile
        self.clock = clock if clock is not None else SimClock()
        # The device anchors the observability bundle its whole stack
        # (engine, VFS, journal wrapper) adopts.  An explicitly passed
        # stats object brings its registry along so both views agree.
        if obs is None:
            registry = stats.registry if stats is not None else None
            obs = Observability(clock=self.clock, registry=registry)
        self.obs = obs
        self.stats = (
            stats if stats is not None else IOStats(registry=obs.registry)
        )
        self._free: list[int] = []
        self._free_set: set[int] = set()
        self._next_block = 0
        # Page-cache model: an LRU of recently accessed blocks.  Reads
        # served from cache cost no device time — this is how dedup
        # translates into read savings (a smaller unique working set
        # fits more of itself in the same cache).
        self.cache_blocks = cache_blocks
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        cache_prefix = self.stats.prefix + ".cache"
        self._cache_hit_counter = obs.registry.counter(cache_prefix + ".hits")
        self._cache_miss_counter = obs.registry.counter(cache_prefix + ".misses")
        self._cache_evict_counter = obs.registry.counter(
            cache_prefix + ".evictions"
        )

    @property
    def cache_hits(self) -> int:
        """Reads served from the page cache (registry-backed)."""
        return self._cache_hit_counter.value

    @property
    def cache_misses(self) -> int:
        """Reads that had to touch the device (registry-backed)."""
        return self._cache_miss_counter.value

    # -- allocation ---------------------------------------------------
    def allocate(self) -> int:
        """Allocate a block number; its contents start zeroed."""
        self.stats.record_allocation()
        self.clock.charge_metadata(self.profile)
        self.stats.record_metadata_write()
        if self._free:
            block_no = self._free.pop()
            self._free_set.discard(block_no)
            return block_no
        block_no = self._next_block
        self._next_block += 1
        self._grow_to(block_no)
        return block_no

    def free(self, block_no: int) -> None:
        """Return a block to the free list and zero it."""
        self._check_block_no(block_no)
        if block_no in self._free_set:
            raise BlockDeviceError(f"double free of block {block_no}")
        self.stats.record_free()
        self.clock.charge_metadata(self.profile)
        self.stats.record_metadata_write()
        self._erase(block_no)
        self._cache.pop(block_no, None)
        self._free.append(block_no)
        self._free_set.add(block_no)

    @property
    def allocated_blocks(self) -> int:
        """Number of blocks currently allocated (not on the free list)."""
        return self._next_block - len(self._free)

    def rebuild_free_list(self, used_blocks: set[int]) -> int:
        """Reconstruct the free list from the set of live block numbers.

        Used when remounting a persistent device: everything below the
        high-water mark that is not referenced by metadata or data is
        free.  Returns the number of free blocks found.
        """
        self._free = [
            block_no
            for block_no in range(self._next_block)
            if block_no not in used_blocks
        ]
        self._free_set = set(self._free)
        return len(self._free)

    @property
    def total_blocks(self) -> int:
        """Highest block count ever reached, including freed blocks."""
        return self._next_block

    # -- data access --------------------------------------------------
    def read_block(self, block_no: int) -> bytes:
        return self.read_blocks([block_no])[0]

    def read_blocks(self, block_nos: Sequence[int]) -> list[bytes]:
        """Scatter-gather read: serve ``block_nos`` in one device transaction.

        Cached blocks are returned without device time; the misses are
        fetched as one batched transfer that pays a single seek for the
        whole run (the vectored-I/O model: the request list is sorted
        and submitted together).  Every miss is inserted into the page
        cache, so a batch warms the cache exactly as the equivalent loop
        of single reads would.  Duplicate block numbers are served once.
        """
        served: dict[int, bytes] = {}
        misses: list[int] = []
        for block_no in block_nos:
            self._check_block_no(block_no)
        for block_no in dict.fromkeys(block_nos):
            if self.cache_blocks > 0:
                cached = self._cache.get(block_no)
                if cached is not None:
                    self._cache.move_to_end(block_no)
                    self._cache_hit_counter.inc()
                    served[block_no] = cached
                    continue
                self._cache_miss_counter.inc()
            misses.append(block_no)
        if misses:
            nbytes = len(misses) * self.block_size
            with self.obs.tracer.span(
                "device.read", blocks=len(misses), bytes=nbytes
            ):
                # One seek for the whole run, then streaming bandwidth.
                self.clock.charge_read(self.profile, nbytes)
                if len(misses) > 1:
                    self.stats.record_batched_read(len(misses), nbytes)
                else:
                    self.stats.record_read(nbytes)
                for block_no in misses:
                    data = self._read(block_no)
                    self._cache_put(block_no, data)
                    served[block_no] = data
        return [served[block_no] for block_no in block_nos]

    def write_block(self, block_no: int, data: bytes) -> None:
        self.write_blocks([(block_no, data)])

    def write_blocks(self, pairs: Sequence[tuple[int, bytes]]) -> None:
        """Scatter-gather write: commit ``pairs`` in one device transaction.

        All blocks are validated and zero-padded before any byte hits
        the device, then the run is charged as a single transfer (one
        seek amortised over the batch).  The page cache is updated
        write-through for every block, as a loop of single writes would.
        """
        prepared: list[tuple[int, bytes]] = []
        for block_no, data in pairs:
            self._check_block_no(block_no)
            if len(data) > self.block_size:
                raise BlockDeviceError(
                    f"write of {len(data)} bytes exceeds block size {self.block_size}"
                )
            if len(data) < self.block_size:
                data = data + b"\x00" * (self.block_size - len(data))
            prepared.append((block_no, data))
        if not prepared:
            return
        nbytes = len(prepared) * self.block_size
        with self.obs.tracer.span(
            "device.write", blocks=len(prepared), bytes=nbytes
        ):
            self.clock.charge_write(self.profile, nbytes)
            if len(prepared) > 1:
                self.stats.record_batched_write(len(prepared), nbytes)
            else:
                self.stats.record_write(nbytes)
            for block_no, data in prepared:
                self._cache_put(block_no, data)  # write-through
                self._write(block_no, data)

    def _cache_put(self, block_no: int, data: bytes) -> None:
        if self.cache_blocks <= 0:
            return
        self._cache[block_no] = data
        self._cache.move_to_end(block_no)
        while len(self._cache) > self.cache_blocks:
            self._cache.popitem(last=False)
            self._cache_evict_counter.inc()

    def drop_cached(self, block_nos: Sequence[int]) -> None:
        """Forget the page-cache copies of ``block_nos``.

        For blocks their writer knows will not be read back — the
        journal's log is write-only until the next mount — so that they
        do not evict blocks that will.
        """
        for block_no in block_nos:
            self._cache.pop(block_no, None)

    def charge_metadata_access(self, write: bool = False) -> None:
        """Charge a metadata (inode / pointer page) access to this device."""
        self.clock.charge_metadata(self.profile)
        if write:
            self.stats.record_metadata_write()
        else:
            self.stats.record_metadata_read()

    # -- durability hooks ---------------------------------------------
    def barrier(self) -> None:
        """Write barrier: everything written so far is durable before
        anything written afterwards.

        The journal (:mod:`repro.storage.journal`) issues this between
        the journal append and the in-place apply so a crash can never
        observe applied blocks without a committed journal record.  The
        in-memory backend is trivially ordered; file-backed devices
        flush their buffered data.
        """

    def can_overwrite_in_place(self, block_no: int) -> bool:
        """Whether ``block_no`` may be rewritten in place without journaling.

        A plain device applies writes synchronously, so in-place
        updates are always allowed.  A journaled device only permits
        them for blocks allocated since the last commit (nothing
        durable references those yet); everything older must go through
        copy-on-write or the journal, or a crash mid-write would
        corrupt the last committed image.
        """
        return True

    # -- backend hooks ------------------------------------------------
    def _grow_to(self, block_no: int) -> None:
        raise NotImplementedError

    def _read(self, block_no: int) -> bytes:
        raise NotImplementedError

    def _write(self, block_no: int, data: bytes) -> None:
        raise NotImplementedError

    def _erase(self, block_no: int) -> None:
        raise NotImplementedError

    def _check_block_no(self, block_no: int) -> None:
        if not 0 <= block_no < self._next_block:
            raise BlockDeviceError(
                f"block {block_no} out of range [0, {self._next_block})"
            )


class MemoryBlockDevice(BlockDevice):
    """Block device whose blocks live in process memory."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._blocks: list[Optional[bytes]] = []

    def _grow_to(self, block_no: int) -> None:
        while len(self._blocks) <= block_no:
            self._blocks.append(None)

    def _read(self, block_no: int) -> bytes:
        data = self._blocks[block_no]
        if data is None:
            return b"\x00" * self.block_size
        return data

    def _write(self, block_no: int, data: bytes) -> None:
        self._blocks[block_no] = data

    def _erase(self, block_no: int) -> None:
        self._blocks[block_no] = None


class FileBlockDevice(BlockDevice):
    """Block device backed by a single file on the host file system.

    Used by persistence tests: the whole device state (and with it the
    engine's reference-count partition, see
    :class:`repro.core.refcount.BlockRefCount`) survives re-opening the
    backing file, mirroring the paper's remount/crash discussion in
    Section 4.2.
    """

    def __init__(self, path: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self._path = path
        mode = "r+b" if os.path.exists(path) else "w+b"
        self._file = open(path, mode)
        size = os.path.getsize(path)
        if size % self.block_size:
            # A backing file always holds whole blocks; a remainder means
            # the file was written under a different block size, and
            # carving it up with this one would shear every boundary.
            self._file.close()
            raise BlockDeviceError(
                f"{path}: size {size} is not a multiple of block size "
                f"{self.block_size} — image written with different geometry?"
            )
        self._next_block = size // self.block_size

    def close(self) -> None:
        self._file.close()

    def barrier(self) -> None:
        """Flush buffered bytes so host-visible ordering matches ours."""
        self._file.flush()

    def __enter__(self) -> "FileBlockDevice":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _grow_to(self, block_no: int) -> None:
        needed = (block_no + 1) * self.block_size
        self._file.seek(0, os.SEEK_END)
        current = self._file.tell()
        if current < needed:
            self._file.write(b"\x00" * (needed - current))

    def _read(self, block_no: int) -> bytes:
        self._file.seek(block_no * self.block_size)
        data = self._file.read(self.block_size)
        if len(data) < self.block_size:
            data = data + b"\x00" * (self.block_size - len(data))
        return data

    def _write(self, block_no: int, data: bytes) -> None:
        self._file.seek(block_no * self.block_size)
        self._file.write(data)

    def _erase(self, block_no: int) -> None:
        self._write(block_no, b"\x00" * self.block_size)


class DeviceWrapper:
    """Base for devices that decorate another device.

    Unknown attributes (``block_size``, ``stats``, ``clock``,
    ``total_blocks``, ``rebuild_free_list``, …) delegate to the wrapped
    device.  The single-block conveniences are pinned here so they route
    through the *wrapper's* batched methods — delegating them to the
    inner device would silently bypass any interception a subclass does
    in ``read_blocks``/``write_blocks``.
    """

    def __init__(self, inner: BlockDevice) -> None:
        self.inner = inner

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def read_block(self, block_no: int) -> bytes:
        return self.read_blocks([block_no])[0]

    def read_blocks(self, block_nos: Sequence[int]) -> list[bytes]:
        return self.inner.read_blocks(block_nos)

    def write_block(self, block_no: int, data: bytes) -> None:
        self.write_blocks([(block_no, data)])

    def write_blocks(self, pairs: Sequence[tuple[int, bytes]]) -> None:
        self.inner.write_blocks(pairs)


class CrashPoint(Exception):
    """The simulated process died at an injected crash point."""


class CrashPointDevice(DeviceWrapper):
    """Fault injector: kill the process at the Nth device block write.

    ``crash_after=k`` means the k-th individual block write (1-based,
    counted across batches: a ``write_blocks`` of n blocks is n writes)
    never completes.  Writes before it are applied, the k-th is dropped
    — or, with ``tear=True``, half-applied, modelling a torn sector —
    then :class:`CrashPoint` is raised and the device goes dead: every
    further operation raises.  Allocation-table updates and frees are
    metadata traffic and are not counted; the crash-point matrix sweeps
    data writes, which is where torn state can corrupt an image.

    Remount the *inner* device afterwards to exercise recovery, exactly
    as a real machine would reboot onto whatever hit the platter.
    """

    def __init__(
        self,
        inner: BlockDevice,
        crash_after: Optional[int] = None,
        tear: bool = False,
    ) -> None:
        super().__init__(inner)
        self.crash_after = crash_after
        self.tear = tear
        self.writes_seen = 0
        self.dead = False

    def _ensure_alive(self) -> None:
        if self.dead:
            raise CrashPoint("device is dead: crash point already fired")

    def _crash(self, pairs: list[tuple[int, bytes]]) -> None:
        assert self.crash_after is not None
        survivors = self.crash_after - 1 - self.writes_seen
        self.writes_seen = self.crash_after
        if survivors > 0:
            self.inner.write_blocks(pairs[:survivors])
        if self.tear and survivors < len(pairs):
            block_no, data = pairs[survivors]
            block_size = self.inner.block_size
            padded = data + b"\x00" * (block_size - len(data))
            old = self.inner.read_block(block_no)
            half = block_size // 2
            self.inner.write_blocks([(block_no, padded[:half] + old[half:])])
        self.dead = True
        raise CrashPoint(f"simulated crash at device write {self.crash_after}")

    def write_blocks(self, pairs: Sequence[tuple[int, bytes]]) -> None:
        self._ensure_alive()
        batch = list(pairs)
        if (
            self.crash_after is not None
            and self.writes_seen + len(batch) >= self.crash_after
        ):
            self._crash(batch)
        self.writes_seen += len(batch)
        self.inner.write_blocks(batch)

    def read_blocks(self, block_nos: Sequence[int]) -> list[bytes]:
        self._ensure_alive()
        return self.inner.read_blocks(block_nos)

    def allocate(self) -> int:
        self._ensure_alive()
        return self.inner.allocate()

    def free(self, block_no: int) -> None:
        self._ensure_alive()
        self.inner.free(block_no)
