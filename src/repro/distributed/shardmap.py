"""Consistent-hash sharding of file metadata across master groups.

One Raft group replicates the metadata for availability; *sharding*
splits the namespace across several groups so metadata capacity and
command throughput scale with masters.  The shard map is a classic
consistent-hash ring: every group contributes ``vnodes`` points (SHA-256
of ``"group:replica"``), a path is owned by the first point clockwise
of its hash, and adding or removing a group only remaps the ring arcs
adjacent to its points.

Clients cache the ring (:class:`ClientShardCache`) and route locally —
zero metadata RPCs on the happy path.  The cache is invalidated by
**epoch**: every membership change bumps ``ShardMap.epoch``, and an
operation arriving with a stale epoch is rejected with
:class:`StaleShardMap` (a :class:`~repro.fs.errors.TryAgain`, so it
crosses the serving wire as EAGAIN).  The client refreshes its view
and retries — the same backoff discipline as a NotLeader redirect, one
layer up.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from itertools import chain
from typing import Any, Callable, Optional

from repro.locks import TrackedLock, tracked_lock
from repro.distributed.master import METADATA_PLANE, Master
from repro.fs.errors import TryAgain
from repro.obs import Observability


class StaleShardMap(TryAgain):
    """The caller routed with an out-of-date shard map epoch."""

    def __init__(
        self, message: str = "", current_epoch: int = 0, retry_after_ms: float = 0.0
    ) -> None:
        super().__init__(message, retry_after_ms=retry_after_ms)
        self.current_epoch = current_epoch


def _point(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def _build_ring(groups: list[str], vnodes: int) -> list[tuple[int, str]]:
    ring = sorted(
        (_point(f"{group}:{replica}"), group)
        for group in groups
        for replica in range(vnodes)
    )
    if not ring:
        raise ValueError("a shard map needs at least one group")
    return ring


def _ring_lookup(ring: list[tuple[int, str]], path: str) -> str:
    index = bisect_left(ring, (_point(path), ""))
    if index == len(ring):
        index = 0  # wrap: first point clockwise of the top of the ring
    return ring[index][1]


class ShardMapView:
    """An immutable client-side copy of the ring at one epoch."""

    __slots__ = ("epoch", "_ring")

    def __init__(self, epoch: int, ring: list[tuple[int, str]]) -> None:
        self.epoch = epoch
        self._ring = ring

    def group_for(self, path: str) -> str:
        return _ring_lookup(self._ring, path)

    def groups(self) -> list[str]:
        return sorted({group for __, group in self._ring})


class ShardMap:
    """The authoritative ring plus its invalidation epoch."""

    def __init__(self, groups: list[str], vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._groups = sorted(groups)
        self._ring = _build_ring(self._groups, vnodes)
        self.epoch = 1
        #: Unranked: guards only the ring/epoch pair, nests anywhere.
        self._map_lock = tracked_lock("shardmap.ring.lock")

    def group_for(self, path: str) -> str:
        return _ring_lookup(self._ring, path)

    def groups(self) -> list[str]:
        return list(self._groups)

    def snapshot(self) -> ShardMapView:
        return ShardMapView(self.epoch, list(self._ring))

    def check_epoch(self, epoch: int) -> None:
        """Reject a request routed with a stale cached map."""
        if epoch != self.epoch:
            raise StaleShardMap(
                f"shard map epoch {epoch} is stale (current {self.epoch})",
                current_epoch=self.epoch,
            )

    def add_group(self, name: str) -> int:
        with self._map_lock:
            if name not in self._groups:
                self._groups = sorted(self._groups + [name])
                self._ring = _build_ring(self._groups, self.vnodes)
                self.epoch += 1
            return self.epoch

    def remove_group(self, name: str) -> int:
        with self._map_lock:
            if name in self._groups:
                remaining = [g for g in self._groups if g != name]
                self._ring = _build_ring(remaining, self.vnodes)
                self._groups = remaining
                self.epoch += 1
            return self.epoch


class ClientShardCache:
    """A client's cached routing view, refreshed on epoch rejection."""

    def __init__(
        self, shardmap: ShardMap, obs: Optional[Observability] = None
    ) -> None:
        self._shardmap = shardmap
        self.view = shardmap.snapshot()
        obs = obs if obs is not None else Observability()
        self._c_refresh = obs.registry.counter("shardmap.client.refreshes")
        self._c_stale = obs.registry.counter("shardmap.client.stale_routes")
        #: Unranked cache guard (the view swap must be scoped).
        self._view_lock = tracked_lock("shardmap.cache.lock")

    @property
    def epoch(self) -> int:
        return self.view.epoch

    def group_for(self, path: str) -> str:
        return self.view.group_for(path)

    def refresh(self) -> ShardMapView:
        with self._view_lock:
            self.view = self._shardmap.snapshot()
            self._c_refresh.inc()
            return self.view

    def call(self, path: str, fn: Callable[[str, int], Any]) -> Any:
        """Run ``fn(group_name, epoch)`` with stale-epoch retry.

        ``fn`` models the RPC: the server side validates the epoch via
        :meth:`ShardMap.check_epoch` and raises :class:`StaleShardMap`
        when the client's view is outdated; one refresh is always
        enough because the refreshed view carries the rejecting epoch.
        """
        try:
            return fn(self.view.group_for(path), self.view.epoch)
        except StaleShardMap:
            self._c_stale.inc()
            self.refresh()
            return fn(self.view.group_for(path), self.view.epoch)


class ShardedMaster:
    """``Master``-compatible facade over per-shard master facades.

    Its members are derived from the route column of
    :data:`METADATA_PLANE` below: path-scoped operations route through
    the ring to one shard; membership operations fan out to every shard
    (all groups must share one view of the chunk servers);
    namespace-wide reads merge deterministically.  All shards share ONE
    rank-0 master lock, so the cluster client's composite-operation
    locking protocol is unchanged.
    """

    def __init__(
        self,
        shards: dict[str, Any],
        lock: TrackedLock,
        vnodes: int = 64,
    ) -> None:
        if not shards:
            raise ValueError("a sharded master needs at least one shard")
        self.shards = dict(shards)
        self.map = ShardMap(sorted(shards), vnodes=vnodes)
        self.lock = lock

    def shard_for(self, path: str, epoch: Optional[int] = None) -> Any:
        """The owning shard; validates a client's cached ``epoch``."""
        if epoch is not None:
            self.map.check_epoch(epoch)
        return self.shards[self.map.group_for(path)]

    def _first(self) -> Any:
        return self.shards[sorted(self.shards)[0]]

    def _all(self) -> list[Any]:
        return [self.shards[name] for name in sorted(self.shards)]


#: How the answers of every shard (in sorted-shard order) become one.
_MERGES: dict[str, Callable[[list], Any]] = {
    "sum": sum,
    "max": max,
    "sorted": lambda answers: sorted(chain.from_iterable(answers)),
    "concat": lambda answers: list(chain.from_iterable(answers)),
}


def _router_member(name: str, route: str) -> Any:
    """What one ``METADATA_PLANE`` row is on the router."""
    is_method = name in vars(Master)  # else an attribute: read, not called

    def ask(shard: Any, *args: Any, **kwargs: Any) -> Any:
        member = getattr(shard, name)
        return member(*args, **kwargs) if is_method else member

    if route == "path":

        def routed(self: ShardedMaster, path: str, *args: Any, **kwargs: Any) -> Any:
            return ask(self.shard_for(path), path, *args, **kwargs)

    elif route == "any":

        def routed(self: ShardedMaster, *args: Any, **kwargs: Any) -> Any:
            return ask(self._first(), *args, **kwargs)

    else:
        merge = _MERGES[route]

        def routed(self: ShardedMaster, *args: Any, **kwargs: Any) -> Any:
            return merge([ask(shard, *args, **kwargs) for shard in self._all()])

    routed.__name__ = name
    routed.__qualname__ = f"ShardedMaster.{name}"
    return routed if is_method else property(routed)


for _name, (__, _route) in METADATA_PLANE.items():
    setattr(ShardedMaster, _name, _router_member(_name, _route))
