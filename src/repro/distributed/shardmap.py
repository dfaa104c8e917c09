"""Consistent-hash sharding of file metadata across master groups.

One Raft group replicates the metadata for availability; *sharding*
splits the namespace across several groups so metadata capacity and
command throughput scale with masters.  The shard map is a classic
consistent-hash ring: every group contributes ``vnodes`` points (SHA-256
of ``"group:replica"``), and a path is owned by the first point
clockwise of its hash, so a ring built over one more or one fewer group
moves only the arcs adjacent to that group's points.

The ring is fixed when the cluster is built: shard split and merge are
out of scope, so there is no membership change for a client's cached
route to go stale against, and the router looks paths up directly.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from itertools import chain
from typing import Any, Callable

from repro.locks import TrackedLock
from repro.distributed.master import METADATA_PLANE, Master


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
    """An immutable copy of a ring.

    Nothing in the program builds one; it stays while the end-to-end
    tracer's ``TARGETS`` (``benchmarks/e2e/trace.py``) names it.
    """

    __slots__ = ("epoch", "_ring")

    def __init__(self, epoch: int, ring: list[tuple[int, str]]) -> None:
        self.epoch = epoch
        self._ring = ring

    def group_for(self, path: str) -> str:
        return _ring_lookup(self._ring, path)

    def groups(self) -> list[str]:
        return sorted({group for __, group in self._ring})


class ShardMap:
    """The ring over a fixed set of groups."""

    def __init__(self, groups: list[str], vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._groups = sorted(groups)
        self._ring = _build_ring(self._groups, vnodes)

    def group_for(self, path: str) -> str:
        return _ring_lookup(self._ring, path)

    def groups(self) -> list[str]:
        return list(self._groups)


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

    def shard_for(self, path: str) -> Any:
        """The shard that owns ``path``."""
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
