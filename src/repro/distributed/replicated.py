"""The replicated master: a Raft group behind the ``Master`` API.

:class:`MasterGroup` assembles N replicas — each a persistent
:class:`~repro.raft.log.RaftLog` on its own RAM-disk block device, a
plain :class:`~repro.distributed.master.Master` as local state, and a
:class:`~repro.raft.node.RaftNode` — on one synchronous transport and
one SimClock.  :class:`ReplicatedMaster` is the facade the rest of the
cluster talks to: it quacks like a ``Master`` (its members are derived
from :data:`~repro.distributed.master.METADATA_PLANE`), but every
mutator is proposed to the Raft leader as a state-machine command, and
every read is served from the leader's local state under its lease (no
quorum round trip on the read path).

Locking: the whole group shares ONE rank-0 master lock.  Composite
operations in :class:`~repro.distributed.client.ClusterClient` hold it
across their multi-RPC mutations, and because the same lock object is
wired into every replica's ``Master``, the ``require_held()`` contracts
hold on whichever replica happens to apply a command.  Group-administrative entry points (tick, elect,
restart) acquire the lock themselves when the caller does not already
own it — they can apply committed entries, which mutates master state.

Failover from the caller's perspective: a deposed or crashed leader
surfaces as :class:`~repro.raft.node.NotLeaderError`; the facade
retries with backoff (charging the SimClock) while ticking the group,
which runs the election and replays the committed log onto the new
leader — zero committed metadata is lost (tests/test_raft.py's crash
matrix drives every window of the propose path).
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.locks import LOCK_TIERS, TrackedLock, tracked_lock
from repro.distributed.master import METADATA_PLANE, Master
from repro.obs import CounterGroup, Observability
from repro.raft.log import LOG_FIELDS, RaftLog
from repro.raft.node import (
    LEADER,
    NotLeaderError,
    RaftConfig,
    RaftNode,
    RaftTransport,
)
from repro.raft.statemachine import MetadataStateMachine, encode_command
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.simclock import RAM_DISK, SimClock


class MasterGroup:
    """3+ master replicas under Raft, plus the crash/restart controls."""

    def __init__(
        self,
        server_names: list[str],
        masters: int = 3,
        chunk_capacity: int = 64 * 1024,
        replication: int = 1,
        clock: Optional[SimClock] = None,
        seed: int = 0,
        obs: Optional[Observability] = None,
        config: RaftConfig = RaftConfig(),
        chunk_prefix: str = "c",
        domains: Optional[dict[str, str]] = None,
        lock: Optional[TrackedLock] = None,
    ) -> None:
        if masters < 1:
            raise ValueError("a master group needs at least one replica")
        self.clock = clock if clock is not None else SimClock()
        self.obs = obs if obs is not None else Observability(clock=self.clock)
        self.config = config
        self.seed = seed
        #: The one lock shared by the facade and every replica Master.
        self.lock = lock if lock is not None else tracked_lock(
            "master.lock", rank=LOCK_TIERS["master"]
        )
        self._ctor_args = dict(
            server_names=list(server_names),
            chunk_capacity=chunk_capacity,
            replication=replication,
            chunk_prefix=chunk_prefix,
            domains=dict(domains or {}),
        )
        self.transport = RaftTransport(
            self.clock, envelope_bytes=config.envelope_bytes
        )
        self.nodes: dict[str, RaftNode] = {}
        self.devices: dict[str, MemoryBlockDevice] = {}
        self._restarts: dict[str, int] = {}
        self._c_redirects = self.obs.registry.counter("raft.group.redirects")
        with self.lock:
            # All devices first: a node's peer list is derived from the
            # device map, which must be complete before any node boots.
            for index in range(masters):
                name = f"m{index}"
                self.devices[name] = MemoryBlockDevice(
                    block_size=4096, profile=RAM_DISK, clock=self.clock
                )
                self._restarts[name] = 0
            for name in sorted(self.devices):
                self._boot_node(name)

    def _boot_node(self, name: str) -> RaftNode:
        """(Re)create a replica from its persistent device.

        The Raft log recovers from disk; the local ``Master`` starts
        from the log's snapshot (or the constructor arguments) and
        re-applies only the committed tail after it (the leader's next
        contact replays it), so membership changes made through
        commands are never lost."""
        self.lock.require_held()
        log = RaftLog(
            self.devices[name],
            CounterGroup(f"raft.{name}.log", LOG_FIELDS, self.obs.registry),
        )
        machine = MetadataStateMachine(Master(lock=self.lock, **self._ctor_args))
        if log.snapshot_index:
            machine.restore(log.snapshot_index, log.snapshot)
        node = RaftNode(
            name=name,
            peer_names=[f"m{i}" for i in range(len(self.devices))],
            log=log,
            statemachine=machine,
            clock=self.clock,
            transport=self.transport,
            config=self.config,
            seed=self.seed + 1000 * self._restarts[name],
            obs=self.obs,
        )
        self.nodes[name] = node
        return node

    # -- locking ------------------------------------------------------------
    @contextmanager
    def _holding_lock(self) -> Iterator[None]:
        """Hold the group lock — re-entrant over an owning caller."""
        if self.lock.held_by_current_context():
            yield
        else:
            with self.lock:
                yield

    # -- leadership ---------------------------------------------------------
    def leader(self) -> Optional[RaftNode]:
        """The live leased leader, if any (deterministic scan order)."""
        for name in sorted(self.nodes):
            node = self.nodes[name]
            if not node.crashed and node.role == LEADER and node.has_lease():
                return node
        return None

    def tick(self) -> None:
        """Drive every live node one step at the current instant."""
        with self._holding_lock():
            self._tick_locked()

    def _tick_locked(self) -> None:
        for name in sorted(self.nodes):
            self.nodes[name].tick()

    def elect(self, deadline_s: float = 10.0) -> str:
        """Advance simulated time until a leased leader exists.

        Returns the leader's name; each step charges the SimClock, so
        ``clock.now`` deltas around this call measure failover time.
        """
        with self._holding_lock():
            return self._elect_locked(deadline_s)

    def _elect_locked(self, deadline_s: float) -> str:
        deadline = self.clock.now + deadline_s
        step = self.config.heartbeat_interval / 2
        while self.clock.now < deadline:
            leader = self.leader()
            if leader is None:
                # The tick may elect a leader or renew its lease: then
                # no step is owed.
                self._tick_locked()
                leader = self.leader()
            if leader is not None:
                return leader.name
            self.clock.charge(step)
        raise TimeoutError(
            f"no leader within {deadline_s}s of simulated time "
            "(is a majority of the group alive?)"
        )

    # -- the replicated write path -------------------------------------------
    def propose(self, op: str, **args: Any) -> Any:
        """Propose one metadata command; retries across failovers.

        Leader discovery: use the current leased leader, electing one
        first when none exists.  A ``NotLeaderError`` from a deposed
        replica redirects (counted in ``raft.group.redirects``) after
        backing off by the hinted delay.  A leader crash *mid-propose*
        (:class:`~repro.raft.node.NodeCrashed`) propagates to the
        caller: the command may or may not have committed, and blind
        re-proposal of a non-idempotent command (extend) would
        double-apply — the caller must re-examine metadata after the
        failover, as the crash-matrix tests do.
        """
        command = encode_command(op, **args)
        with self._holding_lock():
            last_error: Exception = NotLeaderError("no leader")
            for __ in range(4 + len(self.nodes)):
                leader = self.leader()
                if leader is None:
                    try:
                        self._elect_locked(10.0)
                    except TimeoutError as exc:
                        raise NotLeaderError(
                            "no electable majority", retry_after_ms=1e3
                        ) from exc
                    continue
                try:
                    return leader.propose(command)
                except NotLeaderError as exc:
                    last_error = exc
                    self._c_redirects.inc()
                    if exc.retry_after_ms:
                        self.clock.charge(exc.retry_after_ms / 1e3)
                    self._tick_locked()
                    continue
            raise last_error

    # -- reads ---------------------------------------------------------------
    def leader_master(self) -> Master:
        """The leased leader's local state, electing one if needed."""
        leader = self.leader()
        if leader is not None:
            return leader.sm.master
        with self._holding_lock():
            name = self._elect_locked(10.0)
        return self.nodes[name].sm.master

    # -- failure injection ----------------------------------------------------
    def crash(self, name: str) -> None:
        self.nodes[name].crash()

    def crash_leader(self) -> str:
        leader = self.leader()
        if leader is None:
            raise ValueError("no leader to crash")
        leader.crash()
        return leader.name

    def restart(self, name: str) -> RaftNode:
        """Cold restart: recover the log from the device, rebuild the
        state machine by rejoining the group as a follower."""
        with self._holding_lock():
            self._restarts[name] += 1
            return self._boot_node(name)

    # -- introspection --------------------------------------------------------
    def live_names(self) -> list[str]:
        return [
            name for name in sorted(self.nodes) if not self.nodes[name].crashed
        ]

    def state_digests(self) -> dict[str, str]:
        from repro.raft.statemachine import state_digest

        return {
            name: state_digest(self.nodes[name].sm.master)
            for name in sorted(self.nodes)
            if not self.nodes[name].crashed
        }


class ReplicatedMaster:
    """``Master``-compatible facade over a :class:`MasterGroup`.

    Its members are derived from :data:`METADATA_PLANE` below: a row
    with an opcode proposes that command, a read row asks the leased
    leader's local state.  Mutators return the leader's live metadata
    objects (``ChunkInfo`` / ``FileEntry``), so callers that poke at
    the returned objects keep working — but true replication-safe
    length updates must go through ``extend_chunk`` /
    ``set_chunk_length``, which the cluster client does.
    """

    def __init__(self, group: MasterGroup) -> None:
        self.group = group
        self.lock = group.lock


def _facade_member(name: str, opcode: Optional[str]) -> Any:
    """What one ``METADATA_PLANE`` row is on the facade."""
    method = vars(Master).get(name)
    if method is None:  # an attribute of the leader's state

        def attribute(self: ReplicatedMaster) -> Any:
            return getattr(self.group.leader_master(), name)

        return property(attribute)
    if opcode is None:

        def member(self: ReplicatedMaster, *args: Any, **kwargs: Any) -> Any:
            return getattr(self.group.leader_master(), name)(*args, **kwargs)

    else:
        # Argument names are log bytes; resolved here, once, defaults
        # included, so the propose path binds nothing through ``inspect``.
        params = list(inspect.signature(method).parameters.values())[1:]
        names = [param.name for param in params]
        defaults = {p.name: p.default for p in params if p.default is not p.empty}

        def member(self: ReplicatedMaster, *args: Any, **kwargs: Any) -> Any:
            named = {**defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or named.keys() != set(names):
                raise TypeError(f"{name}() takes arguments {names}")
            return self.group.propose(opcode, **named)

    member.__name__ = name
    member.__qualname__ = f"ReplicatedMaster.{name}"
    return member


for _name, (_opcode, __) in METADATA_PLANE.items():
    setattr(ReplicatedMaster, _name, _facade_member(_name, _opcode))
