"""A simplified Raft node over the persistent log and a SimClock.

The shape follows the Raft paper (Ongaro & Ousterhout, §5) with the
simplifications a deterministic single-process simulation affords:

* **RPCs are synchronous** — a call into :class:`RaftTransport`
  delivers to the peer's handler and returns its reply, charging the
  simulated network for both directions.  There is no message loss,
  only node crashes (an unreachable peer raises :class:`NodeCrashed`).
  The leader's AppendEntries round and a candidate's vote round are
  issued "in parallel" (§5.3): each peer's call runs in its own
  :meth:`SimClock.fork` branch, so a round costs its slowest peer.
* **Time is the SimClock.**  Election timeouts are randomized per node
  from a seeded :class:`random.Random`, so a "storm" of elections is
  exactly reproducible from its seed.
* **Safety is unchanged**: term/vote persist (through
  :class:`~repro.raft.log.RaftLog`) *before* any RPC reply, the vote
  rule compares log up-to-dateness, AppendEntries enforces the log
  matching property with conflict truncation, and the commit index
  only advances over entries of the current term (§5.4.2) — which is
  why a fresh leader appends a no-op barrier entry.
* **Leader leases** keep reads local: a leader that heard from a
  majority at time *t* owns the lease until ``t + lease_duration``
  (strictly below the minimum election timeout, so no rival can have
  been elected while the lease holds).
* **Snapshots** (§7): a replica compacts its log into a snapshot of its
  applied state once the live log outgrows both one block and the last
  snapshot; a follower whose next entry the leader has compacted away
  gets InstallSnapshot instead of AppendEntries.

Crash injection for the failover test matrix: install a named crash
point (``before_append`` / ``after_append`` / ``before_commit`` /
``after_commit``) and the next :meth:`RaftNode.propose` dies exactly
there, raising :class:`NodeCrashed` to the proposer mid-operation.

Locking contract: every entry point that can *apply* committed
commands (propose, tick, the RPC handlers reached from them) must run
with the master-group lock held — the replicated state machine mutates
:class:`~repro.distributed.master.Master` state whose mutators declare
``require_held()``.  :class:`repro.distributed.replicated.MasterGroup`
is the enforcement point; nothing here takes locks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

from repro.fs.errors import TryAgain
from repro.obs import Observability
from repro.raft.log import LogEntry, RaftLog
from repro.raft.statemachine import (
    MetadataStateMachine,
    encode_command,
    encode_state,
)
from repro.storage.simclock import DATACENTER_LAN, NetworkProfile, SimClock

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

#: Wire-size model of an AppendEntries entry header (term, index,
#: length) on top of its command bytes.
_ENTRY_OVERHEAD = 24


class NotLeaderError(TryAgain):
    """This replica cannot serve the request — redirect to the leader.

    Subclasses :class:`TryAgain` so the serving layer's frozen wire
    code table maps it to EAGAIN (code 11) with ``retry_after_ms``;
    ``leader_hint`` names the replica to redirect to, when known.
    """

    def __init__(
        self,
        message: str = "",
        leader_hint: Optional[str] = None,
        retry_after_ms: float = 0.0,
    ) -> None:
        super().__init__(message, retry_after_ms=retry_after_ms)
        self.leader_hint = leader_hint


class NodeCrashed(Exception):
    """The node is down (simulated crash), possibly mid-operation."""


@dataclass(frozen=True)
class RaftConfig:
    """Timing of the consensus round, in SimClock seconds."""

    election_timeout_min: float = 0.15
    election_timeout_max: float = 0.30
    heartbeat_interval: float = 0.05
    #: Leader lease per majority round trip; must stay strictly below
    #: ``election_timeout_min`` or a deposed leader could serve a
    #: linearizable read after a rival took over.
    lease_duration: float = 0.10
    #: Request/response envelope charged to the network per message.
    envelope_bytes: int = 64

    def __post_init__(self) -> None:
        if not 0 < self.lease_duration < self.election_timeout_min:
            raise ValueError(
                "lease_duration must be positive and below election_timeout_min"
            )
        if self.election_timeout_min > self.election_timeout_max:
            raise ValueError("election timeout range is inverted")


class RaftTransport:
    """Synchronous in-process RPC fabric between the group's nodes.

    Every message charges the shared SimClock for its modeled bytes,
    and the byte/message totals feed ``bench_failover``.  It also keeps
    the election ledger — ``(term, leader)`` pairs — that the storm
    test audits for the at-most-one-leader-per-term invariant.
    """

    def __init__(
        self,
        clock: SimClock,
        network: NetworkProfile = DATACENTER_LAN,
        envelope_bytes: int = RaftConfig.envelope_bytes,
    ) -> None:
        self.clock = clock
        self.network = network
        self.envelope_bytes = envelope_bytes
        self.nodes: dict[str, "RaftNode"] = {}
        self.bytes_sent = 0
        self.messages = 0
        #: Every leadership assumption ever, in order: (term, name).
        self.leader_ledger: list[tuple[int, str]] = []

    def register(self, node: "RaftNode") -> None:
        self.nodes[node.name] = node

    def note_leader(self, term: int, name: str) -> None:
        self.leader_ledger.append((term, name))

    def leaders_by_term(self) -> dict[int, set[str]]:
        by_term: dict[int, set[str]] = {}
        for term, name in self.leader_ledger:
            by_term.setdefault(term, set()).add(name)
        return by_term

    def _charge(self, nbytes: int) -> None:
        self.messages += 1
        self.bytes_sent += nbytes
        self.clock.charge_transfer(self.network, nbytes)

    def _deliver(self, dst: str) -> "RaftNode":
        node = self.nodes.get(dst)
        if node is None or node.crashed:
            raise NodeCrashed(dst)
        return node

    def request_vote(self, src: str, dst: str, args: dict) -> dict:
        self._charge(self.envelope_bytes)
        node = self._deliver(dst)
        reply = node.handle_request_vote(**args)
        self._charge(self.envelope_bytes)
        return reply

    def append_entries(self, src: str, dst: str, args: dict) -> dict:
        payload = sum(
            len(entry.command) + _ENTRY_OVERHEAD for entry in args["entries"]
        )
        self._charge(self.envelope_bytes + payload)
        node = self._deliver(dst)
        reply = node.handle_append_entries(**args)
        self._charge(self.envelope_bytes)
        return reply

    def install_snapshot(self, src: str, dst: str, args: dict) -> dict:
        self._charge(self.envelope_bytes + len(args["data"]))
        node = self._deliver(dst)
        reply = node.handle_install_snapshot(**args)
        self._charge(self.envelope_bytes)
        return reply


class RaftNode:
    """One replica: persistent log + state machine + consensus role."""

    def __init__(
        self,
        name: str,
        peer_names: list[str],
        log: RaftLog,
        statemachine: MetadataStateMachine,
        clock: SimClock,
        transport: RaftTransport,
        config: RaftConfig = RaftConfig(),
        seed: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        self.name = name
        self.peers = [peer for peer in peer_names if peer != name]
        self.log = log
        self.sm = statemachine
        self.clock = clock
        self.transport = transport
        self.config = config
        #: Seeded per node: the randomized election timeouts (and thus
        #: the whole election schedule) replay exactly from the seed.
        self.rng = random.Random(f"{seed}:{name}")
        self.role = FOLLOWER
        #: A restored snapshot is committed by definition.
        self.commit_index = statemachine.applied_index
        self.leader_hint: Optional[str] = None
        self.crashed = False
        self.crash_points: set[str] = set()
        self.lease_until = 0.0
        self.next_index: dict[str, int] = {}
        self.match_index: dict[str, int] = {}
        self._results: dict[int, Any] = {}
        self._election_deadline = clock.now + self._random_timeout()
        self._next_heartbeat = 0.0
        obs = obs if obs is not None else Observability(clock=clock)
        self.obs = obs
        prefix = f"raft.{name}"
        self._g_term = obs.registry.gauge(f"{prefix}.term")
        self._g_commit_lag = obs.registry.gauge(f"{prefix}.commit_lag")
        self._g_live_blocks = obs.registry.gauge(f"{prefix}.log.live_blocks")
        self._c_elections = obs.registry.counter(f"{prefix}.elections")
        self._c_heartbeats = obs.registry.counter(f"{prefix}.heartbeats")
        transport.register(self)

    # -- crash simulation ---------------------------------------------------
    def install_crash_point(self, point: str) -> None:
        """Arm a one-shot crash at a named point of the propose path."""
        self.crash_points.add(point)

    def _maybe_crash(self, point: str) -> None:
        if point in self.crash_points:
            self.crash_points.discard(point)
            self.crashed = True
            raise NodeCrashed(f"{self.name} crashed at {point}")

    def crash(self) -> None:
        self.crashed = True

    def _ensure_alive(self) -> None:
        if self.crashed:
            raise NodeCrashed(self.name)

    # -- timing -------------------------------------------------------------
    def _random_timeout(self) -> float:
        return self.rng.uniform(
            self.config.election_timeout_min, self.config.election_timeout_max
        )

    def _reset_election_deadline(self) -> None:
        self._election_deadline = self.clock.now + self._random_timeout()

    def _majority(self) -> int:
        return (len(self.peers) + 1) // 2 + 1

    def has_lease(self) -> bool:
        """May this node serve a linearizable read locally, right now?"""
        return (
            not self.crashed
            and self.role == LEADER
            and self.clock.now < self.lease_until
        )

    # -- the periodic driver ------------------------------------------------
    def tick(self) -> None:
        """Advance the protocol at the current SimClock instant.

        Leaders heartbeat (renewing the lease and followers' commit
        index); followers and candidates start an election once their
        randomized deadline passes.  Must run under the group lock —
        committed entries may be applied from here.
        """
        if self.crashed:
            return
        now = self.clock.now
        if self.role == LEADER:
            if now >= self._next_heartbeat:
                self._next_heartbeat = now + self.config.heartbeat_interval
                self._c_heartbeats.inc()
                self._replicate_round()
                self._advance_commit_and_apply()
            self._update_gauges()
            return
        if now >= self._election_deadline:
            self._start_election()
        self._update_gauges()

    def _update_gauges(self) -> None:
        self._g_term.set(self.log.current_term)
        self._g_commit_lag.set(self.log.last_index - self.commit_index)
        self._g_live_blocks.set(self.log.live_blocks)

    # -- elections ----------------------------------------------------------
    def _start_election(self) -> None:
        self.role = CANDIDATE
        term = self.log.current_term + 1
        # Persist term+self-vote BEFORE soliciting: a crash after any
        # peer saw this term can never lead to a second vote in it.
        self.log.set_hard_state(term, self.name)
        self._c_elections.inc()
        self._reset_election_deadline()
        votes = 1
        with self.clock.fork() as fork:
            for peer in self.peers:
                try:
                    with fork.branch():
                        reply = self.transport.request_vote(
                            self.name,
                            peer,
                            dict(
                                term=term,
                                candidate=self.name,
                                last_log_index=self.log.last_index,
                                last_log_term=self.log.last_term,
                            ),
                        )
                except NodeCrashed:
                    continue
                if reply["term"] > self.log.current_term:
                    self._step_down(reply["term"])
                    return
                if reply["granted"]:
                    votes += 1
        if (
            votes >= self._majority()
            and self.role == CANDIDATE
            and self.log.current_term == term
        ):
            self._become_leader()

    def _become_leader(self) -> None:
        self.role = LEADER
        self.leader_hint = self.name
        self.next_index = {peer: self.log.last_index + 1 for peer in self.peers}
        self.match_index = {peer: 0 for peer in self.peers}
        self._next_heartbeat = self.clock.now
        self.transport.note_leader(self.log.current_term, self.name)
        # §5.4.2 barrier: the leader may only count replicas for entries
        # of its own term, so an empty no-op pulls the whole inherited
        # prefix over the commit line on the first round.
        self.log.append(self.log.current_term, [encode_command("noop")])
        self._replicate_round()
        self._advance_commit_and_apply()

    def _step_down(self, term: int) -> None:
        if term > self.log.current_term:
            self.log.set_hard_state(term, None)
        self.role = FOLLOWER
        self.lease_until = 0.0
        self._reset_election_deadline()

    # -- RPC handlers (invoked via the transport) ----------------------------
    def handle_request_vote(
        self, term: int, candidate: str, last_log_index: int, last_log_term: int
    ) -> dict:
        self._ensure_alive()
        if term > self.log.current_term:
            self._step_down(term)
        granted = False
        if term == self.log.current_term:
            up_to_date = (last_log_term, last_log_index) >= (
                self.log.last_term,
                self.log.last_index,
            )
            if self.log.voted_for in (None, candidate) and up_to_date:
                granted = True
                if self.log.voted_for != candidate:
                    self.log.set_hard_state(term, candidate)
                self._reset_election_deadline()
        return {"term": self.log.current_term, "granted": granted}

    def _heard_from_leader(self, term: int, leader: str) -> Optional[dict]:
        """What AppendEntries and InstallSnapshot do first: the reply
        to a stale term, or None once this node follows ``leader``."""
        self._ensure_alive()
        if term < self.log.current_term:
            return {
                "term": self.log.current_term,
                "success": False,
                "next_hint": None,
            }
        if term > self.log.current_term or self.role != FOLLOWER:
            self._step_down(term)
        self.leader_hint = leader
        self._reset_election_deadline()
        return None

    def handle_install_snapshot(
        self, term: int, leader: str, index: int, last_term: int, data: bytes
    ) -> dict:
        stale = self._heard_from_leader(term, leader)
        if stale is not None:
            return stale
        # Delivered in order, it always finds this replica's applied
        # state behind ``index``: the leader sent it because the
        # replica's log ended, or diverged, at or below it.
        with self.obs.tracer.span(
            "raft.install_snapshot",
            node=self.name,
            index=index,
            term=last_term,
            snapshot_bytes=len(data),
        ):
            # The log first: a replica's applied state never runs past
            # what its log can restore on a restart.
            self.log.compact(index, last_term, data)
            self.sm.restore(index, data)
            self.commit_index = max(self.commit_index, index)
        self._update_gauges()
        # Not caught up yet: like a rejected AppendEntries, the reply
        # tells the leader where to go on from.
        return {"term": term, "success": False, "next_hint": index + 1}

    def handle_append_entries(
        self,
        term: int,
        leader: str,
        prev_index: int,
        prev_term: int,
        entries: list[LogEntry],
        leader_commit: int,
    ) -> dict:
        stale = self._heard_from_leader(term, leader)
        if stale is not None:
            return stale
        if prev_index > self.log.last_index:
            return {
                "term": term,
                "success": False,
                "next_hint": self.log.last_index + 1,
            }
        if prev_index > 0 and self.log.term_at(prev_index) != prev_term:
            # Log matching conflict: our entry at prev_index belongs to
            # a divergent (uncommitted) suffix — drop it and ask the
            # leader to back up.
            self.log.truncate_from(prev_index)
            self.commit_index = min(self.commit_index, self.log.last_index)
            return {"term": term, "success": False, "next_hint": prev_index}
        fresh: list[LogEntry] = []
        for entry in entries:
            if entry.index <= self.log.last_index:
                if self.log.term_at(entry.index) != entry.term:
                    self.log.truncate_from(entry.index)
                    fresh.append(entry)
            else:
                fresh.append(entry)
        if fresh:
            self.log.append_entries(fresh)
        if leader_commit > self.commit_index:
            self.commit_index = min(leader_commit, self.log.last_index)
            self._apply_committed()
        self._update_gauges()
        return {"term": term, "success": True, "next_hint": self.log.last_index + 1}

    # -- leader replication ---------------------------------------------------
    def _replicate_round(self) -> None:
        """One AppendEntries round to every peer; renews the lease on a
        majority of successful (or at least reachable, same-term) acks."""
        start = self.clock.now
        acks = 1
        with self.clock.fork() as fork:
            for peer in self.peers:
                with fork.branch(), self.obs.tracer.span(
                    "raft.replicate", peer=peer
                ) as span:
                    ok = self._replicate_to(peer, span)
                    span.set(ok=ok)
                acks += ok
                if self.role != LEADER:
                    return  # a higher term surfaced mid-round
        if acks >= self._majority():
            self.lease_until = max(
                self.lease_until, start + self.config.lease_duration
            )

    def _replicate_to(self, peer: str, span) -> bool:
        """Bring ``peer`` up to date; ``span`` learns the last message's
        ``kind`` and ``entries``."""
        log = self.log
        next_index = self.next_index.get(peer, log.last_index + 1)
        for __ in range(log.last_index + 2):  # bounded backtracking
            if next_index <= log.snapshot_index:
                # §7: what the peer needs next is compacted away.
                send, args = self.transport.install_snapshot, dict(
                    index=log.snapshot_index,
                    last_term=log.snapshot_term,
                    data=log.snapshot,
                )
            else:
                send, args = self.transport.append_entries, dict(
                    prev_index=next_index - 1,
                    prev_term=log.term_at(next_index - 1),
                    entries=log.entries_from(next_index),
                    leader_commit=self.commit_index,
                )
            span.set(
                kind="snapshot" if "data" in args else "append",
                entries=len(args.get("entries", ())),
            )
            try:
                reply = send(
                    self.name, peer, dict(args, term=log.current_term, leader=self.name)
                )
            except NodeCrashed:
                return False
            if reply["term"] > self.log.current_term:
                self._step_down(reply["term"])
                return False
            if reply["success"]:
                self.match_index[peer] = self.log.last_index
                self.next_index[peer] = self.log.last_index + 1
                return True
            hint = reply["next_hint"]
            next_index = hint if hint else max(1, next_index - 1)
            self.next_index[peer] = next_index
        return False

    def _advance_commit_and_apply(self) -> None:
        tracer = self.obs.tracer
        with tracer.span("raft.commit") as span:
            for index in range(self.commit_index + 1, self.log.last_index + 1):
                if self.log.term_at(index) != self.log.current_term:
                    continue  # §5.4.2: only current-term entries count directly
                votes = 1 + sum(
                    1
                    for peer in self.peers
                    if self.match_index.get(peer, 0) >= index
                )
                if votes >= self._majority():
                    self.commit_index = index
            span.set(commit_index=self.commit_index)
        with tracer.span("raft.apply", from_index=self.sm.applied_index):
            self._apply_committed()
        self._update_gauges()

    def _apply_committed(self) -> None:
        while self.sm.applied_index < self.commit_index:
            entry = self.log.entry(self.sm.applied_index + 1)
            result = self.sm.apply(entry.index, entry.command)
            if entry.index in self._results:
                self._results[entry.index] = result
        if self.log.compaction_due and self.sm.applied_index > self.log.snapshot_index:
            self._compact()

    def _compact(self) -> None:
        """Snapshot the applied state; the log drops what it covers."""
        index = self.sm.applied_index
        term = self.log.term_at(index)
        with self.obs.tracer.span(
            "raft.compact", node=self.name, index=index, term=term
        ) as span:
            snapshot = encode_state(self.sm.master)
            freed = self.log.compact(index, term, snapshot)
            span.set(snapshot_bytes=len(snapshot), blocks_freed=freed)

    # -- the client-facing write path ----------------------------------------
    def propose(self, command: bytes) -> Any:
        """Append a command, replicate it, commit it, apply it.

        Raises :class:`NotLeaderError` (with a redirect hint) on a
        non-leader, :class:`NodeCrashed` if an installed crash point
        fires mid-operation, :class:`TryAgain` if the entry could not
        reach a majority (minority partition), and the state machine's
        typed rejection of a committed command (e.g. an existing path).
        """
        self._ensure_alive()
        if self.role != LEADER:
            raise NotLeaderError(
                f"{self.name} is a {self.role}",
                leader_hint=self.leader_hint,
                retry_after_ms=self.config.election_timeout_max * 1e3,
            )
        tracer = self.obs.tracer
        with tracer.span("raft.propose", term=self.log.current_term) as span:
            self._maybe_crash("before_append")
            with tracer.span("raft.append"):
                (entry,) = self.log.append(self.log.current_term, [command])
            span.set(index=entry.index)
            # The one result anyone collects: no-ops, an inherited prefix
            # and an entry that commits on a later tick have nobody waiting.
            self._results[entry.index] = None
            try:
                self._maybe_crash("after_append")
                self._replicate_round()
                self._maybe_crash("before_commit")
                self._advance_commit_and_apply()
                self._maybe_crash("after_commit")
            finally:
                result = self._results.pop(entry.index)
        if self.commit_index < entry.index:
            raise TryAgain(
                f"entry {entry.index} did not reach a majority",
                retry_after_ms=self.config.heartbeat_interval * 1e3,
            )
        if isinstance(result, Exception):
            raise result  # the state machine rejected this command
        return result
