"""Tests for the Raft-replicated metadata plane.

Covers the persistent log (recovery, torn tails, truncation), leader
election (safety under a seeded 200-interleaving storm), the
kill-the-leader crash matrix (zero committed-metadata loss), leader
leases, the NotLeader wire mapping, the metadata-plane table the
apply step, the facade and the shard router derive from, and snapshots:
restore against a full replay, compaction inside the storm,
InstallSnapshot catch-up, and the space a replica's device holds.
"""

import hashlib
import inspect
import json
import random
from pathlib import Path

import pytest

from repro.distributed.master import METADATA_PLANE, Master
from repro.distributed.replicated import MasterGroup, ReplicatedMaster
from repro.distributed.shardmap import ShardedMaster
from repro.fs.errors import (
    FileExists,
    FileNotFound,
    TryAgain,
    wire_code,
    wire_error_payload,
)
from repro.raft.log import LogEntry, RaftLog, RaftLogError
from repro.raft.node import LEADER, NodeCrashed, NotLeaderError, RaftConfig
from repro.raft.statemachine import (
    CommandError,
    MetadataStateMachine,
    decode_command,
    encode_command,
    encode_state,
    state_digest,
)
from repro.serving.client import raise_wire_error
from repro.storage.block_device import (
    CrashPoint,
    CrashPointDevice,
    MemoryBlockDevice,
)
from repro.storage.simclock import DATACENTER_LAN, RAM_DISK, SimClock


#: crc32, term and command length in front of every log record.
_RECORD_HEADER = 16


def _device():
    return MemoryBlockDevice(block_size=4096, profile=RAM_DISK, clock=SimClock())


class TestRaftLog:
    def test_append_and_reads(self):
        log = RaftLog(_device())
        entries = log.append(1, [b"a", b"b"])
        assert [e.index for e in entries] == [1, 2]
        assert log.last_index == 2
        assert log.last_term == 1
        assert log.term_at(0) == 0
        assert log.entry(2).command == b"b"
        assert [e.command for e in log.entries_from(1)] == [b"a", b"b"]

    def test_recovery_round_trip(self):
        device = _device()
        log = RaftLog(device)
        log.set_hard_state(3, "m1")
        log.append(1, [b"one"])
        log.append(3, [b"two", b"three"])
        recovered = RaftLog(device)
        assert recovered.current_term == 3
        assert recovered.voted_for == "m1"
        assert recovered.last_index == 3
        assert [e.command for e in recovered.entries_from(1)] == [
            b"one",
            b"two",
            b"three",
        ]
        assert [e.term for e in recovered.entries_from(1)] == [1, 3, 3]

    def test_torn_tail_drops_last_batch_only(self):
        device = _device()
        log = RaftLog(device)
        log.append(1, [b"acked"])
        acked_end = _RECORD_HEADER + len(b"acked")
        log.append(1, [b"torn"])
        # A torn append: the tail block as the rewrite left it half way,
        # acked prefix intact, garbage where the new record was going.
        raw = device.read_block(1)
        device.write_blocks([(1, raw[:acked_end] + b"\xff" * (len(raw) - acked_end))])
        recovered = RaftLog(device)
        assert recovered.last_index == 1
        assert recovered.entry(1).command == b"acked"

    @pytest.mark.parametrize("victim", ["descriptor", "data", "commit"])
    def test_one_flipped_byte_ends_the_log_at_the_previous_batch(self, victim):
        device = _device()
        log = RaftLog(device)
        log.append(1, [b"acked-1", b"acked-2"])
        torn = 2 * (_RECORD_HEADER + len(b"acked-1"))  # where the next record starts
        log.append(2, [b"torn-1", b"torn-2"])
        # One byte of the first un-acked record: its term ("descriptor"),
        # its command ("data") or its crc ("commit").
        offset = torn + {"descriptor": 4, "data": _RECORD_HEADER + 2, "commit": 1}[victim]
        raw = bytearray(device.read_block(1))
        raw[offset] ^= 0x01
        device.write_blocks([(1, bytes(raw))])
        recovered = RaftLog(device)
        assert [e.command for e in recovered.entries_from(1)] == [
            b"acked-1",
            b"acked-2",
        ]
        # ...and the next append lands where the damaged record began.
        recovered.append(3, [b"again"])
        assert RaftLog(device).entry(3).command == b"again"
        assert RaftLog(device).last_index == 3

    def test_device_bytes_and_io_are_frozen(self):
        """On-device bytes, and the reads and writes that produce and
        recover them, are what every replica's SimClock is charged for.
        Literals recorded when the log became a packed record stream;
        the 21-entry append spans three blocks and the truncation cuts
        inside the second of them."""
        device = MemoryBlockDevice(block_size=256)
        log = RaftLog(device)
        log.set_hard_state(3, "n1")
        log.append(3, [b"create:/a", b"create:/b"])
        log.append(3, [b"x" * 40])
        log.append_entries(
            [LogEntry(term=4, index=4 + i, command=b"entry-%02d" % i) for i in range(21)]
        )
        log.truncate_from(10)
        log.append(5, [b"after-truncate"])
        reopened = RaftLog(device)
        assert reopened.entries_from(1) == log.entries_from(1)
        assert (reopened.current_term, reopened.voted_for) == (3, "n1")
        assert reopened.last_index == 10
        io = device.stats.snapshot()
        assert (io.block_reads, io.batched_reads, io.batched_blocks_read) == (5, 1, 3)
        assert (io.block_writes, io.batched_writes, io.batched_blocks_written) == (
            10, 3, 7,
        )
        assert log.stats.snapshot() == {
            "appends": 4, "blocks_written": 9, "truncations": 1,
        }
        digest = hashlib.sha256()
        for block_no in range(device.total_blocks):
            digest.update(device._read(block_no))
        assert device.total_blocks == 4
        assert digest.hexdigest() == (
            "6e63ef6c17e69e215aa123c10527601fe5d0bf81cc8c0a908566c61d596ba176"
        )

    def test_recovery_on_a_dead_device_propagates_the_crash(self):
        """Only a block past the allocation high-water mark means "end
        of log"; a dead device must not read as an empty one."""
        inner = _device()
        RaftLog(inner).append(1, [b"acked"])
        device = CrashPointDevice(inner, crash_after=1)
        with pytest.raises(CrashPoint):
            device.write_blocks([(0, b"dies here")])
        with pytest.raises(CrashPoint):
            RaftLog(device)
        assert RaftLog(inner).last_index == 1

    def test_truncate_from_survives_recovery(self):
        device = _device()
        log = RaftLog(device)
        log.append(1, [b"a", b"b", b"c"])
        log.append(2, [b"d"])
        log.truncate_from(2)  # keeps "a", cuts inside the block
        assert log.last_index == 1
        log.append(3, [b"b2"])
        recovered = RaftLog(device)
        assert [(e.term, e.command) for e in recovered.entries_from(1)] == [
            (1, b"a"),
            (3, b"b2"),
        ]

    def test_truncate_whole_log_survives_recovery(self):
        device = _device()
        log = RaftLog(device)
        log.append(1, [b"a"])
        log.truncate_from(1)
        assert log.last_index == 0
        assert RaftLog(device).last_index == 0

    def test_follower_append_requires_contiguity(self):
        log = RaftLog(_device())
        with pytest.raises(RaftLogError):
            log.append_entries([LogEntry(term=1, index=5, command=b"x")])

    def test_oversized_command_rejected(self):
        log = RaftLog(_device())
        with pytest.raises(RaftLogError):
            log.append(1, [b"x" * 5000])


def _group(masters=3, seed=0, **kwargs):
    return MasterGroup(
        ["node0", "node1", "node2"], masters=masters, seed=seed, **kwargs
    )


def _settle(group):
    for __ in range(30):
        group.tick()
        group.clock.charge(0.05)


class TestElection:
    def test_single_leader_elected(self):
        group = _group()
        name = group.elect()
        leader = group.leader()
        assert leader is not None and leader.name == name
        assert sum(
            1
            for node in group.nodes.values()
            if node.role == LEADER and not node.crashed
        ) == 1

    def test_failover_within_timeout_bound(self):
        config = RaftConfig()
        group = _group(config=config)
        group.elect()
        group.crash_leader()
        start = group.clock.now
        group.elect()
        elapsed = group.clock.now - start
        # Lease expiry + a handful of randomized election timeouts; far
        # under the pathological bound but crucially bounded at all.
        assert elapsed <= config.lease_duration + 10 * config.election_timeout_max

    def test_no_leader_without_majority(self):
        group = _group()
        group.elect()
        names = sorted(group.nodes)
        group.crash(names[0])
        group.crash(names[1])
        with pytest.raises(TimeoutError):
            group.elect(deadline_s=2.0)

    def test_first_request_after_a_quiet_spell_owes_no_step(self):
        """Regression: the tick that renews the lease (or elects) ends
        the wait; it used to be charged half a heartbeat on top."""
        config = RaftConfig()
        group = _group(config=config)
        group.elect()
        group.clock.charge(0.3)  # no ticks: the lease has run out
        assert group.leader() is None
        start = group.clock.now
        group.leader_master()
        assert group.clock.now - start < config.heartbeat_interval / 2

    def test_restarted_node_rejoins_as_follower(self):
        group = _group()
        group.elect()
        killed = group.crash_leader()
        group.elect()
        node = group.restart(killed)
        assert node.role != LEADER
        for __ in range(10):
            group.tick()
        assert group.live_names() == sorted(group.nodes)


class TestElectionStorm:
    def test_at_most_one_leader_per_term_across_200_interleavings(self):
        """Seeded storm: 200 crash/restart/tick schedules, then prove the
        Election Safety property from the transport's leader ledger."""
        group = _group(seed=42)
        rng = random.Random(1234)
        names = sorted(group.nodes)
        for round_no in range(200):
            crashed = [n for n in names if group.nodes[n].crashed]
            live = [n for n in names if not group.nodes[n].crashed]
            action = rng.random()
            if action < 0.25 and len(live) > 2:
                group.crash(rng.choice(live))
            elif action < 0.5 and crashed:
                group.restart(rng.choice(crashed))
            for __ in range(rng.randrange(1, 5)):
                group.tick()
                group.clock.charge(rng.uniform(0.01, 0.12))
        ledger = group.transport.leaders_by_term()
        assert ledger, "the storm never elected anyone"
        for term, leaders in ledger.items():
            assert len(leaders) <= 1, f"term {term} elected {sorted(leaders)}"


CRASH_POINTS = ["before_append", "after_append", "before_commit", "after_commit"]


class TestKillLeaderMatrix:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_zero_committed_metadata_loss(self, point):
        group = _group(seed=7)
        facade = ReplicatedMaster(group)
        # Commands acked before the crash are committed metadata.
        acked = [f"/pre{i}" for i in range(3)]
        for path in acked:
            facade.create(path)
        leader = group.leader()
        assert leader is not None
        leader.install_crash_point(point)
        with pytest.raises(NodeCrashed):
            with group.lock:
                leader.propose(encode_command("create", path="/inflight"))
        # Failover: the survivors elect a new leader.
        killed = leader.name
        new_leader = group.elect()
        assert new_leader != killed
        survivor = group.leader_master()
        for path in acked:
            assert survivor.exists(path), f"{point}: lost committed {path}"
        if point == "after_commit":
            # Committed (and applied on the old leader) before the crash:
            # it reached a majority, so the new leader must carry it.
            assert survivor.exists("/inflight")
        if point == "before_append":
            # Never entered any log; it must not resurrect.
            assert not survivor.exists("/inflight")

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_restarted_leader_converges(self, point):
        group = _group(seed=11)
        facade = ReplicatedMaster(group)
        facade.create("/durable")
        leader = group.leader()
        leader.install_crash_point(point)
        with pytest.raises(NodeCrashed):
            with group.lock:
                leader.propose(encode_command("create", path="/inflight"))
        killed = leader.name
        group.elect()
        facade.create("/after-failover")
        group.restart(killed)
        _settle(group)
        digests = group.state_digests()
        assert len(digests) == 3
        assert len(set(digests.values())) == 1, digests
        survivor = group.leader_master()
        assert survivor.exists("/durable")
        assert survivor.exists("/after-failover")


class TestMetadataPlane:
    """``METADATA_PLANE`` is the contract: one row per metadata op."""

    def test_table_is_exhaustive(self):
        methods = {
            name
            for name, member in vars(Master).items()
            if inspect.isfunction(member) and not name.startswith("_")
        }
        attributes = set(METADATA_PLANE) - methods
        assert methods <= set(METADATA_PLANE), "a Master method has no table row"
        assert attributes == {
            "chunk_capacity", "replication", "server_names", "placement_epoch",
        }
        plain = Master(["n0"])
        for name in attributes:
            assert hasattr(plain, name)
        # A mutator declares the lock contract; every such method — and
        # nothing else — crosses the log, so none can hide as a "read".
        for name in methods:
            locked = "self.lock.require_held()" in inspect.getsource(vars(Master)[name])
            assert locked == (METADATA_PLANE[name][0] is not None), name

    @pytest.mark.parametrize("surface", [ReplicatedMaster, ShardedMaster])
    def test_every_row_is_a_real_member_of_the_derived_surfaces(self, surface):
        assert "__getattr__" not in vars(surface)
        for name in METADATA_PLANE:
            member = vars(surface)[name]
            if name in vars(Master):
                assert inspect.isfunction(member) and member.__name__ == name
            else:
                assert isinstance(member, property)
        # ...and the class bodies hold no hand-written per-op method.
        own = {"shard_for", "_first", "_all"} if surface is ShardedMaster else set()
        public = {n for n in vars(surface) if not n.startswith("__")}
        assert public == set(METADATA_PLANE) | own

    def test_command_bytes_match_golden(self):
        """Log bytes are frozen: opcodes, argument names (defaults
        included) and the canonical JSON are what every persisted log
        holds and what the transport charges for."""
        group = _group()
        facade = ReplicatedMaster(group)
        facade.create("/f")
        first = facade.allocate_chunk("/f")  # defaulted: servers=None
        facade.allocate_chunk("/f", ["node1"])
        facade.extend_chunk("/f", first.chunk_id, 5)
        facade.set_chunk_length("/f", first.chunk_id, 3)
        facade.place_chunk("/f", first.chunk_id, ["node2", "node0"])
        facade.drop_chunk("/f", first.chunk_id)
        facade.register_server("node3")  # defaulted: domain=""
        facade.register_server("node4", "rackA")
        facade.remove_server("node3")
        facade.unlink("/f")
        log = [e.command.decode("utf-8") for e in group.leader().log.entries_from(1)]
        golden = Path(__file__).parent / "goldens" / "raft_commands.json"
        assert log == json.loads(golden.read_text())
        opcodes = {op for op, __ in METADATA_PLANE.values() if op is not None}
        assert {json.loads(command)["op"] for command in log} == opcodes | {"noop"}

    def test_facade_rejects_misbound_arguments_before_proposing(self):
        group = _group()
        facade = ReplicatedMaster(group)
        group.elect()
        before = group.leader().log.last_index
        for call in (
            lambda: facade.create(),
            lambda: facade.create("/a", "/b"),
            lambda: facade.create(pth="/a"),
        ):
            with pytest.raises(TypeError):
                call()
        assert group.leader().log.last_index == before

    def test_apply_rejects_unknown_and_out_of_order_commands(self):
        machine = MetadataStateMachine(Master(["n0"]))
        with pytest.raises(CommandError, match="unknown"):
            machine.apply(1, encode_command("splice", path="/f"))
        with pytest.raises(CommandError, match="out of order"):
            machine.apply(3, encode_command("noop"))
        assert machine.applied_index == 0

    @pytest.mark.parametrize(
        "raw",
        [b"5", b"[]", b"null", b'"op"', b'{"op": 1, "args": {}}', b'{"op": "x", "args": []}'],
    )
    def test_decode_command_raises_only_command_error(self, raw):
        """Valid JSON that is not a command object used to escape as a
        TypeError."""
        with pytest.raises(CommandError):
            decode_command(raw)
        machine = MetadataStateMachine(Master(["n0"]))
        with pytest.raises(CommandError):
            machine.apply(1, raw)
        assert decode_command(encode_command("noop")) == ("noop", {})

    def test_rejected_command_reaches_only_its_proposer(self):
        """A command the state machine rejects is committed like any
        other; it must not stop any replica's apply cursor."""
        group = _group()
        facade = ReplicatedMaster(group)
        facade.create("/a")
        chunk = facade.allocate_chunk("/a")
        with pytest.raises(FileExists):
            facade.create("/a")
        with pytest.raises(FileNotFound):
            facade.unlink("/missing")
        with pytest.raises(ValueError):
            facade.extend_chunk("/a", chunk.chunk_id, -1)
        facade.create("/b")
        _settle(group)
        assert facade.list_files() == ["/a", "/b"]
        assert len(set(group.state_digests().values())) == 1
        for node in group.nodes.values():
            assert node.sm.applied_index == node.commit_index == node.log.last_index

    def test_leader_keeps_no_result_nobody_is_waiting_for(self):
        """Only the entry a ``propose`` is blocked on has a reader: not
        the election no-op, and not an entry whose ``propose`` gave up
        (``TryAgain`` in a minority) and that commits on a later tick."""
        group = _group()
        facade = ReplicatedMaster(group)
        for index in range(50):
            facade.create(f"/f{index}")
        leader = group.leader()
        followers = [name for name in sorted(group.nodes) if name != leader.name]
        for name in followers:
            group.crash(name)
        with group.lock, pytest.raises(TryAgain):
            leader.propose(encode_command("create", path="/late"))
        for name in followers:
            group.restart(name)
        _settle(group)
        assert "/late" in facade.list_files()
        assert len(set(group.state_digests().values())) == 1
        for node in group.nodes.values():
            assert node._results == {}

    def test_group_reports_each_nodes_log_writes(self):
        group = _group()
        facade = ReplicatedMaster(group)
        for index in range(20):
            facade.create(f"/f{index}")
        counters = group.obs.registry.snapshot().filter("raft").counters
        for name in group.nodes:
            appends = counters[f"raft.{name}.log.appends"]
            assert appends >= 21  # the election no-op and 20 creates
            # ~1.5 KiB of records: every append rewrote block 1 and nothing else.
            assert counters[f"raft.{name}.log.blocks_written"] == appends
            assert counters[f"raft.{name}.log.truncations"] == 0

    def test_digest_exposes_a_follower_with_diverged_placement_state(self):
        group = _group()
        facade = ReplicatedMaster(group)
        facade.create("/f")
        facade.allocate_chunk("/f")
        _settle(group)
        assert len(set(group.state_digests().values())) == 1
        follower = next(
            node for __, node in sorted(group.nodes.items()) if node.role != LEADER
        )
        follower.sm.master._server_load["node2"] += 1
        assert len(set(group.state_digests().values())) == 2
        follower.sm.master._server_load["node2"] -= 1
        follower.sm.master._next_chunk += 1
        assert len(set(group.state_digests().values())) == 2


def _create_cost(masters, traced=False):
    """Simulated seconds one steady-state create takes, and the group."""
    group = _group(masters=masters)
    group.elect()
    facade = ReplicatedMaster(group)
    facade.create("/warm")
    group.obs.tracer.enabled = traced
    start = group.clock.now
    facade.create("/f")
    return group.clock.now - start, group


class TestParallelRounds:
    """The leader's AppendEntries and a candidate's RequestVote go to
    every peer at once (§5.3): a round costs its slowest peer."""

    def test_a_propose_costs_the_same_at_5_masters_as_at_3(self):
        three, __ = _create_cost(3)
        five, __ = _create_cost(5)
        rtt = 2 * DATACENTER_LAN.transfer_cost(RaftConfig.envelope_bytes)
        assert rtt < three < 2 * rtt
        assert five == pytest.approx(three)

    @pytest.mark.parametrize("masters", [3, 5])
    def test_a_vote_round_costs_one_round_trip(self, masters, monkeypatch):
        group = _group(masters=masters)
        candidate = group.nodes["m0"]
        # Stop at the tally: leadership would open a replication round.
        monkeypatch.setattr(candidate, "_become_leader", lambda: None)
        start = group.clock.now
        candidate._start_election()
        elapsed = group.clock.now - start
        rtt = 2 * DATACENTER_LAN.transfer_cost(RaftConfig.envelope_bytes)
        assert candidate.log.current_term == 1
        assert all(node.log.voted_for == "m0" for node in group.nodes.values())
        assert rtt < elapsed < 1.5 * rtt

    def test_replicate_spans_start_at_the_fork_and_end_the_propose(self):
        untraced, __ = _create_cost(3)
        traced, group = _create_cost(3, traced=True)
        assert traced == untraced  # spans charge no simulated time
        spans = group.obs.tracer.spans()
        (propose,) = [s for s in spans if s.name == "raft.propose"]
        children = [s for s in spans if s.parent_id == propose.span_id]
        assert [s.name for s in children] == [
            "raft.append",
            "raft.replicate",
            "raft.replicate",
            "raft.commit",
            "raft.apply",
        ]
        append, *replicates, commit, apply = children
        leader = group.leader()
        assert propose.attrs == {"term": leader.log.current_term, "index": 3}
        assert {s.attrs["peer"] for s in replicates} == set(leader.peers)
        for span in replicates:
            assert span.start == append.end  # the fork instant
            assert span.attrs | {"peer": None} == {
                "peer": None,
                "kind": "append",
                "entries": 1,
                "ok": True,
            }
        assert propose.end == max(s.end for s in replicates)
        assert commit.attrs == {"commit_index": 3}


class TestLease:
    def test_leader_lease_expires_without_heartbeats(self):
        config = RaftConfig()
        group = _group(config=config)
        group.elect()
        leader = group.leader()
        assert leader.has_lease()
        # Freeze the leader (no ticks) and let simulated time pass.
        group.clock.charge(config.lease_duration + 0.01)
        assert not leader.has_lease()
        assert group.leader() is None

    def test_lease_shorter_than_election_timeout(self):
        config = RaftConfig()
        assert config.lease_duration < config.election_timeout_min

    def test_deposed_replica_redirects(self):
        group = _group()
        group.elect()
        follower = next(
            node
            for name, node in sorted(group.nodes.items())
            if node.role != LEADER
        )
        with pytest.raises(NotLeaderError) as excinfo:
            follower.propose(encode_command("noop"))
        assert excinfo.value.retry_after_ms > 0


class TestWireMapping:
    def test_not_leader_is_try_again_on_the_wire(self):
        exc = NotLeaderError("m1 is a follower", leader_hint="m0")
        assert wire_code(exc) == 11  # EAGAIN: TryAgain's frozen code

    def test_leader_hint_round_trip(self):
        exc = NotLeaderError(
            "m1 is a follower", leader_hint="m0", retry_after_ms=300.0
        )
        payload = wire_error_payload(exc)
        assert payload["error"] == "TryAgain"
        assert payload["leader_hint"] == "m0"
        with pytest.raises(TryAgain) as excinfo:
            raise_wire_error(payload)
        raised = excinfo.value
        assert raised.retry_after_ms == 300.0
        assert raised.leader_hint == "m0"


def _command_stream(seed, count):
    """Seeded commands of every opcode, valid and rejected, drawn against
    the state of the master they are applied to in order; each result
    as it was when applied (the live objects change later)."""
    rng = random.Random(seed)
    lock = Master(["n0"]).lock
    master = Master(["n2", "n0", "n1"], replication=2, lock=lock, domains={"n0": "r0"})
    machine = MetadataStateMachine(master)
    commands, results = [], []
    for index in range(1, count + 1):
        files = master.list_files()
        path = rng.choice(files) if files and rng.random() < 0.8 else f"/f{rng.randrange(40)}"
        chunks = [c.chunk_id for c in master.lookup(path).chunks] if master.exists(path) else []
        chunk = rng.choice(chunks) if chunks else "c99999999"
        servers = rng.sample(sorted(master.server_names), 2)
        op, args = rng.choice(
            [
                ("create", dict(path=path)),
                ("alloc", dict(path=path, servers=None)),
                ("alloc", dict(path=path, servers=servers)),
                ("extend", dict(path=path, chunk_id=chunk, delta=rng.randrange(-50, 500))),
                ("set_length", dict(path=path, chunk_id=chunk, length=rng.randrange(900))),
                ("place", dict(path=path, chunk_id=chunk, servers=servers)),
                ("drop", dict(path=path, chunk_id=chunk)),
                ("unlink", dict(path=path)),
                ("register_server", dict(name=rng.choice(["z9", "a7", "n1"]), domain="r1")),
                ("register_server", dict(name=rng.choice(["z9", "a7", "n1"]), domain="")),
                ("remove_server", dict(name=rng.choice(["z9", "a7", "n1", "n2"]))),
            ]
        )
        commands.append(encode_command(op, **args))
        with lock:
            results.append(repr(machine.apply(index, commands[-1])))
    return commands, results, master


class TestSnapshots:
    @pytest.mark.parametrize("seed", range(4))
    def test_restored_master_matches_a_full_replay(self, seed):
        commands, results, replayed = _command_stream(seed, 400)
        opcodes = {json.loads(command)["op"] for command in commands}
        assert {"register_server", "remove_server", "place", "alloc"} <= opcodes
        lock = Master(["n0"]).lock

        def fresh():
            return MetadataStateMachine(
                Master(["n2", "n0", "n1"], replication=2, lock=lock, domains={"n0": "r0"})
            )

        unsorted = 0
        for cut in (1, 57, 200, 399):
            head = fresh()
            with lock:
                for index, command in enumerate(commands[:cut], 1):
                    head.apply(index, command)
            restored = fresh()
            with lock:
                restored.restore(cut, encode_state(head.master))
            assert state_digest(restored.master) == state_digest(head.master)
            # Membership keeps the order it was admitted in.
            assert restored.master.server_names == head.master.server_names
            unsorted += head.master.server_names != sorted(head.master.server_names)
            with lock:
                for index in range(cut + 1, len(commands) + 1):
                    got = restored.apply(index, commands[index - 1])
                    assert repr(got) == results[index - 1], (cut, index)
            assert state_digest(restored.master) == state_digest(replayed)
        assert unsorted

    def test_election_storm_with_compaction_elects_at_most_one_leader_per_term(self):
        group = _group(seed=42)
        rng = random.Random(4321)
        names = sorted(group.nodes)
        created = 0
        for round_no in range(200):
            crashed = [n for n in names if group.nodes[n].crashed]
            live = [n for n in names if not group.nodes[n].crashed]
            action = rng.random()
            if action < 0.25 and len(live) > 2:
                group.crash(rng.choice(live))
            elif action < 0.5 and crashed:
                group.restart(rng.choice(crashed))
            for __ in range(rng.randrange(1, 5)):
                group.tick()
                group.clock.charge(rng.uniform(0.01, 0.12))
                for __ in range(rng.randrange(8)):
                    created += 1
                    try:
                        group.propose("create", path=f"/storm/{created:05d}")
                    except TryAgain:
                        pass
        for name in names:
            if group.nodes[name].crashed:
                group.restart(name)
        _settle(group)
        ledger = group.transport.leaders_by_term()
        assert len(ledger) > 5
        for term, leaders in ledger.items():
            assert len(leaders) <= 1, f"term {term} elected {sorted(leaders)}"
        assert len(set(group.state_digests().values())) == 1
        assert all(node.log.snapshot_index > 0 for node in group.nodes.values())

    def test_restarted_follower_catches_up_through_install_snapshot_alone(self):
        group = _group()
        group.obs.tracer.enabled = True
        facade = ReplicatedMaster(group)
        facade.create("/before")
        _settle(group)
        follower = next(n for n, node in sorted(group.nodes.items()) if node.role != LEADER)
        group.crash(follower)
        for index in range(300):
            facade.create(f"/f{index:03d}")
        leader = group.leader()
        assert leader.log.snapshot_index > group.nodes[follower].log.last_index
        appended, installed = [], []
        transport = group.transport
        send_entries, send_snapshot = transport.append_entries, transport.install_snapshot

        def append_entries(src, dst, args):
            if dst == follower:
                floor = group.nodes[src].log.snapshot_index
                appended.extend(e.index for e in args["entries"])
                assert all(e.index > floor for e in args["entries"]), floor
            return send_entries(src, dst, args)

        def install_snapshot(src, dst, args):
            installed.append((dst, args["index"], len(args["data"])))
            return send_snapshot(src, dst, args)

        transport.append_entries = append_entries
        transport.install_snapshot = install_snapshot
        bytes_before = transport.bytes_sent
        group.restart(follower)
        _settle(group)
        assert installed and {dst for dst, __, __ in installed} == {follower}
        # The snapshot was charged its bytes, and the follower's log
        # holds only what came after it.
        assert transport.bytes_sent - bytes_before > installed[0][2]
        node = group.nodes[follower]
        assert node.log.snapshot_index >= installed[0][1]
        assert len(set(group.state_digests().values())) == 1
        spans = [s for s in group.obs.tracer.spans() if s.name == "raft.install_snapshot"]
        assert [s.attrs["node"] for s in spans] == [follower] * len(installed)
        assert spans[0].attrs["snapshot_bytes"] == installed[0][2]

    def test_install_of_a_snapshot_whose_manifest_spans_blocks(self):
        """On 128-byte log blocks a few hundred files make a snapshot of
        dozens of blocks: the follower that installs it, and every
        replica that compacts, chain their manifests over several."""
        group = _group()
        for name in group.devices:
            group.devices[name] = MemoryBlockDevice(block_size=128, clock=group.clock)
            group.restart(name)
        facade = ReplicatedMaster(group)
        facade.create("/before")
        _settle(group)
        follower = next(n for n, node in sorted(group.nodes.items()) if node.role != LEADER)
        group.crash(follower)
        for index in range(300):
            facade.create(f"/f{index:03d}")
        assert group.leader().log.snapshot_index > group.nodes[follower].log.last_index
        group.restart(follower)
        _settle(group)
        node = group.nodes[follower]
        assert len(node.log.snapshot) > 10 * 128 and len(node.log._manifest) > 1
        assert node.sm.applied_index == node.log.last_index
        assert len(set(group.state_digests().values())) == 1
        for name, device in group.devices.items():
            recovered = RaftLog(device)
            assert recovered.snapshot == group.nodes[name].log.snapshot
            assert recovered.live_blocks == device.allocated_blocks

    def test_restart_restores_the_snapshot_and_replays_only_the_tail(self):
        group = _group()
        facade = ReplicatedMaster(group)
        for index in range(150):
            facade.create(f"/f{index:03d}")
        _settle(group)
        name = next(n for n, node in sorted(group.nodes.items()) if node.role != LEADER)
        before = group.nodes[name]
        assert before.log.snapshot_index > 0
        group.crash(name)
        node = group.restart(name)
        assert node.sm.applied_index == node.commit_index == node.log.snapshot_index
        assert node.log.last_index == before.log.last_index
        _settle(group)
        assert node.sm.applied_index == node.log.last_index
        assert len(set(group.state_digests().values())) == 1

    def test_compaction_spans_and_the_live_blocks_gauge(self):
        group = _group()
        group.obs.tracer.enabled = True
        facade = ReplicatedMaster(group)
        for index in range(200):
            facade.create(f"/f{index:03d}")
        _settle(group)
        spans = [s for s in group.obs.tracer.spans() if s.name == "raft.compact"]
        assert {s.attrs["node"] for s in spans} == set(group.nodes)
        for span in spans:
            node = group.nodes[span.attrs["node"]]
            assert 0 < span.attrs["index"] <= node.log.snapshot_index
            assert span.attrs["term"] == node.log.current_term
            assert span.attrs["snapshot_bytes"] > 0
            assert span.attrs["blocks_freed"] > 0
        gauges = group.obs.registry.snapshot().gauges
        for name, device in group.devices.items():
            live = gauges[f"raft.{name}.log.live_blocks"]
            assert live == group.nodes[name].log.live_blocks == device.allocated_blocks

    def test_device_space_is_bounded_by_the_state_not_the_history(self):
        group = _group()
        facade = ReplicatedMaster(group)
        facade.create("/f")
        chunk = facade.allocate_chunk("/f")
        peaks = []
        for total in (1000, 5000):
            peak = 0
            for index in range(total):
                facade.set_chunk_length("/f", chunk.chunk_id, index)
                peak = max(peak, max(d.allocated_blocks for d in group.devices.values()))
            peaks.append(peak)
        _settle(group)
        # Block 0, the layout mark, the manifest, one snapshot block and
        # the stream's room: whatever the number of proposals.
        assert peaks[0] == peaks[1] <= 6, peaks
        for name, node in group.nodes.items():
            assert node.log.snapshot_index > 5000
            assert node.log.live_blocks == group.devices[name].allocated_blocks
        assert len(set(group.state_digests().values())) == 1
