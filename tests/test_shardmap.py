"""Tests for the consistent-hash shard map and the sharded/replicated
cluster assembly: ring stability, epoch invalidation, failure-domain
spread, restart re-registration, diff-based rebalancing, and the
plain / replicated / sharded metadata planes behaving as one."""

import random

import pytest

from repro.locks import tracked_lock
from repro.distributed import (
    ChunkInfo,
    FileEntry,
    Master,
    MasterGroup,
    ReplicatedMaster,
    ShardMap,
    ShardedMaster,
    StaleShardMap,
    build_replicated_cluster,
)
from repro.distributed.master import METADATA_PLANE
from repro.fs.errors import FileExists, FileNotFound
from repro.distributed.shardmap import ClientShardCache


class TestShardMapRing:
    def test_lookup_is_deterministic(self):
        one = ShardMap(["g0", "g1", "g2"])
        two = ShardMap(["g2", "g0", "g1"])
        paths = [f"/dir/file{i}.dat" for i in range(50)]
        assert [one.group_for(p) for p in paths] == [two.group_for(p) for p in paths]

    def test_all_groups_own_some_arc(self):
        smap = ShardMap(["g0", "g1", "g2"])
        owners = {smap.group_for(f"/f{i}") for i in range(200)}
        assert owners == {"g0", "g1", "g2"}

    def test_adding_a_group_remaps_a_minority(self):
        smap = ShardMap(["g0", "g1", "g2"])
        paths = [f"/f{i}" for i in range(300)]
        before = {p: smap.group_for(p) for p in paths}
        smap.add_group("g3")
        moved = sum(1 for p in paths if smap.group_for(p) != before[p])
        # Consistent hashing: only the arcs adjacent to the new group's
        # points move — about 1/4 of keys, never a wholesale reshuffle.
        assert 0 < moved < len(paths) // 2
        # Every moved key landed on the new group.
        for p in paths:
            if smap.group_for(p) != before[p]:
                assert smap.group_for(p) == "g3"

    def test_removing_a_group_only_reroutes_its_keys(self):
        smap = ShardMap(["g0", "g1", "g2"])
        paths = [f"/f{i}" for i in range(300)]
        before = {p: smap.group_for(p) for p in paths}
        smap.remove_group("g1")
        for p in paths:
            after = smap.group_for(p)
            assert after != "g1"
            if before[p] != "g1":
                assert after == before[p]

    def test_membership_changes_bump_epoch(self):
        smap = ShardMap(["g0"])
        assert smap.epoch == 1
        assert smap.add_group("g1") == 2
        assert smap.add_group("g1") == 2  # idempotent: no bump
        assert smap.remove_group("g1") == 3
        assert smap.remove_group("g1") == 3

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            ShardMap([])
        smap = ShardMap(["g0"])
        with pytest.raises(ValueError):
            smap.remove_group("g0")


class TestClientShardCache:
    def test_stale_epoch_refresh_and_retry(self):
        smap = ShardMap(["g0", "g1"])
        cache = ClientShardCache(smap)
        assert cache.epoch == smap.epoch
        smap.add_group("g2")
        assert cache.epoch != smap.epoch  # cached view is now stale

        seen = []

        def rpc(group, epoch):
            smap.check_epoch(epoch)  # server-side validation
            seen.append((group, epoch))
            return group

        result = cache.call("/some/file", rpc)
        # Exactly one rejected attempt, then the refreshed route.
        assert len(seen) == 1
        assert seen[0][1] == smap.epoch
        assert result == smap.group_for("/some/file")
        assert cache.epoch == smap.epoch

    def test_check_epoch_carries_current(self):
        smap = ShardMap(["g0"])
        with pytest.raises(StaleShardMap) as excinfo:
            smap.check_epoch(0)
        assert excinfo.value.current_epoch == smap.epoch


class TestShardedCluster:
    def test_end_to_end_reads_and_writes(self):
        cluster = build_replicated_cluster(nodes=3, masters=3, shards=2)
        assert isinstance(cluster.master, ShardedMaster)
        assert len(cluster.groups) == 2
        payloads = {
            f"/data/file{i}.txt": (f"payload {i} " * 40).encode() for i in range(10)
        }
        for path, data in payloads.items():
            cluster.client.write_file(path, data)
        for path, data in payloads.items():
            assert cluster.client.read_file(path) == data
        assert cluster.master.list_files() == sorted(payloads)

    def test_namespace_partitions_across_shards(self):
        cluster = build_replicated_cluster(nodes=3, masters=1, shards=2)
        for i in range(10):
            cluster.client.write_file(f"/data/file{i}.txt", b"x" * 64)
        per_shard = [
            set(shard.list_files()) for shard in cluster.master._all()
        ]
        assert not (per_shard[0] & per_shard[1])
        assert len(per_shard[0] | per_shard[1]) == 10
        assert per_shard[0] and per_shard[1]

    def test_chunk_ids_are_shard_prefixed(self):
        cluster = build_replicated_cluster(nodes=2, masters=1, shards=2)
        cluster.client.write_file("/a", b"x" * 10)
        entry = cluster.master.lookup("/a")
        assert entry.chunks[0].chunk_id.startswith(("s0c", "s1c"))


class TestFailureDomains:
    def test_replicas_spread_across_racks(self):
        cluster = build_replicated_cluster(
            nodes=6, masters=3, racks=3, replication=2
        )
        cluster.client.write_file("/spread", b"y" * (8 * 1024))
        domains = cluster.master.server_domains()
        assert set(domains.values()) == {"rack0", "rack1", "rack2"}
        entry = cluster.master.lookup("/spread")
        assert entry.chunks
        for chunk in entry.chunks:
            racks = {domains[name] for name in chunk.servers}
            assert len(racks) == 2, f"chunk {chunk.chunk_id} not spread: {racks}"

    def test_restart_reregisters_domain_and_epoch(self):
        cluster = build_replicated_cluster(nodes=3, masters=3, racks=3, durable=True)
        server = cluster.servers["node1"]
        assert server.domain == "rack1"
        epoch_before = server.placement_epoch
        assert epoch_before == cluster.master.placement_epoch
        # Membership churn bumps the master's placement epoch while the
        # server is oblivious...
        cluster.master.remove_server("node2")
        server.restart()
        # ...restart re-registers: label intact, epoch replayed.
        assert cluster.master.domain_of("node1") == "rack1"
        assert server.placement_epoch > epoch_before
        assert server.placement_epoch == cluster.master.placement_epoch


class TestRebalance:
    def _payload(self, i):
        return (f"chunk payload {i} " * 200).encode()

    def test_departed_server_chunks_move(self):
        cluster = build_replicated_cluster(
            nodes=3, masters=3, chunk_capacity=1024
        )
        cluster.client.write_file("/big", b"z" * (6 * 1024))
        cluster.master.remove_server("node2")
        moves, shipped, full = cluster.client.rebalance()
        assert moves > 0
        assert shipped == full  # no delta source: every move is a full copy
        for chunk in cluster.master.lookup("/big").chunks:
            assert "node2" not in chunk.servers
        assert cluster.client.read_file("/big") == b"z" * (6 * 1024)

    def test_delta_rebalance_ships_fewer_bytes_than_full_copy(self):
        cluster = build_replicated_cluster(
            nodes=3, masters=3, replication=2, chunk_capacity=1024
        )
        client = cluster.client
        data = b"".join(self._payload(i) for i in range(4))
        client.write_file("/big", data)
        client.snapshot("base")
        # node1 goes down; the master evicts it and the cluster heals
        # with full copies (node1's stale replicas stay on its disk).
        cluster.servers["node1"].fail()
        cluster.master.remove_server("node1")
        client.rebalance()
        # A small post-snapshot edit, then node1 rejoins empty-handed.
        client.replace("/big", 100, b"@@")
        cluster.servers["node1"].recover()
        cluster.master.register_server("node1", "")
        moves, shipped, full = client.rebalance(base_snap="base")
        assert moves > 0
        # Moves onto node1's stale replicas ship post-snapshot deltas,
        # not whole chunks.
        assert shipped < full
        assert client.read_file("/big") == data[:100] + b"@@" + data[102:]

    def test_rebalance_converges(self):
        cluster = build_replicated_cluster(nodes=3, masters=1, chunk_capacity=1024)
        cluster.client.write_file("/f", b"w" * (6 * 1024))
        cluster.master.remove_server("node0")
        cluster.client.rebalance()
        moves, __, __ = cluster.client.rebalance()
        assert moves == 0


SERVERS = ["n0", "n1", "n2"]


def _plane(kind):
    """One metadata plane and the Raft groups under it."""
    if kind == "plain":
        return Master(SERVERS), []
    if kind == "replicated":
        group = MasterGroup(SERVERS, masters=3, seed=3)
        return ReplicatedMaster(group), [group]
    lock = tracked_lock("master.group.lock", rank=0)
    groups = [
        MasterGroup(SERVERS, masters=3, seed=5 + 17 * i, chunk_prefix=f"s{i}c", lock=lock)
        for i in range(2)
    ]
    facades = {f"g{i}": ReplicatedMaster(group) for i, group in enumerate(groups)}
    return ShardedMaster(facades, lock=lock), groups


#: Owned g1, g0, g1, g0: a sorted listing interleaves the two shards.
PATHS = [f"/d/f{i}" for i in (3, 4, 5, 6)]
POOL = SERVERS + ["n3"]
#: Merged reads whose raw form legitimately differs under sharding (shard
#: order; a per-shard balance plan) — their projections are compared.
SHARD_SENSITIVE = {"chunks_on", "placement_moves"}


def _drive(master, seed, steps, pinned):
    """Run one seeded op sequence; returns ``(op, outcome)`` per call with
    chunk ids replaced by their allocation ordinal."""
    rng = random.Random(seed)
    labels = {}  # this plane's chunk id -> allocation ordinal
    trace = []

    def norm(value):
        if isinstance(value, ChunkInfo):
            return ("chunk", labels[value.chunk_id], list(value.servers), value.length)
        if isinstance(value, FileEntry):
            return ("file", value.path, [norm(chunk) for chunk in value.chunks])
        if isinstance(value, (list, tuple)):
            return [norm(item) for item in value]
        if isinstance(value, dict):
            return {key: norm(item) for key, item in value.items()}
        return labels.get(value, value) if isinstance(value, str) else value

    def call(op, *args):
        try:
            result = getattr(master, op)(*args)
        except (FileExists, FileNotFound, ValueError) as exc:
            trace.append((op, type(exc).__name__))
            return None
        if op == "allocate_chunk":
            labels[result.chunk_id] = len(labels)
        trace.append((op, norm(result)))
        return result

    def some_chunk(path):
        chunks = master.lookup(path).chunks if master.exists(path) else []
        if not chunks or rng.random() < 0.1:
            return "no-such-chunk"
        return rng.choice(chunks).chunk_id

    def some_servers():
        return rng.sample(POOL, rng.randint(1, 2))

    def read_everything(path):
        for name in ("chunk_capacity", "replication", "server_names", "placement_epoch"):
            trace.append((name, norm(getattr(master, name))))
        call("lookup", path)
        call("exists", path)
        call("list_files")
        call("file_size", path)
        call("find_chunk", path, some_chunk(path))
        call("locate", path, rng.randint(-1, 40))
        call("chunks_in_range", path, rng.randint(0, 20), rng.randint(0, 40))
        call("total_logical_bytes")
        call("chunk_count")
        call("server_domains")
        server = rng.choice(POOL)
        call("domain_of", server)
        on = call("chunks_on", server)
        trace.append(("chunks_on.sorted", sorted(norm(on))))
        moves = call("placement_moves")
        live = set(master.server_names)
        trace.append((
            "placement_moves.mandatory",
            sorted(norm(move[:3]) for move in moves if move[2] not in live),
        ))

    with master.lock:
        for __ in range(steps):
            path = rng.choice(PATHS)
            roll = rng.random()
            if roll < 0.2:
                call("create", path)
            elif roll < 0.45:  # append-shaped: a chunk, then its bytes
                chunk = call("allocate_chunk", path, some_servers() if pinned else None)
                if chunk is not None:
                    call("extend_chunk", path, chunk.chunk_id, rng.randint(1, 16))
            elif roll < 0.55:
                call("extend_chunk", path, some_chunk(path), rng.randint(-20, 8))
            elif roll < 0.65:
                call("set_chunk_length", path, some_chunk(path), rng.randint(-2, 24))
            elif roll < 0.72:
                call("drop_chunk", path, some_chunk(path))
            elif roll < 0.75:
                call("unlink", path)
            elif roll < 0.85:
                call("place_chunk", path, some_chunk(path), some_servers())
            elif roll < 0.93:
                call("register_server", rng.choice(POOL), rng.choice(["", "rackA", "rackB"]))
            else:
                call("remove_server", rng.choice(POOL))
            read_everything(rng.choice(PATHS))
    return trace


class TestThreePlanes:
    @pytest.mark.parametrize("kind", ["plain", "replicated", "sharded"])
    def test_readmitted_server_keeps_its_load(self, kind):
        """Regression: a re-registered server re-entered placement at
        load 0 while still holding its replicas, so the next allocations
        dog-piled it (n1, n1, n0, n1 -> 3/5/2)."""
        master, __ = _plane(kind)
        with master.lock:
            master.create("/f")
            for __ in range(6):
                master.allocate_chunk("/f")
            master.remove_server("n1")
            master.register_server("n1")
            picked = [master.allocate_chunk("/f").server for __ in range(4)]
            assert picked == ["n0", "n1", "n2", "n0"]
            assert [len(master.chunks_on(name)) for name in SERVERS] == [4, 3, 3]

    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "default-placement"])
    def test_same_op_sequence_same_answers(self, pinned):
        """One seeded sequence of every command and every read through
        the plain, replicated and sharded planes: same results, same
        typed errors, converged replicas.

        The default placement rule reads a per-master load table, so a
        sharded plane legitimately places (and plans balance moves)
        differently from one master: the sharded plane joins the
        comparison with placement pinned, on everything but the two
        ``SHARD_SENSITIVE`` raw forms."""
        plain = _drive(_plane("plain")[0], seed=20260928, steps=200, pinned=pinned)
        seen = {op for op, __ in plain}
        assert set(METADATA_PLANE) <= seen
        assert {
            outcome for __, outcome in plain if isinstance(outcome, str)
        } >= {"FileExists", "FileNotFound", "ValueError"}
        for kind in ["replicated", "sharded"] if pinned else ["replicated"]:
            master, groups = _plane(kind)
            trace = _drive(master, seed=20260928, steps=200, pinned=pinned)
            skip = SHARD_SENSITIVE if kind == "sharded" else set()
            assert len(trace) == len(plain)
            for step, (mine, reference) in enumerate(zip(trace, plain)):
                if mine[0] not in skip:
                    assert mine == reference, f"{kind} diverged at call {step}"
            for group in groups:
                for __ in range(30):
                    group.tick()
                    group.clock.charge(0.05)
                assert len(set(group.state_digests().values())) == 1
