"""cluster_rw: reads and writes through the replicated, sharded cluster.

``build_replicated_cluster(nodes=5, masters=3, shards=2, replication=2,
chunk_capacity=16 KiB, durable=True)`` with 16 preloaded 32 KiB files.
Through ``ClusterClient``: 56 % read 512 B / 18 % append 256 B / 18 %
create (metadata only) / 8 % overwrite 256 B.  (Issue 12 asked for 50 /
20 / 20 / 10; with exactly half the ops being 40 us reads the median
latency sits in the gap between reads and 140 us creates and jumps
between them from seed to seed.)  At one third of the
timed actions the leader of master group 0 is crashed and a successor
elected; at two thirds the crashed replica is restarted.  Those two
events are timed (they are part of the run) but are not ops.

Every create, chunk allocation and length update pays a Raft round, so
this is where Raft batching must show — and nowhere else, because
nothing in serving, mvcc or databases runs here.

Flush policy: the chunk servers' per-RPC group commit (``durable=True``
fsyncs each server's engine after every mutating RPC).
"""

from __future__ import annotations

from repro.distributed import build_replicated_cluster

from .. import gen
from ..harness import Workload, fsck_violations

FILES = 16
FILE_BYTES = 32 * 1024
READ = 512
WRITE = 256
CHUNK_CAPACITY = 16 * 1024
#: Ticks allowed for the restarted replica to catch up in verification.
CONVERGE_TICKS = 400


def _path(index: int) -> str:
    return f"/data/f{index:02d}"


class ClusterRw(Workload):
    name = "cluster_rw"
    flush_policy = "chunk servers' per-RPC group commit (durable=True)"
    actions_per_second = 2800

    def __init__(self, seed: int, timed_actions: int) -> None:
        super().__init__(seed, timed_actions)
        rng = gen.rng_for(seed, "cluster_rw")
        corpus = gen.corpus(rng, FILES * FILE_BYTES, 0.30, 48, html=False)
        self.preload = {
            _path(i): corpus[i * FILE_BYTES : (i + 1) * FILE_BYTES] for i in range(FILES)
        }
        events = {
            self.warm + timed_actions // 3: ("event_failover",),
            self.warm + 2 * timed_actions // 3: ("event_restart",),
        }
        total = self.warm + timed_actions
        created = 0
        while len(self.actions) < total:
            event = events.get(len(self.actions))
            if event is not None:
                self.actions.append(event)
                continue
            path = _path(rng.randrange(FILES))
            draw = rng.random()
            if draw < 0.56:
                action = ("read", path, rng.randrange(FILE_BYTES - READ), READ)
            elif draw < 0.74:
                action = ("append", path, gen.aligned_slice(rng, corpus, WRITE))
            elif draw < 0.92:
                action = ("create", f"/new/n{created:05d}")
                created += 1
            else:
                action = (
                    "overwrite",
                    path,
                    rng.randrange(FILE_BYTES - WRITE),
                    gen.aligned_slice(rng, corpus, WRITE),
                )
            self.actions.append(action)
        self.input_sha256 = gen.sha256_of(self.preload, self.actions)
        self.sizes = {
            "preloaded_user_bytes": FILES * FILE_BYTES,
            "chunk_capacity": CHUNK_CAPACITY,
            "chunk_server_cache_bytes": 128 * 1024,
        }
        self.model = {path: bytearray(data) for path, data in self.preload.items()}
        self.failover_sim_s = 0.0
        self.crashed = ""

    def setup(self) -> None:
        self.cluster = build_replicated_cluster(
            nodes=5,
            masters=3,
            shards=2,
            replication=2,
            chunk_capacity=CHUNK_CAPACITY,
            durable=True,
            seed=self.seed,
        )
        self.client = self.cluster.client
        for path, data in self.preload.items():
            self.client.write_file(path, data)

    def execute(self, action: tuple) -> object:
        kind = action[0]
        client = self.client
        if kind == "read":
            return client.read(action[1], action[2], action[3])
        if kind == "append":
            return client.append(action[1], action[2])
        if kind == "create":
            return client.create(action[1])
        if kind == "overwrite":
            client.write(action[1], action[2], action[3])
            return None
        group = self.cluster.groups[0]
        if kind == "event_failover":
            clock = self.cluster.clock
            start = clock.now
            self.crashed = group.crash_leader()
            group.elect()
            self.failover_sim_s = clock.now - start
        else:
            group.restart(self.crashed)
        return None

    def check(self, action: tuple, got: object) -> bool:
        kind = action[0]
        if kind == "read":
            return got == bytes(self.model[action[1]][action[2] : action[2] + action[3]])
        if kind == "append":
            self.model[action[1]].extend(action[2])
        elif kind == "create":
            self.model[action[1]] = bytearray()
        elif kind == "overwrite":
            self.model[action[1]][action[2] : action[2] + len(action[3])] = action[3]
        return got is None

    def _misses(self) -> int:
        return sum(self.client.read_file(path) != data for path, data in self.model.items())

    def _converged(self) -> bool:
        """Tick until every group's replicas (the restarted one too)
        report one state digest."""
        cluster = self.cluster
        step = cluster.groups[0].config.heartbeat_interval / 2
        for __ in range(CONVERGE_TICKS):
            if all(
                len(group.live_names()) == len(group.nodes)
                and len(set(group.state_digests().values())) == 1
                for group in cluster.groups
            ):
                return True
            for group in cluster.groups:
                group.tick()
            cluster.clock.charge(step)
        return False

    def verify(self) -> tuple[int, int]:
        failed = int(not self._converged())
        failed += self._misses()
        for server in self.cluster.servers.values():
            failed += fsck_violations(server.fs.engine)
        # Durability: every chunk server remounts from its own device
        # (journal replay + persisted image) and must still serve all.
        for server in self.cluster.servers.values():
            server.restart()
        failed += self._misses()
        return failed, 2 * len(self.model) + len(self.cluster.servers) + 1

    def ops_view(self, actions, wall, sim, results):
        keep = [not action[0].startswith("event_") for action in actions]
        return (
            [seconds for seconds, ok in zip(wall, keep) if ok],
            [seconds for seconds, ok in zip(sim, keep) if ok],
        )

    def sim_now(self) -> float:
        return self.cluster.clock.now

    def snapshots(self) -> list:
        return [self.cluster.metrics()]

    def extra_counters(self) -> dict[str, float]:
        groups = self.cluster.groups
        return {
            "raft.transport.messages": sum(g.transport.messages for g in groups),
            "raft.transport.bytes": sum(g.transport.bytes_sent for g in groups),
            "raft.log.entries": sum(
                max(g.nodes[name].log.last_index for name in g.live_names()) for g in groups
            ),
            "raft.device.bytes_written": sum(
                device.stats.snapshot().bytes_written
                for g in groups
                for device in g.devices.values()
            ),
        }

    def gauges(self) -> dict[str, float]:
        servers = self.cluster.servers.values()
        factors = [server.fs.engine.hashtable.load_factor() for server in servers]
        return {
            "hashtable.load_factor": sum(factors) / len(factors),
            "failover_sim_s": self.failover_sim_s,
        }

    def device_bytes_in_use(self) -> int:
        chunk_bytes = sum(
            server.fs.engine.device.allocated_blocks * server.fs.engine.device.block_size
            for server in self.cluster.servers.values()
        )
        raft_bytes = sum(
            device.allocated_blocks * device.block_size
            for group in self.cluster.groups
            for device in group.devices.values()
        )
        return chunk_bytes + raft_bytes

    def user_bytes_stored(self) -> int:
        return sum(len(data) for data in self.model.values())

    def user_bytes_written(self, action: tuple) -> int:
        if action[0] == "append":
            return len(action[2])
        return len(action[3]) if action[0] == "overwrite" else 0
