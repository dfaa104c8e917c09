"""kv_serving: YCSB-A-shaped traffic through the wire server.

50 % get / 45 % put / 5 % scan-10 on zipfian keys, 256 B values cut
(aligned) from a shared corpus, from 4 tenants of 4 000 keys each,
rotated round-robin.  Every request goes ``repro.api.connect(server,
tenant=…)`` -> ``WireClient`` -> ``LoopbackTransport`` ->
``Server.serve_frame`` (bytes in, bytes out) with admission on at a
rate that never sheds.  A socket thread pair is deliberately not used:
on 2 cores it measures the scheduler more than the server (issue 12
saw 7-13k ops/s run to run against a steady rate through the loopback).

Flush policy: one ``fsync`` request per tenant per 256 of its requests.
The zipfian hot set fits the 64 KiB memtable and the 256 KiB device
cache; the full key space (about 1 MiB of values per tenant) does not.
Compared with the in-process minileveldb row of ``db_mix`` this
workload prices the serving stack.
"""

from __future__ import annotations

import repro.api
from repro.fs.fd import O_RDONLY

from .. import gen
from ..harness import Mount, SingleMountWorkload, wire_server

TENANTS = ("t0", "t1", "t2", "t3")
KEYS = 4000
VALUE = 256
SCAN = 10
FSYNC_EVERY = 256
WAL = "/kv/wal.log"


def _key(index: int) -> bytes:
    return b"user%08d" % index


class KvServing(SingleMountWorkload):
    name = "kv_serving"
    flush_policy = f"one fsync request per tenant per {FSYNC_EVERY} of its requests"
    actions_per_second = 8600

    def __init__(self, seed: int, timed_actions: int) -> None:
        super().__init__(seed, timed_actions)
        rng = gen.rng_for(seed, "kv_serving")
        corpus = gen.dataset_e(rng)
        zipf = gen.Zipfian(rng, KEYS)

        def value() -> bytes:
            return gen.aligned_slice(rng, corpus, VALUE)

        self.preload = {
            tenant: [(_key(index), value()) for index in range(KEYS)] for tenant in TENANTS
        }
        for index in range(self.warm + timed_actions):
            tenant = index % len(TENANTS)
            sync = (index // len(TENANTS) + 1) % FSYNC_EVERY == 0
            draw = rng.random()
            if draw < 0.50:
                action = ("get", tenant, _key(zipf.next()), sync)
            elif draw < 0.95:
                action = ("put", tenant, _key(zipf.next()), value(), sync)
            else:
                start = min(zipf.next(), KEYS - SCAN)
                action = ("scan", tenant, _key(start), _key(start + SCAN), sync)
            self.actions.append(action)
        self.input_sha256 = gen.sha256_of(self.preload, self.actions)
        self.sizes = {
            "tenants": len(TENANTS),
            "keys_per_tenant": KEYS,
            "value_bytes_per_tenant": KEYS * VALUE,
            "memtable_bytes": 64 * 1024,
            "device_cache_bytes": Mount.CACHE_BLOCKS * Mount.BLOCK_SIZE,
        }
        self.model = [dict(self.preload[tenant]) for tenant in TENANTS]

    def _connect(self, server) -> list:
        return [repro.api.connect(server, tenant=tenant) for tenant in TENANTS]

    def setup(self) -> None:
        self.mount = Mount()
        self.server = wire_server(self.mount.fs, TENANTS)
        self.clients = self._connect(self.server)
        self.sync_fds = []
        for client, tenant in zip(self.clients, TENANTS):
            for key, value in self.preload[tenant]:
                client.kv.put(key, value)
            fd = client.fs.open(WAL, O_RDONLY)
            client.fs.fsync(fd)
            self.sync_fds.append(fd)

    def execute(self, action: tuple) -> object:
        kind, tenant = action[0], action[1]
        client = self.clients[tenant]
        if kind == "get":
            got = client.kv.get(action[2])
        elif kind == "put":
            got = client.kv.put(action[2], action[3])
        else:
            got = list(client.kv.scan(action[2], action[3]))
        if action[-1]:
            client.fs.fsync(self.sync_fds[tenant])
        return got

    def check(self, action: tuple, got: object) -> bool:
        kind = action[0]
        table = self.model[action[1]]
        if kind == "get":
            return got == table.get(action[2])
        if kind == "put":
            table[action[2]] = action[3]
            return got is None
        low, high = action[2], action[3]
        return got == sorted((k, v) for k, v in table.items() if low <= k < high)

    def _misses(self, clients: list) -> int:
        """One full scan per tenant against the whole model."""
        misses = 0
        for client, table in zip(clients, self.model):
            stored = list(client.kv.scan())
            expected = sorted(table.items())
            misses += abs(len(stored) - len(expected))
            misses += sum(a != b for a, b in zip(stored, expected))
        return misses

    def finish(self) -> None:
        for client, fd in zip(self.clients, self.sync_fds):
            client.fs.fsync(fd)

    def verify(self) -> tuple[int, int]:
        failed = self._misses(self.clients)
        failed += sum(row["shed"] + row["errors"] for row in self.server.report())
        failed += self.mount.fsck_violations()
        failed += self._misses(self._connect(wire_server(self.mount.remount(), TENANTS)))
        return failed, 2 * len(TENANTS) * KEYS + 2

    def user_bytes_stored(self) -> int:
        return sum(len(k) + len(v) for table in self.model for k, v in table.items())

    def user_bytes_written(self, action: tuple) -> int:
        return len(action[2]) + len(action[3]) if action[0] == "put" else 0
