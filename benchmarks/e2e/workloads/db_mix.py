"""db_mix: the paper's Fig. 7/8 statement mix on three databases.

50 % read / 50 % write, uniform keys, 512 B payloads cut (aligned) from
a dataset-E-profile corpus so writes re-introduce redundant blocks.
MiniSQL, MiniLevelDB and MiniMongo run in turn, each on its own mount
of the production stack; statement counts are sized so each engine
takes about a third of the timed phase.  MiniColumn is excluded: its
point-write path is super-linear and belongs in ``scan_agg``.

Flush policy: ``engine.fsync()`` after every 32nd statement of an
engine, so the fsync path (metadata image + journal commit) is heavy
here by design.  Preloaded data (0.75-1.5 MiB of user bytes per
engine) exceeds the 256 KiB device cache.

Durability is checked by reopening each database on a fresh mount of
the same device — except MiniMongo, whose files are compared byte for
byte instead: ``repro.databases.common.read_frames`` skips alignment
padding up to the next non-zero byte, so a record whose CRC starts with
a zero byte is misparsed and any sizeable collection fails to reopen
(found while building this benchmark; a fix belongs in ``src/``).
"""

from __future__ import annotations

from repro.databases.minileveldb import MiniLevelDB
from repro.databases.minimongo import MiniMongo
from repro.databases.minisql import MiniSQL
from repro.fs.vfs import PassthroughFS
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.simclock import HDD_5400RPM

from .. import gen
from ..harness import WARMUP_SHARE, Mount, Workload

PAYLOAD = 512
FSYNC_EVERY = 32
#: engine -> (database class, preloaded keys, share of the timed statements)
ENGINES = {
    "minisql": (MiniSQL, 1500, 0.19),
    "minileveldb": (MiniLevelDB, 3000, 0.21),
    "minimongo": (MiniMongo, 3000, 0.60),
}


class _PlainMount:
    """PassthroughFS on the same device model: the paper's baseline."""

    engine = None

    def __init__(self) -> None:
        self.device = MemoryBlockDevice(
            block_size=Mount.BLOCK_SIZE,
            profile=HDD_5400RPM,
            cache_blocks=Mount.CACHE_BLOCKS,
        )
        self.fs = PassthroughFS(device=self.device)
        self.clock = self.device.clock

    def bytes_in_use(self) -> int:
        return self.device.allocated_blocks * self.device.block_size


class DbMix(Workload):
    name = "db_mix"
    flush_policy = f"engine.fsync() after every {FSYNC_EVERY}nd statement of each engine"
    actions_per_second = 4000

    def __init__(self, seed: int, timed_actions: int, passthrough: bool = False) -> None:
        super().__init__(seed, timed_actions)
        self.passthrough = passthrough
        rng = gen.rng_for(seed, "db_mix")
        corpus = gen.dataset_e(rng)

        def payload() -> str:
            return gen.aligned_slice(rng, corpus, PAYLOAD).decode("ascii")

        self.preload = {
            engine: [(key, payload()) for key in range(keys)]
            for engine, (__, keys, __) in ENGINES.items()
        }
        warm: list[tuple] = []
        timed: list[tuple] = []
        for engine, (__, keys, share) in ENGINES.items():
            count = max(FSYNC_EVERY, int(timed_actions * share))
            warm_count = max(1, int(count * WARMUP_SHARE))
            statements = []
            for index in range(warm_count + count):
                key = rng.randrange(keys)
                value = payload() if rng.random() < 0.5 else None
                sync = (index + 1) % FSYNC_EVERY == 0
                statements.append((engine, key, value, sync))
            warm.extend(statements[:warm_count])
            timed.extend(statements[warm_count:])
        self.actions = warm + timed
        self.warm = len(warm)
        self.input_sha256 = gen.sha256_of(self.preload, self.actions)
        self.sizes = {
            "preloaded_user_bytes_per_engine": {
                engine: sum(len(value) for __, value in rows)
                for engine, rows in self.preload.items()
            },
            "device_cache_bytes": Mount.CACHE_BLOCKS * Mount.BLOCK_SIZE,
        }
        self.model = {engine: dict(rows) for engine, rows in self.preload.items()}
        self.mounts: dict[str, object] = {}
        self.dbs: dict[str, object] = {}

    # -- phases --------------------------------------------------------------
    def setup(self) -> None:
        self.mounts = {}
        self.dbs = {}
        for engine, (database, __, __) in ENGINES.items():
            mount = _PlainMount() if self.passthrough else Mount()
            db = database(mount.fs)
            if engine == "minisql":
                db.bench_setup()
            for index, (key, value) in enumerate(self.preload[engine]):
                db.bench_write(str(key), value)
                if (index + 1) % FSYNC_EVERY == 0 and mount.engine is not None:
                    mount.engine.fsync()
            if mount.engine is not None:
                mount.engine.fsync()
            self.mounts[engine] = mount
            self.dbs[engine] = db

    def execute(self, action: tuple) -> object:
        engine, key, value, sync = action
        db = self.dbs[engine]
        if value is None:
            got = db.bench_read(str(key))
        else:
            got = db.bench_write(str(key), value)
        if sync and not self.passthrough:
            self.mounts[engine].engine.fsync()
        return got

    @staticmethod
    def _as_read(engine: str, key: int, value: str) -> object:
        """What ``bench_read`` returns for a stored value, per engine."""
        if engine == "minileveldb":
            return value.encode("utf-8")
        if engine == "minimongo":
            return {"_id": str(key), "body": value}
        return value

    def check(self, action: tuple, got: object) -> bool:
        engine, key, value, __ = action
        if value is None:
            return got == self._as_read(engine, key, self.model[engine][key])
        self.model[engine][key] = value
        return got is None

    def _misses(self, engine: str, db) -> int:
        return sum(
            db.bench_read(str(key)) != self._as_read(engine, key, value)
            for key, value in self.model[engine].items()
        )

    def finish(self) -> None:
        if not self.passthrough:
            for mount in self.mounts.values():
                mount.engine.fsync()

    def verify(self) -> tuple[int, int]:
        failed = attempted = 0
        for engine, (database, __, __) in ENGINES.items():
            mount = self.mounts[engine]
            keys = len(self.model[engine])
            failed += self._misses(engine, self.dbs[engine])
            failed += mount.fsck_violations()
            files = {path: mount.fs.read_file(path) for path in mount.fs.listdir("/")}
            remounted = mount.remount()
            failed += sum(remounted.read_file(path) != data for path, data in files.items())
            attempted += keys + 1 + len(files)
            if engine != "minimongo":
                failed += self._misses(engine, database(remounted))
                attempted += keys
        return failed, attempted

    # -- readings ------------------------------------------------------------
    def sim_now(self) -> float:
        return sum(mount.clock.now for mount in self.mounts.values())

    def snapshots(self) -> list:
        return [mount.device.obs.registry.snapshot() for mount in self.mounts.values()]

    def gauges(self) -> dict[str, float]:
        if self.passthrough:
            return {}
        factors = [m.engine.hashtable.load_factor() for m in self.mounts.values()]
        return {"hashtable.load_factor": sum(factors) / len(factors)}

    def device_bytes_in_use(self) -> int:
        return sum(mount.bytes_in_use() for mount in self.mounts.values())

    def user_bytes_stored(self) -> int:
        return sum(len(value) for rows in self.model.values() for value in rows.values())

    def user_bytes_written(self, action: tuple) -> int:
        return len(action[2]) if action[2] is not None else 0
