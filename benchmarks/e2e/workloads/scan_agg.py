"""scan_agg: MiniColumn range scans, full scans and batch appends.

A 24k-row table clustered on ``ts`` (encodings on, vectorized on),
bulk-loaded with ``insert_rows`` and one fsync.  It occupies about
1.6 MiB on the device, 6x the 256 KiB cache: ``ts`` and ``grp`` encode
to almost nothing, so the weight is in two random 60-bit INT columns
(the ones the queries aggregate; 384 KiB, more than the cache on their
own) and a random TEXT column.

Timed statements, ``CYCLE`` of each per cycle, shuffled:

* ``col_narrow`` — range-scan ``GROUP BY`` over 1/64 of the table at a
  random position (zone maps prune all but one or two blocks);
* ``col_wide`` — full-table scan + ``GROUP BY`` (reads more column data
  than the cache holds);
* ``col_append`` — ``insert_rows`` of 256 rows, then one fsync.

Flush policy: none in the timed phase except one fsync per append
batch, so the write path and fsync are almost idle here.
"""

from __future__ import annotations

from repro.databases.minicolumn import MiniColumn

from .. import gen
from ..harness import Mount, SingleMountWorkload

ROWS = 24 * 1024
APPEND_ROWS = 256
GROUPS = 16
#: Statements per cycle: narrow, wide, append.  Issue 12 asked for
#: 15 : 1 : 1 on 64k rows; a full scan costs ~27 narrow scans of wall
#: time on this box, so that mix cannot reach 1 000 statements in a
#: phase of a few seconds.  The table was shrunk and the mix stretched.
CYCLE = (40, 1, 1)
COLUMNS = "ts INT, grp INT, val INT, fee INT, note TEXT"
NOTE_BYTES = 32
#: User bytes of one row: four 8-byte integers and the note.
ROW_BYTES = 4 * 8 + NOTE_BYTES

WIDE_SQL = (
    "SELECT grp, sum(val) s, count(*) c, max(fee) m FROM t GROUP BY grp ORDER BY grp"
)
ALL_COLUMNS = ["ts", "grp", "val", "fee", "note"]


def _narrow_sql(low: int, high: int) -> str:
    return (
        "SELECT grp, sum(val) s, count(*) c, max(fee) m FROM t "
        f"WHERE ts >= {low} AND ts < {high} GROUP BY grp ORDER BY grp"
    )


def _aggregate(rows: list[dict]) -> list[dict]:
    groups: dict[int, list[int]] = {}
    for row in rows:
        entry = groups.setdefault(row["grp"], [0, 0, row["fee"]])
        entry[0] += row["val"]
        entry[1] += 1
        entry[2] = max(entry[2], row["fee"])
    return [
        {"grp": grp, "s": total, "c": count, "m": top}
        for grp, (total, count, top) in sorted(groups.items())
    ]


class ScanAgg(SingleMountWorkload):
    name = "scan_agg"
    flush_policy = "no fsync in the timed phase except one engine.fsync() per append batch"
    actions_per_second = 336

    def __init__(self, seed: int, timed_actions: int) -> None:
        super().__init__(seed, timed_actions)
        rng = gen.rng_for(seed, "scan_agg")
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

        def row(ts: int) -> dict:
            return {
                "ts": ts,
                "grp": rng.randrange(GROUPS),
                "val": rng.randrange(1 << 60),
                "fee": rng.randrange(1 << 60),
                "note": "".join(rng.choices(alphabet, k=NOTE_BYTES)),
            }

        self.rows = [row(ts) for ts in range(ROWS)]
        kinds = ["col_narrow"] * CYCLE[0] + ["col_wide"] * CYCLE[1] + ["col_append"] * CYCLE[2]
        total = self.warm + timed_actions
        span = ROWS // 64
        next_ts = ROWS
        while len(self.actions) < total:
            cycle = list(kinds)
            rng.shuffle(cycle)
            for kind in cycle[: total - len(self.actions)]:
                if kind == "col_narrow":
                    low = rng.randrange(ROWS - span)
                    self.actions.append((kind, _narrow_sql(low, low + span), low, low + span))
                elif kind == "col_wide":
                    self.actions.append((kind, WIDE_SQL))
                else:
                    batch = [row(next_ts + i) for i in range(APPEND_ROWS)]
                    next_ts += APPEND_ROWS
                    self.actions.append((kind, batch))
        self.input_sha256 = gen.sha256_of(self.rows, self.actions)
        self.sizes = {
            "preloaded_rows": ROWS,
            "preloaded_user_bytes": ROWS * ROW_BYTES,
            "device_cache_bytes": Mount.CACHE_BLOCKS * Mount.BLOCK_SIZE,
        }
        self.model = list(self.rows)

    def setup(self) -> None:
        self.mount = Mount()
        self.db = MiniColumn(self.mount.fs, encodings=True, vectorized=True)
        self.db.execute(f"CREATE TABLE t ({COLUMNS})")
        self.db.table("t").insert_rows(self.rows)
        self.mount.engine.fsync()
        self.sizes["device_bytes_after_load"] = self.mount.bytes_in_use()

    def execute(self, action: tuple) -> object:
        if action[0] == "col_append":
            self.db.table("t").insert_rows(action[1])
            self.mount.engine.fsync()
            return None
        return self.db.execute(action[1])

    def check(self, action: tuple, got: object) -> bool:
        kind = action[0]
        if kind == "col_append":
            self.model.extend(action[1])
            return got is None
        if kind == "col_narrow":
            # ts is the row's position: the table is clustered on it.
            return got == _aggregate(self.model[action[2] : action[3]])
        return got == _aggregate(self.model)

    def _misses(self, db: MiniColumn) -> int:
        stored = list(db.table("t").scan(columns=ALL_COLUMNS))
        if len(stored) != len(self.model):
            return abs(len(stored) - len(self.model)) or 1
        return sum(a != b for a, b in zip(stored, self.model))

    def finish(self) -> None:
        self.mount.engine.fsync()

    def verify(self) -> tuple[int, int]:
        failed = self._misses(self.db)
        failed += self.mount.fsck_violations()
        remounted = MiniColumn(self.mount.remount(), encodings=True, vectorized=True)
        failed += self._misses(remounted)
        return failed, 2 * len(self.model) + 1

    def user_bytes_stored(self) -> int:
        return len(self.model) * ROW_BYTES

    def user_bytes_written(self, action: tuple) -> int:
        return APPEND_ROWS * ROW_BYTES if action[0] == "col_append" else 0
