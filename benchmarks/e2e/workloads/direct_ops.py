"""direct_ops: the paper's Fig. 10 operations, pushed down.

``PushdownOperations(fs)`` on one 1 MiB dataset-D-profile file (4x the
device cache): extract 512 B / replace 20 B / append 60 B / insert 16 B
/ delete 16 B / search / count in the fixed ratio 40 : 15 : 15 : 10 :
10 : 1 : 1, at random unaligned offsets.  This is the paper's own
contribution — holes and O(d) updates — with no database and no
serving above it: the same core layer as ``db_mix``, entered through
unaligned edits instead of file writes.

Flush policy: ``engine.fsync()`` after every 64th manipulation
(replace, append, insert or delete).
"""

from __future__ import annotations

from repro.fs.posix_ops import PushdownOperations

from .. import gen
from ..harness import Mount, SingleMountWorkload

PATH = "/direct/corpus"
FSYNC_EVERY = 64
#: kind -> (count per cycle, payload bytes)
MIX = {
    "op_extract": (40, 512),
    "op_replace": (15, 20),
    "op_append": (15, 60),
    "op_insert": (10, 16),
    "op_delete": (10, 16),
    "op_search": (1, 0),
    "op_count": (1, 0),
}
MANIPULATIONS = ("op_replace", "op_append", "op_insert", "op_delete")


def _occurrences(data: bytearray, pattern: bytes) -> list[int]:
    found = []
    position = data.find(pattern)
    while position != -1:
        found.append(position)
        position = data.find(pattern, position + 1)
    return found


class DirectOps(SingleMountWorkload):
    name = "direct_ops"
    flush_policy = f"engine.fsync() after every {FSYNC_EVERY}th manipulation"
    actions_per_second = 720

    def __init__(self, seed: int, timed_actions: int) -> None:
        super().__init__(seed, timed_actions)
        rng = gen.rng_for(seed, "direct_ops")
        self.data = gen.dataset_d(rng)
        words = sorted({word for word in self.data.split() if word.isalpha()})
        letters = b"abcdefghijklmnopqrstuvwxyz "

        def text(nbytes: int) -> bytes:
            return bytes(rng.choices(letters, k=nbytes))

        cycle_kinds = [kind for kind, (count, __) in MIX.items() for __ in range(count)]
        total = self.warm + timed_actions
        size = len(self.data)
        manipulations = 0
        while len(self.actions) < total:
            cycle = list(cycle_kinds)
            rng.shuffle(cycle)
            for kind in cycle[: total - len(self.actions)]:
                nbytes = MIX[kind][1]
                sync = False
                if kind in MANIPULATIONS:
                    manipulations += 1
                    sync = manipulations % FSYNC_EVERY == 0
                if kind == "op_extract":
                    action = (kind, rng.randrange(size - nbytes), nbytes)
                elif kind == "op_replace":
                    action = (kind, rng.randrange(size - nbytes), text(nbytes), sync)
                elif kind == "op_append":
                    action = (kind, text(nbytes), sync)
                    size += nbytes
                elif kind == "op_insert":
                    action = (kind, rng.randrange(size), text(nbytes), sync)
                    size += nbytes
                elif kind == "op_delete":
                    action = (kind, rng.randrange(size - nbytes), nbytes, sync)
                    size -= nbytes
                else:
                    action = (kind, rng.choice(words) + b" " + rng.choice(words))
                self.actions.append(action)
        self.input_sha256 = gen.sha256_of(self.data, self.actions)
        self.sizes = {
            "file_bytes": len(self.data),
            "device_cache_bytes": Mount.CACHE_BLOCKS * Mount.BLOCK_SIZE,
        }
        self.model = bytearray(self.data)

    def setup(self) -> None:
        self.mount = Mount()
        self.mount.fs.write_file(PATH, self.data)
        self.mount.engine.fsync()
        self.ops = PushdownOperations(self.mount.fs)

    def execute(self, action: tuple) -> object:
        kind = action[0]
        ops = self.ops
        if kind == "op_extract":
            return ops.extract(PATH, action[1], action[2])
        if kind == "op_search":
            return ops.search(PATH, action[1])
        if kind == "op_count":
            return ops.count(PATH, action[1])
        if kind == "op_replace":
            ops.replace(PATH, action[1], action[2])
        elif kind == "op_append":
            ops.append(PATH, action[1])
        elif kind == "op_insert":
            ops.insert(PATH, action[1], action[2])
        else:
            ops.delete(PATH, action[1], action[2])
        if action[-1]:
            self.mount.engine.fsync()
        return None

    def check(self, action: tuple, got: object) -> bool:
        kind = action[0]
        model = self.model
        if kind == "op_extract":
            return got == bytes(model[action[1] : action[1] + action[2]])
        if kind == "op_search":
            return got == _occurrences(model, action[1])
        if kind == "op_count":
            return got == len(_occurrences(model, action[1]))
        if kind == "op_replace":
            model[action[1] : action[1] + len(action[2])] = action[2]
        elif kind == "op_append":
            model.extend(action[1])
        elif kind == "op_insert":
            model[action[1] : action[1]] = action[2]
        else:
            del model[action[1] : action[1] + action[2]]
        return got is None

    def finish(self) -> None:
        self.mount.engine.fsync()

    def verify(self) -> tuple[int, int]:
        failed = int(self.mount.fs.read_file(PATH) != self.model)
        failed += self.mount.fsck_violations()
        failed += int(self.mount.remount().read_file(PATH) != self.model)
        return failed, 3

    def user_bytes_stored(self) -> int:
        return len(self.model)

    def user_bytes_written(self, action: tuple) -> int:
        kind = action[0]
        if kind in ("op_replace", "op_insert"):
            return len(action[2])
        return len(action[1]) if kind == "op_append" else 0
