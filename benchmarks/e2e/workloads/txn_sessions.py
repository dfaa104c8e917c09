"""txn_sessions: contended MVCC transactions over the wire.

8 session slots, each its own connection (``repro.api.connect``) of one
tenant, interleaved by the driver with a seeded slot choice.  A
transaction is 4 read-modify-write steps on 64 account files (20 % of
the picks go to 4 hot files) and a commit.  ``WriteConflict`` ends the
transaction; the driver does not retry.  Contention is what is
measured, so clients are deliberately not << rows.

One action is one step or one commit.  One **op** is one *committed*
transaction whose every step ran inside the timed phase; its latency is
the sum of its own steps (service time — other slots' steps interleave
between them).  Aborted transactions cost time and yield no op, so
``wall_ops_per_s`` is goodput.

Flush policy: the MVCC layer's own group commit (one journal commit per
8 committed sessions); the driver issues no fsync in the timed phase.
"""

from __future__ import annotations

import repro.api
from repro.fs.fd import O_RDONLY
from repro.mvcc.session import WriteConflict

from .. import gen
from ..harness import Mount, SingleMountWorkload, wire_server

TENANT = "bank"
SLOTS = 8
ACCOUNTS = 64
HOT_ACCOUNTS = 4
HOT_SHARE = 0.2
STEPS = 4
RECORD = 64
OPENING_BALANCE = 1000


def _path(account: int) -> str:
    return f"/acct/{account:03d}"


def _record(balance: int) -> bytes:
    return (b"%020d" % balance).ljust(RECORD)


class TxnSessions(SingleMountWorkload):
    name = "txn_sessions"
    flush_policy = "the MVCC layer's own group commit; no driver fsync in the timed phase"
    actions_per_second = 6400

    def __init__(self, seed: int, timed_actions: int) -> None:
        super().__init__(seed, timed_actions)
        rng = gen.rng_for(seed, "txn_sessions")
        progress = [0] * SLOTS
        for __ in range(self.warm + timed_actions):
            slot = rng.randrange(SLOTS)
            step = progress[slot]
            if step < STEPS:
                if rng.random() < HOT_SHARE:
                    account = rng.randrange(HOT_ACCOUNTS)
                else:
                    account = rng.randrange(HOT_ACCOUNTS, ACCOUNTS)
                self.actions.append(("rmw", slot, step, account, rng.randrange(1, 100)))
                progress[slot] = step + 1
            else:
                self.actions.append(("commit", slot))
                progress[slot] = 0
        self.input_sha256 = gen.sha256_of(self.actions)
        self.sizes = {
            "slots": SLOTS,
            "accounts": ACCOUNTS,
            "hot_accounts": HOT_ACCOUNTS,
            "user_bytes": ACCOUNTS * RECORD,
        }
        # Model: the committed balances, each open slot's snapshot and
        # private writes, and the increments every commit promised.
        self.committed = [OPENING_BALANCE] * ACCOUNTS
        self.increments = [0] * ACCOUNTS
        self.snapshot: list = [None] * SLOTS
        self.overlay: list[dict[int, int]] = [{} for __ in range(SLOTS)]

    def setup(self) -> None:
        self.mount = Mount()
        self.server = wire_server(self.mount.fs, (TENANT,))
        self.clients = [repro.api.connect(self.server, tenant=TENANT) for __ in range(SLOTS)]
        self.scopes: list = [None] * SLOTS
        teller = self.clients[0].fs
        for account in range(ACCOUNTS):
            teller.write_file(_path(account), _record(OPENING_BALANCE))
        teller.fsync(teller.open(_path(0), O_RDONLY))

    def execute(self, action: tuple) -> object:
        slot = action[1]
        scope = self.scopes[slot]
        if action[0] == "rmw":
            if scope is None:
                scope = self.scopes[slot] = self.clients[slot].session()
            path = _path(action[3])
            balance = int(scope.fs.read_file(path)[:20])
            scope.fs.write_file(path, _record(balance + action[4]))
            return balance
        self.scopes[slot] = None
        try:
            scope.commit()
        except WriteConflict:
            return "conflict"
        return "committed"

    def check(self, action: tuple, got: object) -> bool:
        slot = action[1]
        if action[0] == "rmw":
            if self.snapshot[slot] is None:
                self.snapshot[slot] = list(self.committed)
                self.overlay[slot] = {}
            account, delta = action[3], action[4]
            expected = self.overlay[slot].get(account, self.snapshot[slot][account])
            self.overlay[slot][account] = expected + delta
            return got == expected
        snapshot, overlay = self.snapshot[slot], self.overlay[slot]
        self.snapshot[slot] = None
        if got == "committed":
            for account, balance in overlay.items():
                self.increments[account] += balance - snapshot[account]
                self.committed[account] = balance
            return True
        return got == "conflict"  # an expected abort, not a failure

    def _misses(self, fs) -> int:
        """Balances must equal both the model's committed state and the
        opening balance plus every committed increment (no lost update)."""
        misses = 0
        for account in range(ACCOUNTS):
            balance = int(fs.read_file(_path(account))[:20])
            promised = OPENING_BALANCE + self.increments[account]
            misses += balance != self.committed[account] or balance != promised
        return misses

    def finish(self) -> None:
        for scope in self.scopes:
            if scope is not None:
                scope.abort()  # transactions still open when the run ends
        self.mount.engine.mvcc.flush_group()
        self.mount.engine.fsync()

    def verify(self) -> tuple[int, int]:
        failed = self._misses(self.clients[0].fs)
        failed += self.mount.fsck_violations()
        remounted = repro.api.connect(
            wire_server(self.mount.remount(), (TENANT,)), tenant=TENANT
        )
        failed += self._misses(remounted.fs)
        return failed, 2 * ACCOUNTS + 1

    def ops_view(self, actions, wall, sim, results):
        op_wall: list[float] = []
        op_sim: list[float] = []
        spent: list = [None] * SLOTS  # [wall, sim] of a fully timed txn
        for action, seconds, sim_seconds, got in zip(actions, wall, sim, results):
            slot = action[1]
            if action[0] == "rmw" and action[2] == 0:
                spent[slot] = [0.0, 0.0]
            if spent[slot] is None:
                continue  # the transaction began during warm-up
            spent[slot][0] += seconds
            spent[slot][1] += sim_seconds
            if action[0] == "commit":
                if got == "committed":
                    op_wall.append(spent[slot][0])
                    op_sim.append(spent[slot][1])
                spent[slot] = None
        return op_wall, op_sim

    def user_bytes_stored(self) -> int:
        return ACCOUNTS * RECORD

    def user_bytes_written(self, action: tuple) -> int:
        return RECORD if action[0] == "rmw" else 0
