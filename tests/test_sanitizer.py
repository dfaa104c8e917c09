"""Runtime lock-order sanitizer and its agreement with the static graph.

The acceptance bar of the interprocedural arc: the lock-order graph
CONC002 derives statically must agree with what the sanitizer observes
on the multi-session interleaving smoke workload, and a deliberately
injected inversion must be caught by both sides.
"""

from __future__ import annotations

import inspect

import pytest

from repro.locks import (
    LockContractError,
    LockOrderSanitizer,
    LockOrderViolation,
    TrackedLock,
    check_agreement,
    current_sanitizer,
    install_sanitizer,
    uninstall_sanitizer,
)
from repro.distributed import run_interleaved_sessions
from repro.distributed.cluster import build_replicated_cluster
from repro.distributed.master import METADATA_PLANE, Master


@pytest.fixture(autouse=True)
def _no_ambient_sanitizer():
    """Neutralize a REPRO_SANITIZE-installed sanitizer: these tests
    manage installation explicitly, and restore the ambient one after."""
    ambient = current_sanitizer()
    uninstall_sanitizer()
    yield
    if ambient is not None:
        install_sanitizer(ambient)
    else:
        uninstall_sanitizer()


@pytest.fixture
def sanitizer():
    san = install_sanitizer(LockOrderSanitizer(raise_on_violation=False))
    yield san
    uninstall_sanitizer()


@pytest.fixture
def strict_sanitizer():
    san = install_sanitizer(LockOrderSanitizer())
    yield san
    uninstall_sanitizer()


class TestTrackedLock:
    def test_uninstalled_lock_is_a_plain_mutex(self):
        assert current_sanitizer() is None
        lock = TrackedLock("master.lock")
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_rank_inferred_from_order_key(self):
        assert TrackedLock("master.lock").rank == 0
        assert TrackedLock("chunkserver.node0.lock").rank == 1
        assert TrackedLock("client.session.lock").rank == 2
        assert TrackedLock("journal.commit.lock").rank is None

    def test_one_tier_table_serves_runtime_and_linter(self):
        from repro.analysis import rules_locks
        from repro.locks import LOCK_TIERS, rank_of

        assert rules_locks.rank_of is rank_of
        # First keyword wins: serving-layer names also contain "serv".
        assert rank_of("serving.state") == LOCK_TIERS["serving"] < LOCK_TIERS["master"]
        assert rank_of("repro.distributed.chunkserver.ChunkServer._lock") == LOCK_TIERS["chunk"]
        assert list(LOCK_TIERS.values()) == sorted(LOCK_TIERS.values())

    def test_require_held_is_noop_without_sanitizer(self):
        TrackedLock("master.lock").require_held()  # must not raise

    def test_require_held_enforced_under_sanitizer(self, strict_sanitizer):
        lock = TrackedLock("master.lock")
        with pytest.raises(LockContractError):
            lock.require_held()
        with lock:
            lock.require_held()  # held: passes

    def test_every_metadata_command_requires_the_master_lock(self, strict_sanitizer):
        master = Master(["n0"])
        commands = [name for name, (op, __) in METADATA_PLANE.items() if op]
        assert commands
        for name in commands:
            arity = len(inspect.signature(getattr(master, name)).parameters)
            with pytest.raises(LockContractError):
                getattr(master, name)(*["x"] * arity)

    def test_every_client_composite_takes_the_master_lock(self, strict_sanitizer):
        # The client-side half: each public mutating composite of
        # ClusterClient acquires the lock those commands require.  The
        # linter cannot see a dropped ``with self.master.lock:`` here
        # (the guard lives in the callee), so the run-time contract is
        # the only check.
        cluster = build_replicated_cluster(nodes=3, masters=1, chunk_capacity=1024)
        client = cluster.client
        client.create("/a")
        client.write("/a", 0, b"hello world")
        client.append("/a", b"!")
        client.write_file("/b", b"0123456789" * 400)
        client.insert("/b", 3, b"abc")
        client.delete("/b", 0, 2)
        client.replace("/b", 1, b"XY")
        client.snapshot("s1")
        with cluster.master.lock:
            cluster.master.remove_server("node2")
        assert client.rebalance()[0] > 0  # a move commits a placement
        client.unlink("/a")
        assert client.read_file("/b")[:12] == b"2XYc34567890"

    def test_require_held_distinguishes_sessions(self, strict_sanitizer):
        lock = TrackedLock("master.lock")
        with strict_sanitizer.session("a"):
            lock.__enter__()
        try:
            with strict_sanitizer.session("b"):
                with pytest.raises(LockContractError):
                    lock.require_held()
            with strict_sanitizer.session("a"):
                lock.require_held()
        finally:
            with strict_sanitizer.session("a"):
                lock.__exit__(None, None, None)


class TestViolations:
    def test_tier_inversion_detected(self, sanitizer):
        outer = TrackedLock("client.lock")
        inner = TrackedLock("master.lock")
        with sanitizer.session("s"):
            with outer:
                with inner:
                    pass
        assert any("inversion" in v for v in sanitizer.violations)

    def test_declared_order_is_silent(self, sanitizer):
        with sanitizer.session("s"):
            with TrackedLock("master.lock"):
                with TrackedLock("chunkserver.node0.lock"):
                    with TrackedLock("journal.commit.lock"):
                        pass
        assert sanitizer.violations == []

    def test_reacquisition_detected(self, sanitizer):
        lock = TrackedLock("journal.commit.lock")
        with sanitizer.session("s"):
            sanitizer.note_acquire(lock)
            sanitizer.note_acquire(lock)
        assert any("self-deadlock" in v for v in sanitizer.violations)

    def test_static_edge_reversal_detected(self):
        san = install_sanitizer(
            LockOrderSanitizer(
                static_edges={("alpha.lock", "beta.lock")},
                raise_on_violation=False,
            )
        )
        try:
            with san.session("s"):
                with TrackedLock("beta.lock"):
                    with TrackedLock("alpha.lock"):
                        pass
        finally:
            uninstall_sanitizer()
        assert any("reverses" in v for v in san.violations)

    def test_sessions_have_independent_stacks(self, sanitizer):
        master = TrackedLock("master.lock")
        client = TrackedLock("client.lock")
        with sanitizer.session("a"):
            sanitizer.note_acquire(client)
        # Same thread, different logical session: no inversion.
        with sanitizer.session("b"):
            sanitizer.note_acquire(master)
        assert sanitizer.violations == []

    def test_raise_on_violation(self, strict_sanitizer):
        with strict_sanitizer.session("s"):
            with TrackedLock("client.lock"):
                with pytest.raises(LockOrderViolation):
                    TrackedLock("master.lock").__enter__()


class TestCheckAgreement:
    def test_agreeing_graphs_are_silent(self):
        static = {("repro.distributed.master.Master.lock",
                   "repro.distributed.chunkserver.ChunkServer._lock")}
        observed = {("master.lock", "chunkserver.node0.lock")}
        assert check_agreement(static, observed) == []

    def test_reversed_observation_is_a_problem(self):
        static = {("repro.distributed.master.Master.lock",
                   "repro.distributed.chunkserver.ChunkServer._lock")}
        observed = {("chunkserver.node0.lock", "master.lock")}
        problems = check_agreement(static, observed)
        assert problems, "chunk -> master reverses the static master -> chunk"

    def test_observed_tier_inversion_is_a_problem(self):
        problems = check_agreement(set(), {("client.inject.lock", "master.lock")})
        assert any("tier order" in p for p in problems)


class TestInterleavedSmoke:
    """The acceptance cross-check: static and observed graphs agree."""

    @pytest.fixture
    def static(self, shipped_tree):
        program, __ = shipped_tree
        return {
            (edge.outer, edge.inner)
            for edge in program.summaries.lock_order_edges()
        }

    def test_smoke_clean_and_graphs_agree(self, sanitizer, static):
        sanitizer.static_edges = frozenset(static)
        run_interleaved_sessions(
            sessions=3,
            rounds=2,
            sanitizer=sanitizer,
            cluster=build_replicated_cluster(nodes=2, masters=1, durable=True),
        )
        assert sanitizer.violations == []
        observed = sanitizer.observed_edges()
        # The protocol's signature edges must actually be exercised.
        assert ("master.lock", "chunkserver.node0.lock") in observed
        assert ("chunkserver.node0.lock", "journal.commit.lock") in observed
        # Static side must predict master -> chunkserver too.
        static_pairs = {
            ("master" in outer.lower(), "chunk" in inner.lower())
            for outer, inner in static
        }
        assert (True, True) in static_pairs
        assert check_agreement(static, observed) == []

    def test_injected_inversion_caught_at_runtime(self, sanitizer, static):
        run_interleaved_sessions(
            sessions=2,
            rounds=1,
            sanitizer=sanitizer,
            inject_inversion=True,
        )
        assert any("inversion" in v for v in sanitizer.violations)
        problems = check_agreement(static, sanitizer.observed_edges())
        assert any("tier order" in p for p in problems)

    def test_smoke_runs_without_sanitizer(self):
        cluster = run_interleaved_sessions(sessions=2, rounds=1)
        assert cluster.master.list_files() == []  # every script unlinks
