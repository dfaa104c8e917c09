"""Tests for reprolint, the engine's AST-based invariant analyzer.

Each rule gets a positive fixture (the violation is found), a negative
fixture (idiomatic code passes), and a suppression fixture.  On top of
that: suppression hygiene (SUP001), stable JSON output, the CLI
``lint`` subcommand, and — the point of the exercise — the shipped
source tree linting clean.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (
    Analyzer,
    CHECKER_REGISTRY,
    default_target,
    run_paths,
)
from repro.analysis.framework import module_name_for
from repro.cli import main
from repro.core.compressor import COMPRESSOR_FIELDS
from repro.core.engine import CompressDB
from repro.core.operations import OPERATION_FIELDS
from repro.obs.metrics import CounterGroup, MetricsRegistry
from repro.storage.inode import Inode
from repro.storage.stats import IOStats


def lint(source: str, path: str, rules=None):
    """Run the analyzer over one synthetic file."""
    return Analyzer(rules=rules).run_source(textwrap.dedent(source), path)


def active(findings):
    return [f for f in findings if not f.suppressed]


def rule_ids(findings):
    return sorted({f.rule_id for f in active(findings)})


# ---------------------------------------------------------------------------
# RC001 — refcount pairing
# ---------------------------------------------------------------------------

class TestRefcountRule:
    PATH = "src/repro/core/fixture.py"

    def test_raise_between_incref_and_discharge(self):
        findings = lint(
            """
            def leak(refcount, device, block):
                refcount.incref(block)
                device.write_block(block, b"x")
                return None
            """,
            self.PATH,
            rules=["RC001"],
        )
        assert rule_ids(findings) == ["RC001"]
        assert "leak" in active(findings)[0].message

    def test_transfer_discharges_obligation(self):
        findings = lint(
            """
            def balanced(refcount, inode, block):
                refcount.incref(block)
                inode.append_slot(Slot(block_no=block, used=1))
            """,
            self.PATH,
            rules=["RC001"],
        )
        assert findings == []

    def test_try_finally_decref_is_balanced(self):
        findings = lint(
            """
            def guarded(refcount, device, block):
                refcount.incref(block)
                try:
                    device.write_block(block, b"x")
                finally:
                    refcount.decref(block)
            """,
            self.PATH,
            rules=["RC001"],
        )
        assert findings == []

    def test_loop_carried_obligations_flagged(self):
        findings = lint(
            """
            def clone_all(refcount, source, clone):
                for slot in source.iter_slots():
                    refcount.incref(slot.block_no)
                    clone.append_slot(Slot(block_no=slot.block_no, used=slot.used))
                publish(clone)
            """,
            self.PATH,
            rules=["RC001"],
        )
        assert len(active(findings)) == 1
        assert "loop" in active(findings)[0].message

    def test_loop_with_decref_rollback_passes(self):
        findings = lint(
            """
            def clone_safe(refcount, source, clone):
                added = []
                try:
                    for slot in source.iter_slots():
                        refcount.incref(slot.block_no)
                        added.append(slot.block_no)
                        clone.append_slot(Slot(block_no=slot.block_no, used=slot.used))
                except Exception:
                    for block_no in added:
                        refcount.decref(block_no)
                    raise
            """,
            self.PATH,
            rules=["RC001"],
        )
        assert findings == []

    def test_rule_scoped_to_core_and_fs(self):
        findings = lint(
            """
            def leak(refcount, device, block):
                refcount.incref(block)
                device.write_block(block, b"x")
                return None
            """,
            "src/repro/workloads/fixture.py",
            rules=["RC001"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# IO001 — batched block I/O
# ---------------------------------------------------------------------------

class TestBatchedIORule:
    PATH = "src/repro/core/iofixture.py"

    def test_per_block_read_in_loop_flagged(self):
        findings = lint(
            """
            def gather(device, block_nos):
                out = []
                for no in block_nos:
                    out.append(device.read_block(no))
                return out
            """,
            self.PATH,
            rules=["IO001"],
        )
        assert len(active(findings)) == 1
        assert "read_blocks" in active(findings)[0].message

    def test_comprehension_counts_as_loop(self):
        findings = lint(
            """
            def gather(device, block_nos):
                return [device.read_block(no) for no in block_nos]
            """,
            self.PATH,
            rules=["IO001"],
        )
        assert len(active(findings)) == 1

    def test_batched_call_passes(self):
        findings = lint(
            """
            def gather(device, block_nos):
                return device.read_blocks(block_nos)
            """,
            self.PATH,
            rules=["IO001"],
        )
        assert findings == []

    def test_bare_function_with_same_name_not_claimed(self):
        findings = lint(
            """
            def generate(count):
                return [write_block() for __ in range(count)]
            """,
            self.PATH,
            rules=["IO001"],
        )
        assert findings == []

    def test_storage_layer_exempt(self):
        findings = lint(
            """
            def flush(self):
                for no, payload in self._dirty.items():
                    self.backend.write_block(no, payload)
            """,
            "src/repro/storage/device_fixture.py",
            rules=["IO001"],
        )
        assert findings == []

    def test_suppression_with_justification(self):
        findings = lint(
            """
            def chase(device, head):
                while head != -1:
                    raw = device.read_block(head)  # reprolint: disable=IO001 -- pointer chase, reads are dependent
                    head = next_of(raw)
            """,
            self.PATH,
            rules=["IO001", "SUP001"],
        )
        assert active(findings) == []
        suppressed = [f for f in findings if f.suppressed]
        assert len(suppressed) == 1
        assert "pointer chase" in suppressed[0].justification


# ---------------------------------------------------------------------------
# LAYER001 — layer cake and boundary exceptions
# ---------------------------------------------------------------------------

class TestLayeringRule:
    def test_database_touching_block_device_flagged(self):
        findings = lint(
            """
            from repro.storage.block_device import MemoryBlockDevice
            """,
            "src/repro/databases/fixture.py",
            rules=["LAYER001"],
        )
        assert len(active(findings)) == 1
        assert "only use the VFS" in active(findings)[0].message

    def test_database_using_public_surface_passes(self):
        findings = lint(
            """
            from repro.fs.compressfs import CompressFS
            from repro.fs.vfs import PassthroughFS
            from repro.storage.simclock import SimClock
            """,
            "src/repro/databases/fixture.py",
            rules=["LAYER001"],
        )
        assert findings == []

    def test_lower_layer_importing_higher_flagged(self):
        findings = lint(
            """
            from repro.fs.vfs import PassthroughFS
            """,
            "src/repro/storage/fixture.py",
            rules=["LAYER001"],
        )
        assert len(active(findings)) == 1
        assert "lower layers" in active(findings)[0].message

    def test_runtime_importing_its_linter_flagged(self):
        # repro.analysis ranks above every runtime package; only the
        # CLI front end sits beside it.
        source = """
            from repro.analysis import run_paths
            """
        for path in ("src/repro/storage/journal.py", "src/repro/api.py"):
            assert rule_ids(lint(source, path, rules=["LAYER001"])) == ["LAYER001"]
        assert lint(source, "src/repro/cli.py", rules=["LAYER001"]) == []
        assert lint(
            "from repro.locks import LOCK_TIERS, tracked_lock\n",
            "src/repro/storage/journal.py",
            rules=["LAYER001"],
        ) == []

    def test_builtin_exception_across_vfs_flagged(self):
        findings = lint(
            """
            class BrokenFS(FileSystem):
                def _pread(self, path, offset, size):
                    raise ValueError("nope")
            """,
            "src/repro/fs/fixture.py",
            rules=["LAYER001"],
        )
        assert len(active(findings)) == 1
        assert "ValueError" in active(findings)[0].message

    def test_engine_internal_exception_across_vfs_flagged(self):
        findings = lint(
            """
            from repro.core.superblock import PersistenceError

            class LeakyFS(FileSystem):
                def _size(self, path):
                    raise PersistenceError(path)
            """,
            "src/repro/fs/fixture.py",
            rules=["LAYER001"],
        )
        assert len(active(findings)) == 1

    def test_fs_errors_types_cross_cleanly(self):
        findings = lint(
            """
            from repro.fs.errors import FileNotFound

            class GoodFS(FileSystem):
                def _size(self, path):
                    raise FileNotFound(path)

                def _pwritev(self, path, offset, chunks):
                    raise NotImplementedError
            """,
            "src/repro/fs/fixture.py",
            rules=["LAYER001"],
        )
        assert findings == []

    def test_helper_methods_may_raise_builtins(self):
        findings = lint(
            """
            class InternalFS(FileSystem):
                def _pick_strategy(self, hint):
                    raise ValueError(hint)
            """,
            "src/repro/fs/fixture.py",
            rules=["LAYER001"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# LOCK001 — cluster lock order
# ---------------------------------------------------------------------------

class TestLockOrderRule:
    PATH = "src/repro/distributed/fixture.py"

    def test_inverted_nesting_flagged(self):
        findings = lint(
            """
            def bad(self):
                with self.client_lock:
                    with self.master_lock:
                        pass
            """,
            self.PATH,
            rules=["LOCK001"],
        )
        assert len(active(findings)) == 1
        assert "inversion" in active(findings)[0].message

    def test_declared_order_passes(self):
        findings = lint(
            """
            def good(self):
                with self.master_lock:
                    with self.chunkserver_lock:
                        with self.client_lock:
                            pass
            """,
            self.PATH,
            rules=["LOCK001"],
        )
        assert findings == []

    def test_reacquisition_is_self_deadlock(self):
        findings = lint(
            """
            def twice(self):
                with self.state_lock:
                    with self.state_lock:
                        pass
            """,
            self.PATH,
            rules=["LOCK001"],
        )
        assert len(active(findings)) == 1
        assert "self-deadlock" in active(findings)[0].message

    def test_multi_item_with_checked_left_to_right(self):
        findings = lint(
            """
            def bad(self):
                with self.client_lock, self.master_lock:
                    pass
            """,
            self.PATH,
            rules=["LOCK001"],
        )
        assert len(active(findings)) == 1

    def test_rule_scoped_to_distributed(self):
        findings = lint(
            """
            def bad(self):
                with self.client_lock:
                    with self.master_lock:
                        pass
            """,
            "src/repro/core/fixture.py",
            rules=["LOCK001"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# MUT001 — raw block buffer mutation
# ---------------------------------------------------------------------------

class TestRawMutationRule:
    PATH = "src/repro/core/mutfixture.py"

    def test_subscript_store_into_raw_block_flagged(self):
        findings = lint(
            """
            def corrupt(device, no):
                raw = bytearray(device.read_block(no))
                raw[0] = 1
            """,
            self.PATH,
            rules=["MUT001"],
        )
        assert len(active(findings)) == 1
        assert "raw" in active(findings)[0].message

    def test_mutator_method_on_raw_block_flagged(self):
        findings = lint(
            """
            def corrupt(device, no):
                raw = bytearray(device.read_block(no))
                raw.extend(b"tail")
            """,
            self.PATH,
            rules=["MUT001"],
        )
        assert len(active(findings)) == 1

    def test_fresh_buffer_mutation_passes(self):
        findings = lint(
            """
            def fine(device, no):
                header = device.read_block(no)[:4]
                fresh = bytearray(64)
                fresh[0] = 1
                fresh.extend(header)
                return bytes(fresh)
            """,
            self.PATH,
            rules=["MUT001"],
        )
        assert findings == []

    def test_taint_does_not_cross_ordinary_calls(self):
        findings = lint(
            """
            def fine(self, device, no):
                raw = device.read_block(no)
                pieces = self._chunk(raw)
                pieces.append((b"tail", 4))
            """,
            self.PATH,
            rules=["MUT001"],
        )
        assert findings == []

    def test_hole_api_module_exempt(self):
        findings = lint(
            """
            def punch(device, no, start, length):
                raw = bytearray(device.read_block(no))
                raw[start : start + length] = b"\\x00" * length
            """,
            "src/repro/core/holes.py",
            rules=["MUT001"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# OBS001 (retired) — metrics change only through the registry accessors
# ---------------------------------------------------------------------------

class TestObsMutationRule:
    """The invariant OBS001 linted is now a type: what it flagged in
    source fails at the first execution instead — the stats facades have
    ``__slots__``, instrument ``value`` is read-only, and
    ``Counter.force`` no longer exists."""

    FACADES = (
        IOStats,
        lambda: CounterGroup("engine.compressor", COMPRESSOR_FIELDS),
        lambda: CounterGroup("engine.ops", OPERATION_FIELDS),
    )

    def test_stats_attribute_write_flagged(self):
        for facade in self.FACADES:
            stats = facade()
            with pytest.raises(AttributeError):
                stats.commits += 1

    def test_bare_stats_name_write_flagged(self):
        for facade in self.FACADES:
            stats = facade()
            with pytest.raises(AttributeError):
                stats.block_reads = 3
            assert not hasattr(stats, "__dict__")

    def test_instrument_value_write_flagged(self):
        registry = MetricsRegistry()
        for instrument in (
            registry.counter("engine.txn.commits"),
            registry.gauge("engine.space.files"),
        ):
            instrument.inc()
            with pytest.raises(AttributeError):
                instrument.value += 1
            assert instrument.value == 1

    def test_force_call_flagged(self):
        assert not hasattr(MetricsRegistry().counter("engine.txn.commits"), "force")
        assert "OBS001" not in CHECKER_REGISTRY

    def test_registry_accessors_pass(self):
        registry = MetricsRegistry()
        compressor = CounterGroup("engine.compressor", COMPRESSOR_FIELDS, registry)
        compressor.record("commits")
        io = IOStats(registry)
        io.record_read(1024)
        registry.gauge("engine.space.files").set(3)
        registry.histogram("engine.txn.commit_ms").observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot.counters["engine.compressor.commits"] == 1
        assert snapshot.counters["storage.device.bytes_read"] == 1024
        assert snapshot.gauges["engine.space.files"] == 3

    def test_obs_package_exempt(self):
        # The sanctioned zeroing path: ``reset()`` goes through
        # ``Counter.reset`` and keeps the shared instrument object.
        for facade in self.FACADES:
            stats = facade()
            name = next(iter(stats._counters))
            counter = stats.registry.counter(f"{stats.prefix}.{name}")
            counter.inc(7)
            stats.reset()
            assert counter.value == 0
            counter.inc()
            assert stats.registry.counter(f"{stats.prefix}.{name}").value == 1


# ---------------------------------------------------------------------------
# Framework: suppressions, registry, module mapping, JSON
# ---------------------------------------------------------------------------

class TestEncodingRule:
    PATH = "src/repro/distributed/encfixture.py"

    def test_struct_unpack_of_col_payload_flagged(self):
        findings = lint(
            """
            import struct

            def peek_first_cell(fs):
                payload = fs.read_file("/columndb/t/id.col")
                return struct.unpack_from("<q", payload, 0)
            """,
            self.PATH,
            rules=["ENC001"],
        )
        assert len(active(findings)) == 1
        assert "struct-unpacks" in active(findings)[0].message

    def test_seg_directory_unpack_via_path_variable_flagged(self):
        findings = lint(
            """
            def block_directory(fs, table, column):
                path = "/columndb/" + table + "/" + column + ".seg"
                raw = bytearray(fs.read_file(path))
                return list(SEGMENT.iter_unpack(raw))
            """,
            self.PATH,
            rules=["ENC001"],
        )
        assert len(active(findings)) == 1

    def test_nested_read_unpack_flagged(self):
        findings = lint(
            """
            def zone(fs, offset):
                return ZONE.unpack_from(
                    fs._pread("/columndb/t/id.zmap", offset, 33), 0
                )
            """,
            self.PATH,
            rules=["ENC001"],
        )
        assert len(active(findings)) == 1

    def test_private_colcodec_import_flagged(self):
        findings = lint(
            """
            from repro.databases.colcodec import _INT_CELL

            def raw_cells(payload):
                return [cell for (cell,) in _INT_CELL.iter_unpack(payload)]
            """,
            self.PATH,
            rules=["ENC001"],
        )
        assert len(active(findings)) == 1
        assert "_INT_CELL" in active(findings)[0].message

    def test_public_codec_fold_passes(self):
        # The cluster pushdown ships .col bytes through the *public*
        # fold helpers — only direct struct decoding is a violation.
        findings = lint(
            """
            from repro.databases.colcodec import fold_int_cells

            def fold_column(fs, path):
                return fold_int_cells(fs.read_file(path + ".col"))
            """,
            self.PATH,
            rules=["ENC001"],
        )
        assert active(findings) == []

    def test_unpack_of_other_files_passes(self):
        findings = lint(
            """
            import struct

            def journal_header(fs):
                raw = fs.read_file("/journal/head.wal")
                return struct.unpack_from("<QQ", raw, 0)
            """,
            self.PATH,
            rules=["ENC001"],
        )
        assert active(findings) == []

    def test_databases_package_is_exempt(self):
        findings = lint(
            """
            import struct

            def segments(fs, path):
                raw = fs.read_file(path + ".seg")
                return list(struct.iter_unpack("<QQQQBB", raw))
            """,
            "src/repro/databases/colfixture.py",
            rules=["ENC001"],
        )
        assert active(findings) == []


# ---------------------------------------------------------------------------
# TXN001 — transaction scoping
# ---------------------------------------------------------------------------

class TestTransactionRule:
    PATH = "src/repro/core/txnfixture.py"

    def test_unscoped_metadata_mutation_flagged(self):
        findings = lint(
            """
            def sneaky_delete(self, path):
                inode = self.inode(path)
                self.refcount.decref(inode.slot_at(0).block_no)
                inode.remove_slot(0)
            """,
            self.PATH,
            rules=["TXN001"],
        )
        assert len(active(findings)) == 2
        assert "outside a transaction scope" in active(findings)[0].message

    def test_refcount_set_qualified_by_receiver(self):
        findings = lint(
            """
            def tune(self, options, block_no):
                options.set("verbose", True)
                self.refcount.set(block_no, 2)
            """,
            self.PATH,
            rules=["TXN001"],
        )
        # Only the refcount.set is a metadata mutation.
        assert len(active(findings)) == 1
        assert "refcount.set" in active(findings)[0].message

    def test_transactional_decorator_protects(self):
        findings = lint(
            """
            @transactional
            def insert(self, inode, slot):
                self.refcount.incref(slot.block_no)
                inode.insert_slot(0, slot)
            """,
            self.PATH,
            rules=["TXN001"],
        )
        assert active(findings) == []

    def test_require_transaction_guard_protects(self):
        findings = lint(
            """
            def _append_data(self, inode, slot):
                require_transaction(self.device)
                inode.append_slot(slot)
            """,
            self.PATH,
            rules=["TXN001"],
        )
        assert active(findings) == []

    def test_mutation_after_with_block_still_flagged(self):
        # The journal's epoch is the only transaction: a ``with`` block
        # declares nothing, so the mutation inside it is flagged too.
        findings = lint(
            """
            def leaky(self, engine, inode, slot):
                with engine.transaction():
                    inode.append_slot(slot)
                inode.remove_slot(0)
            """,
            self.PATH,
            rules=["TXN001"],
        )
        assert len(active(findings)) == 2
        assert "append_slot" in active(findings)[0].message
        assert "remove_slot" in active(findings)[1].message

    def test_structure_modules_exempt(self):
        findings = lint(
            """
            def persist(self):
                self.refcount.set(1, 2)
            """,
            "src/repro/core/refcount.py",
            rules=["TXN001"],
        )
        assert active(findings) == []

    def test_suppression_with_justification(self):
        findings = lint(
            """
            def rebuild(self, table, block_no, content):
                table.add_record(block_no, content)  # reprolint: disable=TXN001 -- memory-only index rebuild
            """,
            self.PATH,
            rules=["TXN001"],
        )
        assert active(findings) == []
        assert len(findings) == 1 and findings[0].suppressed


# ---------------------------------------------------------------------------
# DET001 — deterministic replicated apply paths
# ---------------------------------------------------------------------------

class TestDeterminismRule:
    PATH = "src/repro/raft/statemachine.py"

    def test_wall_clock_read_flagged(self):
        findings = lint(
            """
            import time

            def _apply_lease(self, path, holder):
                until = time.time() + 30.0
                return {"path": path, "until": until}
            """,
            self.PATH,
            rules=["DET001"],
        )
        assert rule_ids(findings) == ["DET001"]
        assert "wall-clock" in active(findings)[0].message

    def test_datetime_now_flagged(self):
        findings = lint(
            """
            from datetime import datetime

            def _apply_stamp(self):
                return datetime.now().isoformat()
            """,
            self.PATH,
            rules=["DET001"],
        )
        assert rule_ids(findings) == ["DET001"]

    def test_simclock_read_flagged(self):
        findings = lint(
            """
            def _apply_lease(self, path):
                return self.clock.now + 30.0
            """,
            self.PATH,
            rules=["DET001"],
        )
        assert rule_ids(findings) == ["DET001"]
        assert "SimClock" in active(findings)[0].message

    def test_module_level_random_flagged(self):
        findings = lint(
            """
            import random

            def _apply_alloc(self, servers):
                return random.choice(servers)
            """,
            self.PATH,
            rules=["DET001"],
        )
        assert rule_ids(findings) == ["DET001"]
        assert "random" in active(findings)[0].message

    def test_seeded_generator_instance_passes(self):
        findings = lint(
            """
            import random

            class M:
                def __init__(self, seed):
                    self.rng = random.Random(seed)

                def _apply_alloc(self, servers):
                    return self.rng.choice(servers)
            """,
            self.PATH,
            rules=["DET001"],
        )
        # random.Random(seed) is deterministic by construction, and the
        # instance's draws are replayed state, not environment reads.
        assert findings == []

    def test_dict_iteration_flagged(self):
        findings = lint(
            """
            def _apply_place(self, placements):
                out = []
                for name, load in placements.items():
                    out.append((name, load))
                return out
            """,
            self.PATH,
            rules=["DET001"],
        )
        assert rule_ids(findings) == ["DET001"]
        assert "insertion order" in active(findings)[0].message

    def test_dict_comprehension_iteration_flagged(self):
        findings = lint(
            """
            def _apply_digest(self, loads):
                return [name for name in loads.keys()]
            """,
            self.PATH,
            rules=["DET001"],
        )
        assert rule_ids(findings) == ["DET001"]

    def test_sorted_iteration_passes(self):
        findings = lint(
            """
            def _apply_place(self, placements):
                return [placements[name] for name in sorted(placements)]
            """,
            self.PATH,
            rules=["DET001"],
        )
        assert findings == []

    def test_out_of_scope_module_ignored(self):
        findings = lint(
            """
            import time

            def sample(self):
                return time.time()
            """,
            "src/repro/obs/fixture.py",
            rules=["DET001"],
        )
        assert findings == []

    def test_suppression_with_justification(self):
        findings = lint(
            """
            def _apply_scan(self, loads):
                for name in loads.keys():  # reprolint: disable=DET001 -- single-replica debug path, never replayed
                    print(name)
            """,
            self.PATH,
            rules=["DET001"],
        )
        assert active(findings) == []
        assert len(findings) == 1 and findings[0].suppressed

    def test_shipped_statemachine_is_deterministic(self):
        # The apply step is a table lookup; its bodies are the Master
        # mutators.  Both modules must be in scope, and both clean.
        for path in (self.PATH, "src/repro/distributed/master.py"):
            probe = lint("import time\nstamp = time.time()\n", path, rules=["DET001"])
            assert rule_ids(probe) == ["DET001"], f"{path} is out of DET001 scope"
        result = run_paths([default_target()], rules=["DET001"])
        assert [f for f in result.findings if not f.suppressed] == []


class TestFramework:
    def test_all_five_rules_registered(self):
        assert {
            "RC001", "IO001", "LAYER001", "LOCK001", "MUT001",
            "TXN001", "ENC001", "DET001", "CONC001", "CONC002",
        } == set(
            CHECKER_REGISTRY
        )

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            Analyzer(rules=["NOPE42"])

    def test_bare_suppression_reported_by_sup001(self):
        findings = lint(
            """
            def gather(device, block_nos):
                return [device.read_block(no) for no in block_nos]  # reprolint: disable=IO001
            """,
            "src/repro/core/fixture.py",
        )
        assert rule_ids(findings) == ["SUP001"]

    def test_disable_all_covers_every_rule(self):
        findings = lint(
            """
            def gather(device, block_nos):
                return [device.read_block(no) for no in block_nos]  # reprolint: disable=all -- fixture exercising blanket suppression
            """,
            "src/repro/core/fixture.py",
        )
        assert active(findings) == []

    def test_module_name_anchored_at_repro(self):
        assert module_name_for("/x/y/src/repro/core/engine.py") == "repro.core.engine"
        assert module_name_for("src/repro/fs/vfs.py") == "repro.fs.vfs"
        assert module_name_for("/elsewhere/script.py") == "script"

    def test_findings_sorted_and_json_stable(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core"
        target.mkdir(parents=True)
        (target / "b.py").write_text(
            textwrap.dedent(
                """
                def gather(device, block_nos):
                    return [device.read_block(no) for no in block_nos]
                """
            )
        )
        (target / "a.py").write_text(
            textwrap.dedent(
                """
                def scatter(device, pairs):
                    for no, payload in pairs:
                        device.write_block(no, payload)
                """
            )
        )
        first = run_paths([str(tmp_path)])
        second = run_paths([str(tmp_path)])
        assert first.render_json(root=str(tmp_path)) == second.render_json(
            root=str(tmp_path)
        )
        document = json.loads(first.render_json(root=str(tmp_path)))
        assert document["version"] == 1
        assert document["counts"]["active"] == 2
        paths = [finding["path"] for finding in document["findings"]]
        assert paths == sorted(paths)
        assert first.exit_code == 1

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        report = run_paths([str(bad)])
        assert report.exit_code == 2
        assert report.errors


# ---------------------------------------------------------------------------
# The CLI and the shipped tree
# ---------------------------------------------------------------------------

class TestLintCLI:
    def test_shipped_tree_is_clean(self):
        report = run_paths([default_target()])
        assert report.files_scanned > 50
        assert report.active == [], "\n" + report.render_text()
        for finding in report.suppressed:
            assert finding.justification, finding.render()

    def test_cli_lint_exits_zero_on_tree(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_cli_lint_flags_violations(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "core"
        target.mkdir(parents=True)
        (target / "bad.py").write_text(
            "def f(device, nos):\n"
            "    return [device.read_block(no) for no in nos]\n"
        )
        assert main(["lint", str(tmp_path)]) == 1
        assert "IO001" in capsys.readouterr().out

    def test_cli_json_output(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "core"
        target.mkdir(parents=True)
        (target / "bad.py").write_text(
            "def f(device, nos):\n"
            "    return [device.read_block(no) for no in nos]\n"
        )
        assert main(["lint", "--json", str(tmp_path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["findings"][0]["rule"] == "IO001"

    def test_cli_rule_selection(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "core"
        target.mkdir(parents=True)
        (target / "bad.py").write_text(
            "def f(device, nos):\n"
            "    return [device.read_block(no) for no in nos]\n"
        )
        assert main(["lint", "--rule", "RC001", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["lint", "--rule", "IO001", str(tmp_path)]) == 1

    def test_cli_unknown_rule_is_cli_error(self, capsys):
        assert main(["lint", "--rule", "NOPE42"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_cli_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "RC001", "IO001", "LAYER001", "LOCK001", "MUT001", "CONC002", "SUP001"
        ):
            assert rule in out

    def test_cli_missing_target(self, capsys):
        assert main(["lint", "/no/such/tree"]) == 2


# ---------------------------------------------------------------------------
# Regression tests for the bugs the analyzer surfaced
# ---------------------------------------------------------------------------

class TestSurfacedBugs:
    def test_copy_file_failure_rolls_back_refcounts(self, monkeypatch):
        """RC001 on copy_file: a mid-copy failure used to leak one
        reference per already-cloned slot, pinning the blocks forever."""
        engine = CompressDB(block_size=64, page_capacity=4)
        engine.write_file("/a", bytes(range(256)) * 2)
        source = engine.inode("/a")
        baseline = {
            slot.block_no: engine.refcount.get(slot.block_no)
            for slot in source.iter_slots()
        }
        assert len(baseline) > 2

        original = Inode.append_slot
        calls = []

        def flaky(self, slot):
            calls.append(slot)
            if len(calls) == 3:
                raise RuntimeError("simulated mid-copy failure")
            return original(self, slot)

        monkeypatch.setattr(Inode, "append_slot", flaky)
        with pytest.raises(RuntimeError):
            engine.copy_file("/a", "/b")
        monkeypatch.setattr(Inode, "append_slot", original)

        assert "/b" not in engine.list_files()
        for block_no, count in baseline.items():
            assert engine.refcount.get(block_no) == count
        # The repair pass agrees nothing is dangling.
        report = engine.fsck()
        assert report["refcounts_fixed"] == 0

    def test_cli_reports_engine_errors_instead_of_traceback(self, tmp_path, capsys):
        """LAYER001's taxonomy: engine exceptions reaching the user as raw
        tracebacks.  ``get`` on a missing path must exit 2 with a
        message, not crash."""
        image = str(tmp_path / "store.img")
        assert main(["init", image, "--block-size", "256"]) == 0
        capsys.readouterr()
        assert main(["get", image, "/missing"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert main(["delete", image, "/missing", "0", "4"]) == 2
        assert main(["cp", image, "/missing", "/copy"]) == 2

    def test_nondefault_block_size_image_survives_remounts(self, tmp_path, capsys):
        """Images record their block size: commands used to remount with
        the 1024-byte default, see a 256-byte-block image as unformatted,
        and silently reformat it — destroying all data."""
        image = str(tmp_path / "store.img")
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"payload that must survive " * 20)
        assert main(["init", image, "--block-size", "256"]) == 0
        assert main(["put", image, str(corpus), "/keep.txt"]) == 0
        # A failing command must not corrupt the image for later ones.
        assert main(["get", image, "/missing"]) == 2
        capsys.readouterr()
        out = str(tmp_path / "back.txt")
        assert main(["get", image, "/keep.txt", "-o", out]) == 0
        assert open(out, "rb").read() == corpus.read_bytes()

    def test_file_device_rejects_mismatched_geometry(self, tmp_path):
        from repro.storage.block_device import BlockDeviceError, FileBlockDevice

        image = str(tmp_path / "odd.img")
        with open(image, "wb") as handle:
            handle.write(b"\x00" * 768)  # three 256-byte blocks
        with pytest.raises(BlockDeviceError, match="geometry"):
            FileBlockDevice(image, block_size=1024)


# ---------------------------------------------------------------------------
# Interprocedural mode — call-graph passes and the concurrency rules
# ---------------------------------------------------------------------------

def lint_program(items, rules=None):
    """Run the analyzer over several synthetic files as one program."""
    analyzer = Analyzer(rules=rules)
    return analyzer.run_sources(
        [(path, textwrap.dedent(source)) for path, source in items]
    )


class TestInterproceduralLockRule:
    """LOCK001 across call edges: the per-file pass provably misses the
    violation, the program pass catches it."""

    CALLER = (
        "src/repro/distributed/node.py",
        """
        from repro.distributed.coord import Coordinator

        class Node:
            def __init__(self, coord: Coordinator):
                self.coord = coord
                self.server_lock = object()

            def promote(self):
                with self.server_lock:
                    self.coord.elect()
        """,
    )
    CALLEE = (
        "src/repro/distributed/coord.py",
        """
        class Coordinator:
            def __init__(self):
                self.lock = object()

            def elect(self):
                with self.lock:
                    pass
        """,
    )

    def test_intra_mode_is_silent(self):
        for path, source in (self.CALLER, self.CALLEE):
            assert active(lint(source, path, rules=["LOCK001"])) == []

    def test_unranked_callee_lock_nests_freely(self):
        # Coordinator's canonical lock carries no tier keyword -> unranked,
        # and unranked locks nest freely under ranked ones.
        assert active(lint_program([self.CALLER, self.CALLEE], rules=["LOCK001"])) == []

    def test_inter_mode_catches_cross_call_inversion(self):
        master_callee = (
            "src/repro/distributed/master2.py",
            """
            class Master2:
                def __init__(self):
                    self.master_lock = object()

                def elect(self):
                    with self.master_lock:
                        pass
            """,
        )
        caller = (
            "src/repro/distributed/node.py",
            """
            from repro.distributed.master2 import Master2

            class Node:
                def __init__(self, master: Master2):
                    self.master = master
                    self.server_lock = object()

                def promote(self):
                    with self.server_lock:
                        self.master.elect()
            """,
        )
        findings = active(lint_program([caller, master_callee], rules=["LOCK001"]))
        assert len(findings) == 1
        assert "inversion across calls" in findings[0].message
        assert "Node.promote" in findings[0].message
        assert "Master2.elect" in findings[0].message

    def test_inter_mode_self_deadlock_through_chain(self):
        helper = (
            "src/repro/distributed/helper.py",
            """
            class Box:
                def __init__(self):
                    self.state_lock = object()

                def outer(self):
                    with self.state_lock:
                        self.inner()

                def inner(self):
                    with self.state_lock:
                        pass
            """,
        )
        findings = active(lint_program([helper], rules=["LOCK001"]))
        assert len(findings) == 1
        assert "self-deadlock" in findings[0].message


class TestInterproceduralTxnRule:
    """TXN001 across call edges: calling a require_transaction declarer
    without establishing a scope."""

    DECLARER = (
        "src/repro/core/helpers.py",
        """
        from repro.storage.journal import require_transaction

        def bump(device, table, block_no):
            require_transaction(device)
            table.add_record(block_no, b"")
        """,
    )

    def test_intra_mode_is_silent_on_the_broken_caller(self):
        caller = """
            from repro.core.helpers import bump

            def entry(device, table, block_no):
                bump(device, table, block_no)
            """
        assert active(lint(caller, "src/repro/core/entry.py", rules=["TXN001"])) == []

    def test_inter_mode_catches_the_broken_edge(self):
        caller = (
            "src/repro/core/entry.py",
            """
            from repro.core.helpers import bump

            def entry(device, table, block_no):
                bump(device, table, block_no)
            """,
        )
        findings = active(lint_program([caller, self.DECLARER], rules=["TXN001"]))
        assert len(findings) == 1
        assert "requires an active transaction" in findings[0].message

    def test_undecorated_caller_inside_a_with_is_still_flagged(self):
        caller = (
            "src/repro/core/entry.py",
            """
            from repro.core.helpers import bump

            class Engine:
                def entry(self, device, table, block_no):
                    with self.transaction():
                        bump(device, table, block_no)
            """,
        )
        findings = active(lint_program([caller, self.DECLARER], rules=["TXN001"]))
        assert [(f.rule_id, f.path, f.line) for f in findings] == [
            ("TXN001", "src/repro/core/entry.py", 7)
        ]

    def test_transactional_caller_is_accepted(self):
        caller = (
            "src/repro/core/entry.py",
            """
            from repro.core.helpers import bump
            from repro.storage.journal import transactional

            class Engine:
                @transactional
                def entry(self, device, table, block_no):
                    bump(device, table, block_no)
            """,
        )
        assert active(lint_program([caller, self.DECLARER], rules=["TXN001"])) == []

    def test_declaring_caller_passes_obligation_up(self):
        caller = (
            "src/repro/core/entry.py",
            """
            from repro.core.helpers import bump
            from repro.storage.journal import require_transaction

            def entry(device, table, block_no):
                require_transaction(device)
                bump(device, table, block_no)
            """,
        )
        assert active(lint_program([caller, self.DECLARER], rules=["TXN001"])) == []


class TestInterproceduralRefcountRule:
    """RC001 across call edges: a counted return dropped by the caller."""

    PRODUCER = (
        "src/repro/core/producer.py",
        """
        def duplicate(refcount, block_no):
            refcount.incref(block_no)
            return block_no
        """,
    )

    def test_intra_mode_is_silent_on_both_sides(self):
        assert active(lint(self.PRODUCER[1], self.PRODUCER[0], rules=["RC001"])) == []
        caller = """
            from repro.core.producer import duplicate

            def entry(refcount, block_no):
                duplicate(refcount, block_no)
            """
        assert active(lint(caller, "src/repro/core/entry.py", rules=["RC001"])) == []

    def test_inter_mode_catches_dropped_counted_return(self):
        caller = (
            "src/repro/core/entry.py",
            """
            from repro.core.producer import duplicate

            def entry(refcount, block_no):
                duplicate(refcount, block_no)
            """,
        )
        findings = active(lint_program([caller, self.PRODUCER], rules=["RC001"]))
        assert len(findings) == 1
        assert "discards the counted return" in findings[0].message

    def test_inter_mode_tracks_bound_counted_return(self):
        caller = (
            "src/repro/core/entry.py",
            """
            from repro.core.producer import duplicate

            def leak(refcount, slots, block_no):
                dup = duplicate(refcount, block_no)
                slots.validate()
                slots.append_slot(dup)
            """,
        )
        findings = active(lint_program([caller, self.PRODUCER], rules=["RC001"]))
        assert len(findings) == 1
        assert "can raise" in findings[0].message

    def test_inter_mode_accepts_transferred_counted_return(self):
        caller = (
            "src/repro/core/entry.py",
            """
            from repro.core.producer import duplicate

            def entry(refcount, slots, block_no):
                dup = duplicate(refcount, block_no)
                slots.append_slot(dup)
            """,
        )
        assert active(lint_program([caller, self.PRODUCER], rules=["RC001"])) == []


class TestSharedStateRule:
    """CONC001 — shared mutable state outside lock/transaction scope."""

    def test_unscoped_instance_mutation_flagged(self):
        fixture = (
            "src/repro/distributed/reg.py",
            """
            class Registry:
                def __init__(self):
                    self.entries = {}

                def put(self, key, value):
                    self.entries[key] = value
            """,
        )
        findings = active(lint_program([fixture], rules=["CONC001"]))
        assert len(findings) == 1
        assert "self.entries" in findings[0].message

    def test_lock_scoped_mutation_accepted(self):
        fixture = (
            "src/repro/distributed/reg.py",
            """
            class Registry:
                def __init__(self):
                    self.entries = {}
                    self.reg_lock = object()

                def put(self, key, value):
                    with self.reg_lock:
                        self.entries[key] = value
            """,
        )
        assert active(lint_program([fixture], rules=["CONC001"])) == []

    def test_require_held_declarer_accepted(self):
        fixture = (
            "src/repro/distributed/reg.py",
            """
            class Registry:
                def __init__(self):
                    self.entries = {}
                    self.reg_lock = object()

                def put(self, key, value):
                    self.reg_lock.require_held()
                    self.entries[key] = value
            """,
        )
        assert active(lint_program([fixture], rules=["CONC001"])) == []

    def test_constructor_only_helper_accepted(self):
        fixture = (
            "src/repro/distributed/reg.py",
            """
            class Registry:
                def __init__(self):
                    self.entries = {}
                    self._seed()

                def _seed(self):
                    self.entries["root"] = None
            """,
        )
        assert active(lint_program([fixture], rules=["CONC001"])) == []

    def test_module_global_mutation_flagged(self):
        fixture = (
            "src/repro/storage/registry.py",
            """
            _CACHE = {}

            def remember(key, value):
                _CACHE[key] = value
            """,
        )
        findings = active(lint_program([fixture], rules=["CONC001"]))
        assert len(findings) == 1
        assert "_CACHE" in findings[0].message

    def test_suppression_with_justification(self):
        fixture = (
            "src/repro/distributed/reg.py",
            """
            class Registry:
                def __init__(self):
                    self.entries = {}

                def put(self, key, value):
                    self.entries[key] = value  # reprolint: disable=CONC001 -- single-writer by protocol until the MVCC arc lands
            """,
        )
        findings = lint_program([fixture], rules=["CONC001"])
        assert active(findings) == []
        assert len(findings) == 1 and findings[0].suppressed


class TestLockGraphRule:
    """CONC002 — cycles in the interprocedural lock-order graph."""

    CYCLE = (
        "src/repro/distributed/pair.py",
        """
        class Pair:
            def __init__(self):
                self.alpha_lock = object()
                self.beta_lock = object()

            def ab(self):
                with self.alpha_lock:
                    with self.beta_lock:
                        pass

            def ba(self):
                with self.beta_lock:
                    with self.alpha_lock:
                        pass
        """,
    )

    def test_cycle_detected_with_witness_chains(self):
        findings = active(lint_program([self.CYCLE], rules=["CONC002"]))
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message
        assert "witness chains" in findings[0].message
        assert "Pair.ab" in findings[0].message
        assert "Pair.ba" in findings[0].message

    def test_consistent_order_has_no_cycle(self):
        fixture = (
            "src/repro/distributed/pair.py",
            """
            class Pair:
                def __init__(self):
                    self.alpha_lock = object()
                    self.beta_lock = object()

                def ab(self):
                    with self.alpha_lock:
                        with self.beta_lock:
                            pass

                def ab_again(self):
                    with self.alpha_lock:
                        self.tail()

                def tail(self):
                    with self.beta_lock:
                        pass
            """,
        )
        assert active(lint_program([fixture], rules=["CONC002"])) == []

    def test_cross_call_cycle_detected(self):
        fixture = (
            "src/repro/distributed/pair.py",
            """
            class Pair:
                def __init__(self):
                    self.alpha_lock = object()
                    self.beta_lock = object()

                def ab(self):
                    with self.alpha_lock:
                        self.grab_beta()

                def grab_beta(self):
                    with self.beta_lock:
                        pass

                def ba(self):
                    with self.beta_lock:
                        self.grab_alpha()

                def grab_alpha(self):
                    with self.alpha_lock:
                        pass
            """,
        )
        findings = active(lint_program([fixture], rules=["CONC002"]))
        assert len(findings) == 1
        assert "via" in findings[0].message

    def test_program_rules_auto_enable_interprocedural(self):
        # There is one mode: a single file is a (small) whole program,
        # so the graph rules run on it with no flag to remember.
        findings = Analyzer(rules=["CONC002"]).run_source(
            textwrap.dedent(self.CYCLE[1]), self.CYCLE[0]
        )
        assert len(active(findings)) == 1


class TestInterproceduralCLI:
    def test_cli_callgraph_dot_stdout(self, capsys):
        assert main(["lint", "--callgraph-dot", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph reprolint {")
        assert "cluster_calls" in out
        assert "cluster_locks" in out

    def test_cli_callgraph_dot_file_is_byte_stable(self, tmp_path, capsys):
        first = tmp_path / "a.dot"
        second = tmp_path / "b.dot"
        assert main(["lint", "--callgraph-dot", str(first)]) == 0
        assert main(["lint", "--callgraph-dot", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text()
        # The protocol's signature static edge must be in the dump.
        assert "distributed.master.Master.lock" in text

    def test_cli_sanitize_smoke_agrees(self, capsys):
        assert main(["lint", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "static and observed lock order agree" in out
