"""Tests for reprolint, the engine's AST-based invariant analyzer.

Each rule gets a positive fixture (the violation is found), a negative
fixture (idiomatic code passes), and a suppression fixture.  On top of
that: suppression hygiene (SUP001), stable JSON output, the CLI
``lint`` subcommand, and — the point of the exercise — two whole-program
passes over the real tree: the shipped sources lint clean (the
session-scoped ``shipped_tree`` fixture), and the same sources with
``SEEDS`` planted trip every rule (``TestSeededTree``).
"""

from __future__ import annotations

import json
import os
import textwrap
from collections import Counter

import pytest

from repro.analysis import (
    Analyzer,
    CHECKER_REGISTRY,
    collect_files,
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

    def test_shipped_statemachine_is_deterministic(self, shipped_tree):
        # The apply step is a table lookup; its bodies are the Master
        # mutators.  Both modules must be in scope, and both clean.
        for path in (self.PATH, "src/repro/distributed/master.py"):
            probe = lint("import time\nstamp = time.time()\n", path, rules=["DET001"])
            assert rule_ids(probe) == ["DET001"], f"{path} is out of DET001 scope"
        __, report = shipped_tree
        assert [f for f in report.active if f.rule_id == "DET001"] == []


class TestFramework:
    def test_all_five_rules_registered(self):
        assert {
            "RC001", "IO001", "LAYER001", "LOCK001",
            "ENC001", "DET001", "CONC001", "CONC002",
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
    def test_shipped_tree_is_clean(self, shipped_tree):
        __, report = shipped_tree
        assert report.files_scanned > 50
        assert report.active == [], "\n" + report.render_text()
        for finding in report.suppressed:
            assert finding.justification, finding.render()
        # The standing suppressions, by rule: nothing rides in unnoticed.
        assert Counter(f.rule_id for f in report.suppressed) == {"IO001": 5, "RC001": 3}

    def test_shipped_lock_graph_holds_locks_only(self, shipped_tree):
        # A ``with`` item is a lock because of what it is, not because
        # its source text contains "lock": the parent's graph also held
        # eight tracer spans (``span("device.read", blocks=...)``).
        summaries = shipped_tree[0].summaries
        distributed = "repro.distributed."
        assert {
            name for summary in summaries.summaries.values() for name in summary.locks
        } == {
            distributed + "master.Master.lock",
            distributed + "chunkserver.ChunkServer._lock",
            distributed + "replicated.MasterGroup.lock",
            distributed + "replicated:self._holding_lock()",
            distributed + "interleave:cluster.master.lock",
            "repro.serving.server.Server._lock",
            "repro.storage.journal.JournalDevice._commit_lock",
        }
        assert {(e.outer, e.inner) for e in summaries.lock_order_edges()} == {
            (distributed + "master.Master.lock", distributed + "chunkserver.ChunkServer._lock")
        }

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
        assert [line.split()[0] for line in out.splitlines()] == sorted(
            CHECKER_REGISTRY
        ) + ["SUP001"]

    def test_cli_missing_target(self, capsys):
        assert main(["lint", "/no/such/tree"]) == 2


# ---------------------------------------------------------------------------
# The admission test: a rule stays only if a defect seeded into the real
# tree trips it
# ---------------------------------------------------------------------------

APPEND = "append"

#: ``(file under src/repro, anchor text or APPEND, replacement, {rule:
#: active findings in that file})``.  Each row plants, in the shipped
#: sources held in memory, a defect of the kind its rule exists for; one
#: whole-program pass over the seeded tree must report exactly the sum of
#: the rows.  A rule or documented sub-check with no row has not earned
#: its lines; a rule whose row stops firing is dead weight or broken.
SEEDS = [
    # RC001, loop-carried: clone_range loses its refcount rollback, so a
    # failure in iteration i leaks the references of iterations 0..i-1.
    (
        "core/engine.py",
        "                for block_no in added:\n"
        "                    self.refcount.decref(block_no)\n"
        "                while target.num_slots > kept:\n",
        "                while target.num_slots > kept:\n",
        {"RC001": 1},
    ),
    # RC001, straight-line: a call that can raise lands between the
    # incref of the duplicate and the slot that takes ownership of it.
    (
        "core/compressor.py",
        "                self.refcount.incref(dup)\n"
        "                inode.replace_slot(",
        "                self.refcount.incref(dup)\n"
        "                self.device.free(curr.block_no)\n"
        "                inode.replace_slot(",
        {"RC001": 1},
    ),
    # RC001, counted return: a helper hands back a block it incref'd; one
    # caller drops the result, another can raise before transferring it.
    (
        "core/refcount.py",
        APPEND,
        """

        def share(refcount: BlockRefCount, block_no: int) -> int:
            refcount.incref(block_no)
            return block_no


        def pin(refcount: BlockRefCount, block_no: int) -> None:
            share(refcount, block_no)


        def adopt(refcount: BlockRefCount, inode, block_no: int) -> None:
            dup = share(refcount, block_no)
            inode.validate()
            inode.append_slot(dup)
        """,
        {"RC001": 2},
    ),
    # LOCK001 (lexical inversion, then re-acquisition through
    # attach_registry) + CONC002: join_server swaps the lock pair and
    # takes the chunk server's rank-1 lock before the master's rank-0 one.
    (
        "distributed/client.py",
        '        with self.obs.tracer.span("client.join", server=server.name), self.master.lock:\n',
        "        with server._lock, self.master.lock:\n",
        {"LOCK001": 2, "CONC002": 1},
    ),
    # LOCK001, across a call chain: the helper every locked caller uses
    # starts taking the master lock itself.
    (
        "distributed/client.py",
        "        self._charge(0)\n"
        "        entry = self.master.unlink(path)\n",
        "        with self.master.lock:\n"
        "            entry = self.master.unlink(path)\n",
        {"LOCK001": 2},
    ),
    # CONC001: a tracer span is not a lock (the parent's linter passed
    # this because the span call is spelled ``blocks=``) ...
    (
        "distributed/chunkserver.py",
        "        with self._lock:\n"
        "            self.online = False\n",
        '        with self.obs.tracer.span("chunkserver.fail", blocks=1):\n'
        "            self.online = False\n",
        {"CONC001": 1},
    ),
    # ... nor is no scope at all ...
    (
        "distributed/chunkserver.py",
        "        with self._lock:\n"
        "            self.online = True\n"
        "\n"
        "    def restart",
        "        self.online = True\n"
        "\n"
        "    def restart",
        {"CONC001": 1},
    ),
    # ... and a module-level cache is shared by every session.
    (
        "core/hashtable.py",
        APPEND,
        """

        _DIGESTS: dict[bytes, int] = {}


        def cached_hash(content: bytes) -> int:
            if content not in _DIGESTS:
                _DIGESTS[content] = hash_block(content)
            return _DIGESTS[content]
        """,
        {"CONC001": 1},
    ),
    # DET001: the replicated apply path reads a wall clock, ...
    (
        "distributed/master.py",
        "        entry = FileEntry(path=path)\n"
        "        self._files[path] = entry\n",
        "        import time\n"
        "\n"
        "        entry = FileEntry(path=path)\n"
        "        entry.created = time.time()\n"
        "        self._files[path] = entry\n",
        {"DET001": 1},
    ),
    # ... draws from the process-wide generator, ...
    (
        "distributed/master.py",
        "            for name in sorted(self.server_names):\n"
        "                if name in chosen:\n",
        "            for name in random.sample(sorted(self.server_names), 3):\n"
        "                if name in chosen:\n",
        {"DET001": 1},
    ),
    # ... walks a dict in insertion order, ...
    (
        "distributed/master.py",
        "        for path in sorted(self._files):\n"
        "            for chunk in self._files[path].chunks:\n"
        "                if server_name in chunk.servers:\n",
        "        for path, entry in self._files.items():\n"
        "            for chunk in entry.chunks:\n"
        "                if server_name in chunk.servers:\n",
        {"DET001": 1},
    ),
    # ... and the state machine stamps entries with its own SimClock.
    (
        "raft/statemachine.py",
        "        self.applied_index = index\n"
        "        return result\n",
        "        self.applied_index = index\n"
        "        self.applied_at = self.clock.now\n"
        "        return result\n",
        {"DET001": 1},
    ),
    # LAYER001: the engine imports a database, ...
    (
        "core/engine.py",
        "from repro.core import superblock as sb\n",
        "from repro.core import superblock as sb\n"
        "from repro.databases.minisql import MiniSQL\n",
        {"LAYER001": 1},
    ),
    # ... a database reaches under the VFS for the block device, ...
    (
        "databases/minisql.py",
        "from repro.fs.vfs import FileSystem\n",
        "from repro.fs.vfs import FileSystem\n"
        "from repro.storage.block_device import MemoryBlockDevice\n",
        {"LAYER001": 1},
    ),
    # ... a FileSystem primitive raises a builtin across the boundary, ...
    (
        "fs/compressfs.py",
        "    def _pread(self, path: str, offset: int, size: int) -> bytes:\n"
        "        if offset < 0 or size < 0:\n"
        "            raise InvalidArgument(",
        "    def _pread(self, path: str, offset: int, size: int) -> bytes:\n"
        "        if offset < 0 or size < 0:\n"
        "            raise ValueError(",
        {"LAYER001": 1},
    ),
    # ... and another lets an engine-internal type through.
    (
        "fs/compressfs.py",
        "    def _truncate(self, path: str, size: int) -> None:\n"
        "        if self._snapshot_target(path) is not None:\n"
        "            raise PermissionDenied(",
        "    def _truncate(self, path: str, size: int) -> None:\n"
        "        if self._snapshot_target(path) is not None:\n"
        "            from repro.snap.record import SnapshotError\n"
        "\n"
        "            raise SnapshotError(",
        {"LAYER001": 1},
    ),
    # IO001: readv goes back to one device read per block, ...
    (
        "core/engine.py",
        "        contents = self.device.read_blocks(block_nos)\n",
        "        contents = [self.device.read_block(no) for no in block_nos]\n",
        {"IO001": 1},
    ),
    # ... defragment to one compressor call per piece, ...
    (
        "core/engine.py",
        "        for slot in self.compressor.store_many(pieces):\n"
        "            inode.append_slot(slot)\n"
        "        # Release the old references",
        "        for content, used in pieces:\n"
        "            inode.append_slot(self.compressor.store(content, used))\n"
        "        # Release the old references",
        {"IO001": 1},
    ),
    # ... and Algorithm 1 goes back to one device read per block of a batch.
    (
        "core/compressor.py",
        "            curr = inode.slot_at(slot_index)\n",
        "            curr = inode.slot_at(slot_index)\n"
        "            fetched[curr.block_no] = self.device.read_block(curr.block_no)\n",
        {"IO001": 1},
    ),
    # ENC001: the chunk server decodes a column file itself, through a
    # struct it imported from the codec's private half.
    (
        "distributed/chunkserver.py",
        "from repro.databases.colcodec import fold_int_cells\n",
        "from repro.databases.colcodec import _INT_CELL, fold_int_cells\n",
        {"ENC001": 1},
    ),
    (
        "distributed/chunkserver.py",
        "            return fold_int_cells(self.fs._pread(path, offset, length))\n",
        '            return _INT_CELL.unpack_from(self.fs.read_file("/t.col"), offset)\n',
        {"ENC001": 1},
    ),
    # SUP001: a suppression loses its written reason.
    (
        "core/superblock.py",
        "  # reprolint: disable=IO001 -- pointer chase: each next-block number "
        "lives inside the previous block, so the reads are sequentially "
        "dependent and cannot be batched\n",
        "  # reprolint: disable=IO001\n",
        {"SUP001": 1},
    ),
]


def seeded_sources(seeds=SEEDS):
    """``(path, source)`` of every file of the shipped tree with
    ``seeds`` applied — in memory; nothing is written."""
    root = default_target()
    sources = {}
    for path in collect_files([root]):
        with open(path, encoding="utf-8") as handle:
            sources[path] = handle.read()
    for relative, anchor, replacement, __ in seeds:
        path = os.path.join(root, relative)
        if anchor == APPEND:
            sources[path] += textwrap.dedent(replacement)
            continue
        assert sources[path].count(anchor) == 1, (
            f"stale seed: {relative} holds {sources[path].count(anchor)} "
            f"copies of {anchor!r}"
        )
        sources[path] = sources[path].replace(anchor, replacement)
    return sorted(sources.items())


class TestSeededTree:
    def test_every_seed_trips_its_rule_and_nothing_else_fires(self):
        root = default_target()
        findings = Analyzer().run_sources(seeded_sources())
        tripped = Counter(
            (f.rule_id, os.path.relpath(f.path, root).replace(os.sep, "/"))
            for f in active(findings)
        )
        expected = Counter()
        for relative, __, __, trips in SEEDS:
            for rule, count in trips.items():
                expected[(rule, relative)] += count
        assert tripped == expected, "\n".join(f.render() for f in active(findings))
        # Admission: every registered rule is tripped by some seed, and
        # dropping a row above without owning up to it here fails.
        per_rule = Counter(rule for rule, __ in tripped.elements())
        assert per_rule == {
            "RC001": 4, "IO001": 3, "LAYER001": 4, "LOCK001": 4, "ENC001": 2,
            "DET001": 4, "CONC001": 3, "CONC002": 1, "SUP001": 1,
        }
        assert set(per_rule) == set(CHECKER_REGISTRY) | {"SUP001"}

    def test_stale_anchor_fails_loudly(self):
        with pytest.raises(AssertionError, match="stale seed"):
            seeded_sources([("core/engine.py", "no such line\n", "", {})])


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
    def test_cli_sanitize_smoke_agrees(self, capsys, monkeypatch, shipped_tree):
        # The CLI wiring is what is under test; the tree it would index
        # is the one the session already holds.
        monkeypatch.setattr(
            "repro.analysis.build_program_for", lambda paths: shipped_tree[0]
        )
        assert main(["lint", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "static and observed lock order agree" in out
