"""Self-test of the benchmark (``pytest benchmarks/e2e``; not tier-1).

Runs every workload at ``--smoke`` size (1/20 of the actions) twice,
under two ``PYTHONHASHSEED`` values, and checks what the benchmark's
own numbers rest on: the tracer's self times add up, tracing does not
change what the program does, everything that is counted repeats
exactly, and a wrong answer is counted as a failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from e2e import harness, spec
from e2e.workloads import WORKLOADS
from e2e.workloads.direct_ops import DirectOps

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent


def _smoke_run(workload: str, hashseed: str, tmp_path: Path) -> dict:
    path = tmp_path / f"{workload}-{hashseed}.json"
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke",
         "--trace", "1", "--json", str(path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {name for name, __, __ in spec.per_layer_metrics()}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_conserves_and_repeats(workload: str, tmp_path: Path) -> None:
    first = _smoke_run(workload, "1", tmp_path)
    second = _smoke_run(workload, "2", tmp_path)
    for run in (first, second):
        # Self times (the driver's own ``run`` layer included) add up
        # to the root spans, and the driver's share — its own Python
        # plus the wrapper cost of the calls it makes — stays small.
        assert run["conservation"]["gap_share"] < 0.02
        assert run["conservation"]["driver_share"] < 0.05
        assert run["counters_match"], "tracing changed the program's counters"
    assert first["input_sha256"] == second["input_sha256"]
    for name in sorted(spec.EXACT_LAYER_METRICS):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for metric in spec.END_TO_END:
        if metric.exact:
            name = metric.name
            assert first["end_to_end"][name] == second["end_to_end"][name], name


def test_layers_idle_where_the_workload_says_so(tmp_path: Path) -> None:
    run = _smoke_run("direct_ops", "1", tmp_path)
    calls = {layer: run["metrics"][f"{layer}.calls_per_op"]["value"] for layer in spec.LAYERS}
    for layer in ("fs", "core.engine", "core.operations", "core.compressor",
                  "core.hashtable", "storage.journal", "storage.block_device"):
        assert calls[layer] > 0, layer
    for layer, count in calls.items():
        if layer.split(".")[0] in ("api", "serving", "mvcc", "databases", "distributed", "raft"):
            assert count == 0, layer


class _LyingDirectOps(DirectOps):
    """Returns one extract with a flipped byte."""

    lies = 0

    def execute(self, action: tuple) -> object:
        got = super().execute(action)
        if action[0] == "op_extract" and not self.lies:
            self.lies += 1
            return bytes([got[0] ^ 1]) + got[1:]
        return got


def test_corrupted_read_is_counted_as_failed() -> None:
    honest = harness.run_pass(lambda: DirectOps(7, 128))
    assert honest.failed == 0
    lying = harness.run_pass(lambda: _LyingDirectOps(7, 128))
    assert lying.failed == 1
    assert lying.attempted == honest.attempted


def test_contract_matches_spec() -> None:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["run_seconds"] == spec.RUN_SECONDS
    assert [w["name"] for w in contract["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in contract["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in spec.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == (
        spec.per_layer_metrics()
    )
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
