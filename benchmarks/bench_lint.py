"""reprolint smoke benchmark: the analyzer must stay CI-cheap.

Lints the full ``src/repro`` tree as one program (file walk + parse +
symbol tables + call graph + summaries + every rule) and reports the
wall time.  The acceptance gate is that a whole-tree run finishes in a
few seconds — the CI lint job runs before the tier-1 tests, so a slow
analyzer would tax every push.

Runnable standalone (``python benchmarks/bench_lint.py [--smoke]``) or
under pytest with the rest of the benchmark suite.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import default_target, run_paths
from repro.bench import print_table

#: Whole-tree budget, generous for slow CI machines; a typical laptop
#: run is well under a second.
FULL_TREE_BUDGET_S = 10.0
SMOKE_RULES = ["IO001"]  # cheapest single rule for the reduced run


def run_once(rules=None):
    """(report, wall seconds) for one whole-tree lint."""
    start = time.perf_counter()
    report = run_paths([default_target()], rules=rules)
    return report, time.perf_counter() - start


def run_all(smoke: bool = False) -> list[dict]:
    results = []
    passes = [("all rules", None)]
    if not smoke:
        passes.append(("single rule (IO001)", SMOKE_RULES))
    for label, rules in passes:
        report, wall = run_once(rules)
        results.append(
            {
                "pass": label,
                "files": report.files_scanned,
                "wall_s": wall,
                "active": len(report.active),
                "suppressed": len(report.suppressed),
            }
        )
    return results


def report_results(results: list[dict]) -> float:
    rows = [
        [
            entry["pass"],
            f"{entry['files']}",
            f"{entry['wall_s'] * 1e3:.0f}",
            f"{entry['wall_s'] * 1e3 / max(1, entry['files']):.1f}",
            f"{entry['active']}",
            f"{entry['suppressed']}",
        ]
        for entry in results
    ]
    print_table(
        ["pass", "files", "wall ms", "ms/file", "active", "suppressed"],
        rows,
        title="reprolint whole-tree analysis cost",
    )
    return max(entry["wall_s"] for entry in results)


def _check(results: list[dict]) -> None:
    slowest = max(entry["wall_s"] for entry in results)
    assert slowest <= FULL_TREE_BUDGET_S, (
        f"whole-tree lint took {slowest:.2f}s, budget is {FULL_TREE_BUDGET_S}s"
    )
    assert results[0]["active"] == 0, (
        "the shipped tree must lint clean, "
        f"found {results[0]['active']} violation(s)"
    )


def test_lint_smoke(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report_results(results)
    _check(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="single pass for CI smoke runs"
    )
    args = parser.parse_args(argv)
    results = run_all(smoke=args.smoke)
    report_results(results)
    _check(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
