"""Compare two result files of ``run.py --json``, metric by metric.

    python benchmarks/e2e/check.py A.json B.json [--same-code]

A is the parent (or the first set of runs), B the change (or the second
set).  One row per (workload, metric) with a verdict:

* ``equal``        — the medians are identical;
* ``within bound`` — B's median is no worse than A's by more than the
  metric's ``bound`` in BENCHMARK.json (an improvement is within bound);
* ``unresolved``   — the run-to-run spread of either side is wider than
  the bound, and not every run of B reads better than every run of A;
* ``worse``        — B's median is worse than A's by more than the bound,
  or an op failed its check.

Metrics that only count (SimClock time, bytes, calls) repeat exactly for
one seed.  With ``--same-code`` — two sets of runs of the same commit —
any difference in them is ``worse``; between two commits they are held
to their bound like the rest.  Per-layer metrics have no bound: a counted
one that differs between two commits reads ``changed``, a wall-time one
``info``.  Exit code 1 if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

if __package__ in (None, ""):
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path.insert(0, str(HERE.parent))
    __package__ = "e2e"

from e2e import spec  # noqa: E402


def load_bounds() -> dict[str, tuple[str, float]]:
    """metric -> (better, bound) from BENCHMARK.json."""
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in contract["end_to_end"]}


def worsening(better: str, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / abs(a) if a else float(b != a)
    return -change if better == "higher" else change


def spread(values: list[float], median: float) -> float:
    return (max(values) - min(values)) / abs(median) if median else 0.0


def verdict_bounded(
    better: str, bound: float, a: dict, b: dict, exact: bool, same_code: bool
) -> tuple[str, float]:
    worse_by = worsening(better, a["median"], b["median"])
    if a["median"] == b["median"]:
        return "equal", 0.0
    if exact:
        if same_code:
            return "worse", worse_by
        return ("worse" if worse_by > bound else "within bound"), worse_by
    wide = max(spread(a["values"], a["median"]), spread(b["values"], b["median"])) > bound
    if wide:
        if better == "higher":
            all_better = min(b["values"]) > max(a["values"])
        else:
            all_better = max(b["values"]) < min(a["values"])
        return ("within bound" if all_better else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "within bound"), worse_by


def compare(first: dict, second: dict, same_code: bool) -> list[tuple]:
    """Rows of (workload, metric, unit, a, b, change, verdict)."""
    bounds = load_bounds()
    exact = {m.name for m in spec.END_TO_END if m.exact}
    rows: list[tuple] = []
    for workload in spec.WORKLOADS:
        a_entry = first["workloads"].get(workload)
        b_entry = second["workloads"].get(workload)
        if a_entry is None or b_entry is None:
            rows.append((workload, "(workload)", "", 0.0, 0.0, 0.0, "worse"))
            continue
        failed = a_entry["failed"] + b_entry["failed"]
        rows.append(
            (workload, "failed_share", "ratio", a_entry["failed_share"],
             b_entry["failed_share"], 0.0, "worse" if failed else "equal")
        )
        for metric in spec.END_TO_END:
            a = a_entry["end_to_end"][metric.name]
            b = b_entry["end_to_end"][metric.name]
            better, bound = bounds[metric.name]
            verdict, worse_by = verdict_bounded(
                better, bound, a, b, metric.name in exact, same_code
            )
            rows.append(
                (workload, metric.name, metric.unit, a["median"], b["median"], worse_by, verdict)
            )
        a_layers = a_entry.get("per_layer", {})
        b_layers = b_entry.get("per_layer", {})
        for name, unit, better in spec.per_layer_metrics():
            if name not in a_layers or name not in b_layers:
                continue
            a_value, b_value = a_layers[name]["value"], b_layers[name]["value"]
            worse_by = worsening(better, a_value, b_value)
            if a_value == b_value:
                verdict = "equal"
            elif name in spec.EXACT_LAYER_METRICS:
                verdict = "worse" if same_code else "changed"
            else:
                verdict = "info"
            rows.append((workload, name, unit, a_value, b_value, worse_by, verdict))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", help="result file of the parent / first set of runs")
    parser.add_argument("second", help="result file of the change / second set of runs")
    parser.add_argument("--same-code", action="store_true",
                        help="both files measure one commit: exact metrics must be identical")
    parser.add_argument("--all", action="store_true",
                        help="also print per-layer rows that are equal")
    args = parser.parse_args(argv)
    with open(args.first, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(args.second, encoding="utf-8") as handle:
        second = json.load(handle)
    rows = compare(first, second, args.same_code)
    end_to_end = {m.name for m in spec.END_TO_END} | {"failed_share", "(workload)"}
    print(f"{'workload':<14}{'metric':<46}{'A':>14}{'B':>14} {'unit':<7}{'worse by':>10}  verdict")
    counts: dict[str, int] = {}
    for workload, metric, unit, a, b, worse_by, verdict in rows:
        counts[verdict] = counts.get(verdict, 0) + 1
        if verdict == "equal" and metric not in end_to_end and not args.all:
            continue
        print(f"{workload:<14}{metric:<46}{a:>14.6g}{b:>14.6g} {unit:<7}{worse_by:>+10.2%}  {verdict}")
    print("  ".join(f"{verdict}: {count}" for verdict, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
