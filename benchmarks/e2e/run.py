"""The repo's end-to-end benchmark: one command, six workloads.

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                 [--repeats R] [--trace [0|1]] [--smoke]
                                 [--json FILE]

With ``--workload`` it runs that workload in this process and prints, as
the last line of standard output, one JSON object ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (an untraced
pass for the counters and the wall time, then a traced pass for the
spans).  Without ``--workload`` it runs every workload, each repeat in
its own subprocess so ``peak_rss_mb`` is per workload, reports the
median over ``--repeats`` untraced runs and, with ``--trace``, one
traced run per workload.  It exits non-zero if any check fails.

See README.md in this directory for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"

if __package__ in (None, ""):
    # Run as a script: import the directory as the package ``e2e`` and
    # keep it off sys.path itself (trace.py would shadow the stdlib's).
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(HERE.parent), str(REPO / "src")]
    __package__ = "e2e"

from e2e import harness, spec  # noqa: E402
from e2e.workloads import WORKLOADS  # noqa: E402


#: Replays of the timed phase in one untraced run (see harness.run_pass).
REPLAYS = 3


def _timed_actions(name: str, seconds: float, smoke: bool) -> int:
    count = WORKLOADS[name].actions_per_second * seconds
    if smoke:
        count *= harness.SMOKE_SHARE
    return max(64, int(count))


def run_workload(name: str, seed: int, seconds: float, smoke: bool, trace: int) -> dict:
    """Run one workload in this process; returns its full result."""
    cls = WORKLOADS[name]
    count = _timed_actions(name, seconds, smoke)

    def make():
        return cls(seed, count)

    units = {m.name: m.unit for m in spec.END_TO_END}
    units.update({metric: unit for metric, unit, __ in spec.per_layer_metrics()})
    untraced = harness.run_pass(make, replays=1 if trace else REPLAYS)
    workload = untraced.workload
    failed, attempted = untraced.failed, untraced.attempted
    result: dict = {
        "workload": name,
        "why": spec.WORKLOADS[name],
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "trace": trace,
        "flush_policy": workload.flush_policy,
        "load": "closed loop, 1 client thread, 1 outstanding request, no think time",
        "input_sha256": workload.input_sha256,
        "sizes": workload.sizes,
        "timed_actions": len(untraced.timed_actions),
        "ops": untraced.ops,
        "latency_samples": len(untraced.op_wall),
        "timed_phase_s": untraced.wall_s,
        "replays": 1 if trace else REPLAYS,
    }
    if not trace:
        metrics = harness.end_to_end_metrics(untraced)
    else:
        traced = harness.run_pass(make, traced=True)
        failed += traced.failed
        attempted += traced.attempted
        passthrough = None
        if name == "db_mix":
            passthrough = harness.run_pass(
                lambda: cls(seed, count, passthrough=True), verify=False
            )
            failed += passthrough.failed
            attempted += passthrough.attempted
        metrics = harness.layer_metrics(untraced, traced, passthrough)
        result["end_to_end"] = harness.end_to_end_metrics(untraced)
        result["conservation"] = harness.conservation(traced)
        root_s = traced.tracer.root_s
        result["layer_share"] = {
            layer: seconds_ / root_s for layer, seconds_ in traced.tracer.layer_self_s().items()
        }
        result["counters_match"] = _same_counts(untraced, traced)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{name}.json"
        result["trace_events"] = traced.tracer.write_chrome_trace(
            str(trace_path), {"workload": name, "seed": seed, "seconds": seconds}
        )
        result["trace_file"] = str(trace_path.relative_to(REPO))
    result["attempted"] = attempted
    result["failed"] = failed
    result["failed_share"] = failed / attempted
    result["metrics"] = {
        metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()
    }
    return result


def _same_counts(untraced: harness.PassResult, traced: harness.PassResult) -> bool:
    """Tracing must not change what the program does: the program's
    own counters read the same in both passes."""
    keys = [key for key in untraced.counters if not key.startswith("raft.device")]
    return all(untraced.counters[key] == traced.counters.get(key) for key in keys)


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}"
          f"{'  smoke' if result['smoke'] else ''}  trace={result['trace']}")
    print(f"   why: {result['why']}")
    print(f"   load: {result['load']}")
    print(f"   flush policy: {result['flush_policy']}")
    print(f"   input_sha256: {result['input_sha256']}")
    print(f"   sizes: {json.dumps(result['sizes'])}")
    print(f"   timed actions: {result['timed_actions']}  ops: {result['ops']}  "
          f"latency samples: {result['latency_samples']}  "
          f"timed phase: {result['timed_phase_s']:.2f} s")
    for name, entry in result["metrics"].items():
        print(f"   {name:<48} {entry['value']:>16.6g} {entry['unit']}")
    print(f"   {'failed_share':<48} {result['failed_share']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} checks)")
    if "conservation" in result:
        c = result["conservation"]
        print(f"   layer self times sum to {c['self_sum_s']:.4f} s of {c['root_s']:.4f} s "
              f"root spans (gap {c['gap_share']:.2e}, driver's own share "
              f"{c['driver_share']:.2%}); counters equal in both passes: "
              f"{result['counters_match']}; {result['trace_events']} spans in "
              f"{result['trace_file']}")


def _child(name: str, args: argparse.Namespace, trace: int, tag: str) -> dict:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{name}-{tag}.json"
    path.unlink(missing_ok=True)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--json", str(path),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")  # all but the JSON line
    if not path.exists():
        raise SystemExit(f"{name}: run exited {done.returncode} without a result")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_all(args: argparse.Namespace) -> dict:
    """Every workload: ``--repeats`` untraced children, then one traced."""
    report: dict = {"env": environment(), "seed": args.seed, "seconds": args.seconds,
                    "smoke": args.smoke, "repeats": args.repeats, "workloads": {}}
    for name in WORKLOADS:
        runs = [_child(name, args, 0, f"r{i}") for i in range(args.repeats)]
        first = runs[0]
        entry = {
            key: first[key]
            for key in ("why", "load", "flush_policy", "input_sha256", "sizes",
                        "timed_actions", "ops", "latency_samples")
        }
        entry["failed"] = sum(run["failed"] for run in runs)
        entry["attempted"] = sum(run["attempted"] for run in runs)
        entry["end_to_end"] = {}
        for metric in spec.END_TO_END:
            values = [run["metrics"][metric.name]["value"] for run in runs]
            entry["end_to_end"][metric.name] = {
                "unit": metric.unit, "median": statistics.median(values), "values": values,
            }
        if args.trace:
            traced = _child(name, args, 1, "traced")
            entry["failed"] += traced["failed"]
            entry["attempted"] += traced["attempted"]
            entry["per_layer"] = traced["metrics"]
            entry["conservation"] = traced["conservation"]
            entry["layer_share"] = traced["layer_share"]
            entry["counters_match"] = traced["counters_match"]
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        report["workloads"][name] = entry
    return report


def print_report(report: dict) -> None:
    print("\n==== medians over", report["repeats"], "untraced runs per workload ====")
    names = list(report["workloads"])
    print(f"{'metric':<26}{'unit':<8}" + "".join(f"{name:>14}" for name in names))
    for metric in spec.END_TO_END:
        row = "".join(
            f"{report['workloads'][name]['end_to_end'][metric.name]['median']:>14.5g}"
            for name in names
        )
        print(f"{metric.name:<26}{metric.unit:<8}{row}")
    row = "".join(f"{report['workloads'][name]['failed_share']:>14.5g}" for name in names)
    print(f"{'failed_share':<26}{'ratio':<8}{row}")
    if all("layer_share" in report["workloads"][name] for name in names):
        print("\n==== share of traced wall time by layer (self time / root spans) ====")
        print(f"{'layer':<26}" + "".join(f"{name:>14}" for name in names))
        for layer in list(spec.LAYERS) + ["run"]:
            row = "".join(
                f"{report['workloads'][name]['layer_share'][layer]:>13.1%} " for name in names
            )
            print(f"{layer:<26}{row}")


def environment() -> dict:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        head = ""
    return {
        "git_head": head or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="size of the timed phase; op counts scale linearly with it")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload when running all of them")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="1/20 of the actions")
    parser.add_argument("--json", metavar="FILE", help="also write the full result here")
    args = parser.parse_args(argv)

    if args.workload is None:
        report = run_all(args)
        print_report(report)
        ok = all(entry["failed"] == 0 for entry in report["workloads"].values())
        payload: dict = report
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.smoke, args.trace)
        print_result(result)
        ok = result["failed"] == 0
        payload = result
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
    if args.workload is not None:
        print(json.dumps({
            "correct": ok,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
