"""lexworld benchmark: known-answer size ladders through the library and CLI.

    python3 bench/run.py --workload phi_periodic --seed 1 --seconds 20 --trace 0

Runs from the root of a lexworld checkout and measures the lexworld in its
src/.  Set-up time comes from fresh processes; one further process then
measures the workload with a single closed-loop caller and checks every
answer independently.  Prints each metric by name with its unit and sample
count, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a separate traced pass with
``--trace 1``.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 8

# Layer separation the workloads were chosen for, checked on traced runs:
# (metric, relation, value).  A miss is reported, not counted as a failure.
PREDICTIONS = {
    "phi_periodic": (("words.expansion.calls", "==", 0),
                     ("lexmap.verify_phi.large_share", ">", 0.5)),
    "prefix_decide": (("lexmap.verify_phi.calls", "==", 0),
                      ("words.expansion.calls", "==", 0),
                      ("central._central_periods.large_share", ">", 0.5)),
    "F_rationals": (("words.expansion.large_share", ">", 0.5),),
}
DEADLINE_S = 170.0   # a run must end well within three minutes


def _worker(args: list[str], deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, check=False,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    # The first set-up process compiles bytecode and fills file caches, so it
    # is discarded.  Half the samples come after the run, so that they see
    # the host at two moments.
    setups = [_worker(["setup"], deadline) for _ in range(SETUP_SAMPLES // 2 + 1)][1:]
    res = _worker(["run", name, str(seed), str(seconds), "1" if trace else "0"],
                  deadline)
    setups += [_worker(["setup"], deadline) for _ in range(SETUP_SAMPLES // 2)]
    lines: list[tuple[str, float, str, str]] = []   # name, value, unit, note
    if trace:
        layer = res["per_layer"]
        layer["cli.import_ms"] = statistics.median(s["import_ms"] for s in setups)
        for metric, unit, _ in tracing.metric_names():
            lines.append((metric, layer[metric], unit, ""))
        for metric, rel, want in PREDICTIONS.get(name, ()):
            holds = layer[metric] == want if rel == "==" else layer[metric] > want
            print(f"{name:14} prediction {metric} {rel} {want}: "
                  f"{'holds' if holds else 'DOES NOT HOLD'} ({layer[metric]:.4g})")
    else:
        wall_setup = statistics.median(s["wall_setup_s"] for s in setups)
        lines.append(("setup_s", statistics.median(s["setup_s"] for s in setups), "s",
                      f"n={SETUP_SAMPLES} processes, wall {wall_setup:.4g} s"))
        lines.append(("calls_per_s", res["calls_per_s"], "1/s",
                      f"n={res['completed']} calls, wall {res['wall_calls_per_s']:.4g}/s"))
        for rung in workloads.RUNGS:
            lat = res["latency"][rung]
            for pct in ("p50", "p90") if rung != "large" else ("p50",):
                lines.append((f"latency_ms.{pct}.{rung}", lat[pct], "ms",
                              f"n={lat['n']} calls, size {workloads.WORKLOADS[name].sizes[rung]}"
                              + (f", wall p50 {lat['wall_p50']:.4g} ms" if pct == "p50" else "")))
        lines.append(("peak_rss_mb", res["peak_rss_mb"], "MB", "ru_maxrss"))
    for metric, value, unit, note in lines:
        print(f"{name:14} {metric:42} {value:14.6g} {unit:8} {note}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"{name:14} fail_ratio = {failed}/{attempted} = {failed / attempted:.4f}")
    for d in res["defects"]:
        print(f"{name:14} documented defect still shows (not counted): {d}")
    for d in res["fixed"]:
        print(f"{name:14} documented defect no longer shows: {d}")
    for e in res["errors"]:
        print(f"{name:14} FAILED: {e}")
    return {"correct": not res["errors"], "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": u} for m, v, u, _ in lines}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (workloads.ROOT / "src" / "lexworld" / "__init__.py").is_file():
        print(f"error: no lexworld sources under {workloads.ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # One caller on one CPU: the benchmark and every process it starts stay
    # on the highest-numbered CPU allowed, since CPUs of a shared machine
    # can differ in speed and migrating between them adds noise.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + DEADLINE_S
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if args.workload == "all":  # each workload gets the full time limit
            deadline = time.monotonic() + DEADLINE_S
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), deadline)
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{n}.{m}": v for n, r in results.items()
                               for m, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
