"""A fresh benchmark process, started by run.py.

``worker.py setup`` times ``import lexworld`` plus the fixed warm-up call
set.  ``worker.py run WORKLOAD SEED SECONDS TRACE`` measures one workload
with a single closed-loop caller (one call at a time, no threads) and
prints its figures as one JSON line.
"""

from __future__ import annotations

import json
import math
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads
from hostspeed import PROBE_REF_S, probe_s
from tracing import Tracer

SRC = workloads.ROOT / "src"


def import_lexworld():
    """lexworld from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import lexworld
    if Path(lexworld.__file__).resolve().parent != SRC / "lexworld":
        raise SystemExit(f"lexworld imported from {lexworld.__file__}, not {SRC}")
    return lexworld


def warm_up(lw) -> None:
    """The fixed call set that set-up time includes."""
    from fractions import Fraction
    lw.phi_zero_u(lw.Seq("", "010010011"))
    lw.phi(lw.Seq("0", "1100"))
    lw.phi_prefix("010010101")
    lw.F(Fraction(2, 5))
    lw.central_from_slope(5, 13)
    lw.phi_sturmian(lw.Seq("", "01")).phi_value_prefix(32)


def setup_main() -> None:
    t0 = perf_counter()
    lw = import_lexworld()
    t1 = perf_counter()
    warm_up(lw)
    t2 = perf_counter()
    import lexworld.cli  # noqa: F401  (argparse and the CLI module)
    t3 = perf_counter()
    scale = PROBE_REF_S / probe_s()
    print(json.dumps({"setup_s": (t2 - t0) * scale, "wall_setup_s": t2 - t0,
                      "import_ms": 1e3 * ((t1 - t0) + (t3 - t2))}))


def percentile(xs: list[float], f: float) -> float:
    """Linear interpolation between order statistics; failures are inf."""
    s = sorted(xs)
    pos = f * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    if pos == lo or s[lo] == math.inf:
        return s[lo]
    if s[hi] == math.inf:
        return math.inf
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Tally:
    """Failures and busy time of the calls made."""

    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self.attempted = self.failed = 0
        self.busy_s = 0.0
        self.errors: list[str] = []    # unexpected failures
        self.defects: list[str] = []   # documented defects that showed
        self.fixed: list[str] = []     # documented defects that did not
        self.peak_rss_mb = 0.0
        self.last_probe_s: float | None = None

    def probe(self) -> float:
        self.last_probe_s = probe_s()
        return self.last_probe_s

    def execute(self, rung: str, case, tracer) -> tuple[float, float]:
        """Make one checked call.  Returns its time in seconds scaled to
        the host's reference speed (see hostspeed.py) and its wall time,
        both inf if it failed.  The host-speed probe taken after one call
        serves as the probe before the next.

        A call that checks a documented defect is reported on its own and
        not counted among the calls attempted, so ``failed`` counts only
        calls that should have succeeded.
        """
        before = self.last_probe_s or self.probe()
        if tracer is not None:
            tracer.begin(rung)
        t0 = perf_counter()
        try:
            result, error = case.call(tracer), None
        except Exception as exc:  # a raising call is a failed call
            result, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.end()
        scaled = dt * PROBE_REF_S / ((before + self.probe()) / 2)
        if error is None and dt > self.budget_s:
            error = f"overran the {self.budget_s:g} s budget"
        if error is None:
            try:
                error = case.check(result)
            except Exception as exc:  # malformed output
                error = f"unreadable result: {type(exc).__name__}: {exc}"
        if case.defect is not None:
            if error is None:
                self.fixed.append(case.defect)
            else:
                self.defects.append(f"{case.defect}: {error}")
            return (math.inf, math.inf) if error else (scaled, dt)
        self.attempted += 1
        self.busy_s += dt
        if error is not None:
            self.failed += 1
            self.errors.append(f"{rung} {case.kind}: {error}")
        return (math.inf, math.inf) if error else (scaled, dt)


def measure(wl, lw, seed: int, seconds: float,
            tally: Tally) -> tuple[list, list[tuple[float, float]]]:
    """Run the size ladder for ``seconds`` of call time, then the refusal
    slice, if any.  Returns the calls made, in order, and the scaled and
    wall time of each ladder call (inf for a failed one)."""
    rngs = {r: random.Random(f"{seed}:{wl.name}:{r}") for r in wl.sizes}
    ran: list = []
    times: list[tuple[float, float]] = []
    used = dict.fromkeys(wl.sizes, 0.0)
    counts = dict.fromkeys(wl.sizes, 0)
    while tally.busy_s < seconds or not all(counts.values()):
        rung = min(wl.sizes, key=lambda r: used[r] / wl.shares[r])
        cycle, rng = wl.kinds[rung], rngs[rung]
        n = round(wl.sizes[rung] * 10 ** (wl.bands[rung] * rng.uniform(-1, 1)))
        case = wl.make(lw, rng, n, cycle[counts[rung] % len(cycle)])
        counts[rung] += 1
        times.append(tally.execute(rung, case, None))
        used[rung] += min(times[-1][1], wl.budget_s)
        ran.append((rung, case))
    # Peak memory of the ladder alone: the budget case of the refusal
    # slice grows until it is killed.
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    tally.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    for case in wl.refusals() if wl.refusals else ():
        tally.execute("refusal", case, None)
        ran.append(("refusal", case))
    return ran, times


def run_main(name: str, seed: int, seconds: float, trace: bool) -> None:
    lw = import_lexworld()
    warm_up(lw)
    wl = workloads.WORKLOADS[name]
    untraced = Tally(wl.budget_s)
    out: dict = {}
    if not trace:
        ran, times = measure(wl, lw, seed, seconds, untraced)
        samples: dict[str, list[tuple[float, float]]] = {}
        for (rung, _), t in zip(ran, times):
            samples.setdefault(rung, []).append(t)
        out["latency"] = {
            r: {"p50": percentile([1e3 * t for t, _ in xs], 0.5),
                "p90": percentile([1e3 * t for t, _ in xs], 0.9),
                "wall_p50": percentile([1e3 * w for _, w in xs], 0.5),
                "n": len(xs)} for r, xs in samples.items()}
        done = [t for t, _ in times if t != math.inf]
        out["calls_per_s"] = len(done) / sum(done)
        out["wall_calls_per_s"] = len(done) / sum(w for _, w in times if w != math.inf)
        out["completed"] = len(done)
        out["peak_rss_mb"] = untraced.peak_rss_mb
        tallies = [untraced]
    else:
        # The same calls twice: untraced for the overhead base, then traced.
        ran, _ = measure(wl, lw, seed, seconds / 3, untraced)
        tracer = Tracer()
        tracer.install()
        traced = Tally(wl.budget_s)
        for rung, case in ran:
            traced.execute(rung, case, tracer)
        out["per_layer"] = tracer.metrics(wl.sizes)
        out["per_layer"]["trace.overhead_ratio"] = traced.busy_s / untraced.busy_s
        tallies = [untraced, traced]
    out["attempted"] = sum(t.attempted for t in tallies)
    out["failed"] = sum(t.failed for t in tallies)
    out["errors"] = [e for t in tallies for e in t.errors][:10]
    out["defects"] = sorted({d for t in tallies for d in t.defects})
    out["fixed"] = sorted({d for t in tallies for d in t.fixed})
    print(json.dumps(out))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup_main()
    else:
        _, _, workload, seed, seconds, trace = sys.argv
        run_main(workload, int(seed), float(seconds), trace == "1")
