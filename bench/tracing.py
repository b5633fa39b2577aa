"""Per-layer spans for the traced benchmark run.

``Tracer.install`` wraps each traced public function of lexworld at every
module binding: a name imported with ``from .x import f`` is its own
binding, so each one is replaced.  Methods are wrapped once on their
class.  Spans are kept in memory with their parent for the duration of one
benchmark call (the root span) and folded into per-rung totals when it
ends: a span's self time is its duration minus its child spans.

End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
from time import perf_counter_ns

# Prefix of the stderr line on which a traced CLI child reports its totals.
TRACE_MARK = "BENCH-TRACE "

# Traced functions per layer (module); dotted names are methods.
LAYERS = {
    "words": ("Seq.__post_init__", "Seq.shifts", "Seq.compare",
              "minimal_period", "expansion", "parse_seq", "parse_rational"),
    "central": ("is_balanced", "palindromic_closure", "pal",
                "_central_periods", "is_central", "central_from_slope"),
    "cf": ("cf_of_rational", "directive_from_cf"),
    "mechanical": ("pal_prefix", "characteristic_sturmian_prefix",
                   "mech_periodic"),
    "lexmap": ("F", "phi", "phi_zero_u", "phi_prefix", "phi_sturmian",
               "classify", "verify_phi"),
    "oracle": ("brute_phi", "brute_F"),
    "cli": ("run",),
}
FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items()
                  for name in names)

# Functions whose cost should follow the input size: they get .exponent.
SIZED = ("words.Seq.__post_init__", "words.Seq.shifts", "words.Seq.compare",
         "words.minimal_period", "words.expansion", "central.is_balanced",
         "central.palindromic_closure", "central._central_periods",
         "central.is_central", "central.central_from_slope",
         "mechanical.pal_prefix", "lexmap.F", "lexmap.phi_zero_u",
         "lexmap.phi_prefix", "lexmap.classify", "lexmap.verify_phi",
         "cli.run")

# Work counts read from return values: metric suffix and reader.
COUNTS = {
    "lexmap.verify_phi": ("checks", lambda r: r.checks),
    "words.Seq.shifts": ("returned", len),
    "words.expansion": ("digits", lambda r: len(r.pre) + len(r.per)),
}
# Useful outcomes over calls: metric suffix and test.
HITS = {
    "lexmap.phi_prefix": ("decided_ratio", lambda r: r.decided),
    "central._central_periods": ("hit_ratio", lambda r: r is not None),
}
# Inclusive time of a function over the root call time, on the large rung.
SHARES = ("lexmap.verify_phi", "central._central_periods", "words.expansion")


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for fn in FUNCTIONS:
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_ms", "ms", "lower")]
        if fn in SIZED:
            out.append((f"{fn}.exponent", "log-log", "lower"))
    out += [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    out += [(f"{fn}.{suffix}", "count", "lower") for fn, (suffix, _) in COUNTS.items()]
    out += [(f"{fn}.{suffix}", "ratio", "higher") for fn, (suffix, _) in HITS.items()]
    out += [(f"{fn}.large_share", "ratio", "lower") for fn in SHARES]
    out += [("cli.import_ms", "ms", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
    return out


# Totals per function: [calls, self_ns, count, hits, inclusive_ns].
EMPTY = (0, 0, 0, 0, 0)


def _add(dst: dict, src: dict) -> None:
    for fid, vals in src.items():
        entry = dst.setdefault(fid, list(EMPTY))
        for k, v in enumerate(vals):
            entry[k] += v


def _new_totals() -> dict:
    return {"roots": 0, "root_ns": 0, "fns": {}}


class Tracer:
    """Collects spans below one root span at a time, totals per rung."""

    def __init__(self):
        self.spans: list = []    # (fid, parent index, start ns, end ns)
        self.stack: list[int] = []
        self.rung: str | None = None
        self.rungs: dict[str, dict] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        layer_modules = {layer: importlib.import_module(f"lexworld.{layer}")
                         for layer in LAYERS}
        modules = [m for name, m in sys.modules.items()
                   if name == "lexworld" or name.startswith("lexworld.")]
        for layer, names in LAYERS.items():
            mod = layer_modules[layer]
            for name in names:
                fid = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(mod, cls_name)
                    setattr(owner, attr, self._wrap(fid, owner.__dict__[attr]))
                    continue
                orig = getattr(mod, name)
                wrapped = self._wrap(fid, orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)

    def _wrap(self, fid: str, orig):
        count = COUNTS.get(fid, (None, None))[1]
        hit = HITS.get(fid, (None, None))[1]
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not stack:  # outside a benchmark call
                return orig(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                spans[idx] = (fid, parent, t0, perf_counter_ns())
                stack.pop()
            if count or hit:
                entry = self.rungs[self.rung]["fns"].setdefault(fid, list(EMPTY))
                if count:
                    entry[2] += count(result)
                if hit:
                    entry[3] += bool(hit(result))
            return result

        return traced

    # -- root spans ----------------------------------------------------------

    def begin(self, rung: str) -> None:
        self.rung = rung
        self.rungs.setdefault(rung, _new_totals())
        self.spans.append(("root", -1, perf_counter_ns(), None))
        self.stack.append(0)

    def end(self) -> None:
        self.stack.pop()
        _, _, t0, _ = self.spans[0]
        self.spans[0] = ("root", -1, t0, perf_counter_ns())
        self._fold(self.spans, self.rungs[self.rung])
        self.spans.clear()

    @staticmethod
    def _fold(spans: list, totals: dict) -> None:
        child_ns = [0] * len(spans)
        for fid, parent, t0, t1 in spans[1:]:
            child_ns[parent] += t1 - t0
        fns = totals["fns"]
        for i, (fid, parent, t0, t1) in enumerate(spans):
            if i == 0:
                continue
            entry = fns.setdefault(fid, list(EMPTY))
            entry[0] += 1
            entry[1] += t1 - t0 - child_ns[i]
            p = parent
            while p > 0 and spans[p][0] != fid:
                p = spans[p][1]
            if p <= 0:  # outermost span of this function in the call
                entry[4] += t1 - t0
        totals["roots"] += 1
        totals["root_ns"] += spans[0][3] - spans[0][2]

    def merge(self, child: dict) -> None:
        """Add a traced child process's function totals to the current rung."""
        _add(self.rungs[self.rung]["fns"], child)

    def export(self) -> dict:
        """Function totals over all rungs, for a child process to hand back."""
        out: dict = {}
        for totals in self.rungs.values():
            _add(out, totals["fns"])
        return out

    # -- metrics -------------------------------------------------------------

    def metrics(self, sizes: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics; ``sizes`` maps each rung to its input size."""
        total = self.export()
        out: dict[str, float] = {}
        for fn in FUNCTIONS:
            calls, self_ns = total.get(fn, EMPTY)[:2]
            out[f"{fn}.calls"] = calls
            out[f"{fn}.self_ms"] = self_ns / 1e6
            if fn in SIZED:
                out[f"{fn}.exponent"] = self._exponent(fn, sizes)
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(out[f"{layer}.{n}.self_ms"]
                                          for n in LAYERS[layer])
        for fn, (suffix, _) in COUNTS.items():
            out[f"{fn}.{suffix}"] = total.get(fn, EMPTY)[2]
        for fn, (suffix, _) in HITS.items():
            calls, _, _, hits, _ = total.get(fn, EMPTY)
            out[f"{fn}.{suffix}"] = hits / calls if calls else 0.0
        large = self.rungs.get("large", _new_totals())
        for fn in SHARES:
            incl = large["fns"].get(fn, EMPTY)[4]
            out[f"{fn}.large_share"] = incl / large["root_ns"] if large["root_ns"] else 0.0
        return out

    def _exponent(self, fn: str, sizes: dict[str, int]) -> float:
        """Least-squares slope of log self time per input against log n."""
        xs, ys = [], []
        for rung, totals in self.rungs.items():
            self_ns = totals["fns"].get(fn, EMPTY)[1]
            if rung in sizes and self_ns > 0:
                xs.append(math.log(sizes[rung]))
                ys.append(math.log(self_ns / totals["roots"]))
        return statistics.linear_regression(xs, ys).slope if len(xs) > 1 else 0.0
