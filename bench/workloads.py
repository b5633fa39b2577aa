"""The four benchmark workloads: size ladders, call mixes and checks.

Each workload has three rungs (small, medium, large) of nominal input size
n and a fixed cycle of call kinds per rung, so a run's mix does not depend
on the seed.  Each input's size is drawn log-uniformly within the rung's
band around n.  ``make`` builds one input of a given size from the rung's
own random stream before the clock starts and returns a ``Case``: the
timed call and the independent check of its result.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import check
import gen
from tracing import TRACE_MARK

ROOT = Path(__file__).resolve().parents[1]
CLI_CHILD = Path(__file__).resolve().with_name("cli_child.py")

# A call that runs longer than this fails.  Library calls are judged after
# they return; CLI processes are killed.
LIBRARY_BUDGET_S = 30.0
CLI_BUDGET_S = 3.0

RUNGS = ("small", "medium", "large")


@dataclass
class Case:
    kind: str
    call: Callable[[object], object]     # takes the tracer (None untraced)
    check: Callable[[object], str | None]
    defect: str | None = None            # documented defect expected to fail


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, int]                # rung -> nominal input size n
    bands: dict[str, float]              # rung -> half-width in decades
    shares: dict[str, float]             # rung -> share of measured time
    kinds: dict[str, tuple[str, ...]]    # rung -> cycle of call kinds
    make: Callable                       # (lw, rng, n, kind) -> Case
    in_process: bool = True              # False: each call is a child process
    refusals: Callable[[], list[Case]] | None = None

    @property
    def budget_s(self) -> float:
        return LIBRARY_BUDGET_S if self.in_process else CLI_BUDGET_S


def _seq_parts(s) -> tuple[str, str]:
    return s.pre, s.per


# -- phi_periodic ---------------------------------------------------------------


def _phi_periodic(lw, rng: random.Random, n: int, kind: str) -> Case:
    k = gen.known_phi(rng, n, n,
                      characteristic_share=1.0 if kind == "characteristic" else 0.0)
    if kind == "phi":
        a = lw.Seq("0" + k.pre, k.per)
        call = lambda tracer: lw.phi(a)  # noqa: E731
    else:
        u = lw.Seq(k.pre, k.per)
        call = lambda tracer: lw.phi_zero_u(u)  # noqa: E731
    return Case(kind, call,
                lambda r: check.check_phi((k.pre, k.per), _seq_parts(r.phi), k.w))


# -- prefix_decide --------------------------------------------------------------


def _prefix_decide(lw, rng: random.Random, n: int, kind: str) -> Case:
    if kind == "phi_sturmian":
        pre, per = gen.random_directive(rng)
        delta = lw.Seq(pre, per)
        return Case(kind, lambda tracer: lw.phi_sturmian(delta).phi_value_prefix(n),
                    lambda out: check.check_sturmian((pre, per), n, out))
    known_w = None
    if kind == "known":
        word, known_w = gen.known_prefix(rng, n)
    elif kind == "random":
        word = gen.random_word(rng, n)
    else:  # characteristic Sturmian prefix: undecided is legitimate
        word = gen.sturmian_prefix(*gen.random_directive(rng), n)

    def verdict(d):
        answer = _seq_parts(d.result.phi) if d.decided else None
        return check.check_prefix(word, d.decided, answer, known_w)

    return Case(kind, lambda tracer: lw.phi_prefix(word), verdict)


# -- F_rationals ----------------------------------------------------------------


def _f_input(rng: random.Random, n: int, kind: str) -> tuple[Fraction, str | None]:
    """x for F and its known central word, if the construction fixes one."""
    if kind == "dyadic":
        return Fraction(2 * rng.randrange(1 << (n - 2)) + 1, 1 << n), None
    if kind == "value":
        k = gen.known_phi(rng, 98, 102)
        return Fraction(*gen.seq_value("0" + k.pre, k.per)), k.w
    b = gen.full_period_prime(n)
    if kind == "high":
        return Fraction(rng.randint(b // 2 + 1, b - 1), b), None
    return Fraction(rng.randint(1, b // 2), b), None


def _f_rationals(lw, rng: random.Random, n: int, kind: str) -> Case:
    x, known_w = _f_input(rng, n, kind)
    return Case(kind, lambda tracer: lw.F(x),
                lambda r: check.check_F(x.numerator, x.denominator, r.F,
                                        _seq_parts(r.phi_expansion), known_w))


# -- cli_mix --------------------------------------------------------------------


# CLI children import lexworld from this tree's src/ first.
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}


def _run_cli(args: list[str], tracer):
    """One ``python -m lexworld`` process; None when it overran the budget."""
    if tracer is None:
        cmd = [sys.executable, "-m", "lexworld", *args]
    else:
        cmd = [sys.executable, str(CLI_CHILD), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV,
                              timeout=CLI_BUDGET_S, check=False)
    except subprocess.TimeoutExpired:
        return None
    if tracer is not None:
        lines = proc.stderr.splitlines()
        tracer.merge(json.loads(lines[-1][len(TRACE_MARK):]))
        proc.stderr = "\n".join(lines[:-1])
    return proc


def _fields(proc) -> dict[str, str]:
    if proc.stdout.startswith("{"):
        return {k: "none" if v is None else str(v).lower() if isinstance(v, bool)
                else str(v) for k, v in json.loads(proc.stdout).items()}
    out = {}
    for line in proc.stdout.splitlines():
        key, _, val = line.partition(" = ")
        out[key] = val
    return out


def _seq_text(text: str) -> tuple[str, str]:
    pre, _, rest = text.partition("(")
    return pre, rest[:-1]


def _cli_check(judge: Callable[[dict], str | None], codes=(0,)):
    def verdict(proc) -> str | None:
        if proc is None:
            return f"overran the {CLI_BUDGET_S:g} s budget"
        if proc.returncode not in codes:
            return f"exit {proc.returncode}: {proc.stderr.strip()[:120]}"
        return judge(_fields(proc))
    return verdict


def _check_F_fields(x: Fraction, known_w: str | None = None, oracle: bool = False):
    def judge(f: dict) -> str | None:
        if oracle and f.get("oracle_agrees") != "true":
            return "oracle disagrees"
        answer = _seq_text(f["phi"]) if "phi" in f else None
        return check.check_F(x.numerator, x.denominator, Fraction(f["F"]),
                             answer, known_w)
    return judge


def _check_phi_fields(k: gen.KnownPhi, oracle: bool = False):
    def judge(f: dict) -> str | None:
        if oracle and f.get("oracle_agrees") != "true":
            return "oracle disagrees"
        return check.check_phi((k.pre, k.per), _seq_text(f["phi"]), k.w)
    return judge


def _cli_command(rng: random.Random, n: int, kind: str):
    """(argv, judge, accepted exit codes) for one CLI call of size n."""
    if kind == "F":
        b = gen.full_period_prime(10 * n)
        x = Fraction(rng.randint(1, b - 1), b)
        return ["F", str(x)], _check_F_fields(x), (0,)
    if kind == "F_json":
        b = gen.full_period_prime(10 * n)
        x = Fraction(rng.randint(1, b // 2), b)
        return ["--emit", "json", "F", str(x)], _check_F_fields(x), (0,)
    if kind == "F_check":  # the oracle searches periods <= 8
        k = gen.known_phi(rng, 3, 8)
        x = Fraction(*gen.seq_value("0" + k.pre, k.per))
        return ["F", str(x), "--check", "8"], _check_F_fields(x, k.w, True), (0,)
    if kind == "phi_check":
        k = gen.known_phi(rng, 3, 8)
        return (["phi", f"{k.pre}({k.per})", "--check", "8"],
                _check_phi_fields(k, True), (0,))
    if kind == "phi":
        k = gen.known_phi(rng, n, 2 * n)
        return ["phi", f"{k.pre}({k.per})"], _check_phi_fields(k), (0,)
    if kind == "phi_directive":
        pre, per = gen.random_directive(rng)
        return (["phi", "--directive", f"{pre}({per})", "-n", str(n)],
                lambda f: check.check_sturmian((pre, per), n, f["prefix"]), (0,))
    if kind == "phi_prefix":
        if rng.random() < 0.5:
            word, w = gen.known_prefix(rng, n)
        else:
            word, w = gen.random_word(rng, n), None

        def judge(f: dict) -> str | None:
            decided = f["decided"] == "true"
            answer = _seq_text(f["phi"]) if decided else None
            return check.check_prefix(word, decided, answer, w)
        return ["phi-prefix", word], judge, (0, 2)
    if kind == "central_make":
        p, q = gen.coprime_slope(rng, n, 2 * n)
        w = gen.central_word(p, q)
        return ["central-make", f"{p}/{q}"], lambda f: None if f["w"] == w else "wrong w", (0,)
    if kind == "classify":
        k = gen.known_phi(rng, n, 2 * n)
        want = "generic" if k.flip is not None else "characteristic_periodic_balanced"
        q = str(len(k.w) + 2)
        return (["classify", f"{k.pre}({k.per})"],
                lambda f: None if f["class"] == want and f.get("q", q) == q
                else f"class {f['class']}", (0,))
    if kind == "verify":
        k = gen.known_phi(rng, n, 2 * n)
        return (["verify", f"{k.pre}({k.per})", f"(1{k.w}0)"],
                lambda f: None if f["verified"] == "true" else "not verified", (0,))
    if kind == "mech":
        p, q = gen.coprime_slope(rng, n, 2 * n)
        want = gen.floor_word(p, q, n)
        return (["mech", "--alpha", f"{p}/{q}", "-n", str(n)],
                lambda f: None if f["digits"] == want
                and f["sequence"] == f"({gen.floor_word(p, q)})" else "wrong digits", (0,))
    if kind == "sturmian_prefix":
        pre, per = gen.random_directive(rng)
        want = gen.sturmian_prefix(pre, per, n)
        return (["sturmian-prefix", "--directive", f"{pre}({per})", "-n", str(n)],
                lambda f: None if f["prefix"] == want else "wrong prefix", (0,))
    if kind == "pal":
        p, q = gen.coprime_slope(rng, n, 2 * n)
        w = gen.central_word(p, q)
        return (["pal", gen.slope_directive(p, q)],
                lambda f: None if f["pal"] == w else "wrong pal", (0,))
    raise ValueError(kind)


def _cli_mix(lw, rng: random.Random, n: int, kind: str) -> Case:
    argv, judge, codes = _cli_command(rng, n, kind)
    return Case(kind, lambda tracer: _run_cli(argv, tracer),
                _cli_check(judge, codes))


# Documented-invalid inputs must exit 1.  The last three are known parser
# defects: lexworld accepts them today.  They and the long-period F below,
# which overruns the budget, are defect checks: each is reported, but none
# is counted among the calls attempted or failed.
REFUSALS = (
    (["F", "3/2"], None),
    (["F", "-1/3"], None),
    (["phi", "01(10"], None),
    (["phi", "0(1)1"], None),
    (["phi-prefix", ""], None),
    (["F", "1_000/3001"], "parse_rational accepts '_' digit separators"),
    (["F", "١/٣"], "parse_rational accepts non-ASCII digits"),
    (["F", " 1/3 "], "parse_rational accepts padding spaces"),
)
BUDGET_CASE = (["F", "354224848179261915075/927372692193078999176"],
               "F expands the full period of x and overruns the budget")


def _refusal_slice() -> list[Case]:
    def refused(proc) -> str | None:
        if proc is None:
            return f"overran the {CLI_BUDGET_S:g} s budget"
        if proc.returncode != 1 or proc.stdout:
            return f"expected a refusal (exit 1), got exit {proc.returncode}"
        return None

    cases = [Case("refusal", lambda tracer, a=argv: _run_cli(a, tracer),
                  refused, defect) for argv, defect in REFUSALS]
    argv, defect = BUDGET_CASE
    x = Fraction(argv[1])
    cases.append(Case("budget", lambda tracer: _run_cli(argv, tracer),
                      _cli_check(_check_F_fields(x)), defect))
    return cases


CLI_KINDS = ("F", "phi", "phi_check", "phi_directive", "phi_prefix",
             "central_make", "classify", "verify", "mech", "sturmian_prefix",
             "pal", "F_json", "F_check")

# Bands: rungs whose inputs would otherwise cost all the same draw sizes
# from a narrow band, so that their times spread a little and do not form
# one tight cluster; every band widens the spread of a run's percentiles
# between seeds, so none is wider than it needs to be.  phi_periodic needs
# no band: at a fixed period q the random slope and flip already spread
# the cost of its calls by about a third.
WORKLOADS = {
    "phi_periodic": Workload(
        "phi_periodic", {"small": 100, "medium": 316, "large": 1000},
        dict.fromkeys(RUNGS, 0.0),
        {"small": 0.1, "medium": 0.3, "large": 0.6},
        dict.fromkeys(RUNGS, ("zero_u", "phi", "zero_u", "characteristic", "zero_u")),
        _phi_periodic),
    "prefix_decide": Workload(
        "prefix_decide", {"small": 100, "medium": 316, "large": 1000},
        dict.fromkeys(RUNGS, 0.05),
        {"small": 0.15, "medium": 0.35, "large": 0.5},
        dict.fromkeys(RUNGS, ("known", "random", "known", "sturmian", "known",
                              "phi_sturmian", "known", "known")),
        _prefix_decide),
    "F_rationals": Workload(
        "F_rationals", {"small": 1000, "medium": 10000, "large": 100000},
        {"small": 0.05, "medium": 0.05, "large": 0.02},
        {"small": 0.1, "medium": 0.3, "large": 0.6},
        {"small": ("low", "high", "low", "dyadic", "low", "value"),
         "medium": ("low", "low", "high"), "large": ("low", "low", "high")},
        _f_rationals),
    "cli_mix": Workload(
        "cli_mix", {"small": 10, "medium": 30, "large": 100},
        dict.fromkeys(RUNGS, 0.0),
        {"small": 0.34, "medium": 0.33, "large": 0.33},
        dict.fromkeys(RUNGS, CLI_KINDS),
        _cli_mix, False, _refusal_slice),
}
