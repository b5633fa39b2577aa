"""Brute-force reference implementations.

Everything here exists to be obviously correct, not fast, and shares no
logic with the fast paths: feasibility is raw lexicographic comparison
over enumerated periodic candidates, and central words are recognised by
the balance definition instead of the period pairing.  Used by the test
suite and by the CLI --check flag.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .central import is_balanced
from .errors import DomainError, InvariantError, Value
from .words import Seq, expansion, numeral


class SweepConfig(Value):
    """Bounds of the exhaustive searches; an immutable value."""

    __slots__ = ("max_period",)

    def __init__(self, max_period: int = 8):
        if max_period < 1 or max_period > 16:
            raise DomainError("max_period must lie in 1..16 (exponential search)")
        object.__setattr__(self, "max_period", max_period)


def _necklace_candidates(max_period: int):
    # One representative per periodic shift-orbit: primitive words that are
    # the least among their rotations.
    for n in range(1, max_period + 1):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            rots = [w[i:] + w[:i] for i in range(n)]
            if w == min(rots) and rots.count(w) == 1:
                yield w


def _min_top(bound: Seq, max_period: int) -> Seq:
    """Least possible supremum-of-shifts among periodic sequences whose
    every shift is >= bound."""
    best: Seq | None = None
    for w in _necklace_candidates(max_period):
        shifts = [Seq("", w[i:] + w[:i]) for i in range(len(w))]
        if all(s >= bound for s in shifts):
            top = max(shifts)
            if best is None or top < best:
                best = top
    if best is None:
        raise DomainError(
            f"no feasible periodic sequence with period <= {max_period}")
    # paranoia: re-check the reported answer from scratch
    if not all(s >= bound for s in best.shifts()):
        raise InvariantError(f"oracle answer {best} has a shift below {bound}")
    if best != max(best.shifts()):
        raise InvariantError(f"oracle answer {best} is not its greatest shift")
    return best


def brute_phi(u: Seq, cfg: SweepConfig = SweepConfig()) -> Seq:
    """phi(0u) by exhaustive search over periodic candidates.

    Valid whenever the true answer has period length within the bound,
    which callers check by comparing against the fast path.
    """
    return _min_top(u.prepend("0"), cfg.max_period)


def brute_F(x: Fraction, cfg: SweepConfig = SweepConfig()) -> Fraction:
    """F(x) by the same exhaustive search, bounded below by the smaller
    expansion of x (so dyadic x constrains exactly like the real x)."""
    from fractions import Fraction
    x = Fraction(x)
    if x < 0 or x > 1:
        raise DomainError(f"F is defined on [0, 1], got {numeral(x)}")
    return _min_top(expansion(x), cfg.max_period).value()


def brute_verify_phi(u: Seq, b: Seq) -> VerifyReport:
    """``lexmap.verify_phi`` shift by shift, its reference: the three
    bounds on each of the |pre| + |per| distinct shifts of b, in order,
    then balance, in a VerifyReport of 3(|pre| + |per|) + 1 checks with
    one failure line per failed check."""
    from .lexmap import VerifyReport  # `lexworld oracle phi` skips lexmap
    failures: list[str] = []
    zero_u, one_u = u.prepend("0"), u.prepend("1")
    for t in b.shifts():
        if not zero_u <= t:
            failures.append(f"shift {t} is below the lower bound 0u = {zero_u}")
        if not t <= one_u:
            failures.append(f"shift {t} is above the upper bound 1u = {one_u}")
        if not t <= b:
            failures.append(f"shift {t} exceeds the sequence itself")
    if not is_balanced(b.pre + b.per * 2):
        failures.append("sequence is not balanced on its doubled period")
    checks = 3 * (len(b.pre) + len(b.per)) + 1
    return VerifyReport(not failures, checks, tuple(failures))


def enumerate_central(max_len: int) -> list[str]:
    """All central words up to ``max_len``, by the balance definition:
    w is kept iff 0w1 and 1w0 are both balanced."""
    if max_len > 20:
        raise DomainError("enumerate_central is exponential; max_len <= 20")
    return list(_enumerate_central(max_len))


@lru_cache(maxsize=None)
def _enumerate_central(max_len: int) -> tuple[str, ...]:
    out = [""]
    for n in range(1, max_len + 1):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            if is_balanced("0" + w + "1") and is_balanced("1" + w + "0"):
                out.append(w)
    return tuple(out)


def sandwich_census(u: Seq, max_len: int) -> list[str]:
    """All central words w with (w01)^oo <= u <= (w10)^oo, |w| <= max_len.

    For a non-constant, non-characteristic-aperiodic u there is exactly
    one such word.
    """
    hits = []
    for w in enumerate_central(max_len):
        if Seq("", w + "01") <= u <= Seq("", w + "10"):
            hits.append(w)
    return hits


def naive_balance(w: str) -> bool:
    """Literal quantifier evaluation of balance over all factor pairs."""
    if len(w) > 500:
        raise DomainError("naive_balance is cubic; len(w) <= 500")
    n = len(w)
    for length in range(1, n + 1):
        counts = [w[i:i + length].count("1") for i in range(n - length + 1)]
        for a in counts:
            for b in counts:
                if abs(a - b) > 1:
                    return False
    return True
