"""Brute-force phi and F by exhaustive search.

Everything here exists to be obviously correct, not fast: feasibility is
raw lexicographic comparison over enumerated periodic candidates, with
only ``Seq`` comparison and ``expansion`` shared with the fast paths.
Used by the CLI's --check flag and oracle command and by the tests.
"""

from __future__ import annotations

from itertools import product

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
