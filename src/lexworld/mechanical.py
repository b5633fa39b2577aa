"""Mechanical sequences with exact rational slope and intercept.

The lower (floor) and upper (ceiling) digit formulas are evaluated in
exact arithmetic; rational slopes give purely periodic sequences and the
characteristic ones tie back to central words and directive words.
Irrational slopes are never materialised: they enter only through
directive sequences, whose block lengths encode the continued fraction.
"""

from __future__ import annotations

from itertools import count, pairwise
from math import ceil, floor, gcd

from .central import central_from_slope, closure_chain
from .errors import DomainError
from .words import EXPANSION_BUDGET, Seq, numeral


def _check_params(alpha: Fraction, rho: Fraction, n: int) -> None:
    if not 0 <= alpha <= 1:
        raise DomainError(f"slope must lie in [0, 1], got {numeral(alpha)}")
    if not 0 <= rho <= 1:
        raise DomainError(f"intercept must lie in [0, 1], got {numeral(rho)}")
    if n < 0:
        raise DomainError("index must be nonnegative")


def mech_lower(alpha: Fraction, rho: Fraction, n: int) -> int:
    """floor((n+1) alpha + rho) - floor(n alpha + rho)."""
    _check_params(alpha, rho, n)
    return floor((n + 1) * alpha + rho) - floor(n * alpha + rho)


def mech_upper(alpha: Fraction, rho: Fraction, n: int) -> int:
    """ceil((n+1) alpha + rho) - ceil(n alpha + rho)."""
    _check_params(alpha, rho, n)
    return ceil((n + 1) * alpha + rho) - ceil(n * alpha + rho)


def mech_periodic(p: int, q: int, rho: Fraction | int = 0,
                  upper: bool = False) -> Seq:
    """The full mechanical sequence of slope p/q as a periodic object.

    Advancing n by q adds the integer p inside both floor (or ceiling)
    terms, so q is always a period; canonicalisation then exposes the
    minimal one.  Writing n alpha + rho = (n a + c) / d, each level
    floor(..) or ceil(..) = -floor(-..) is one integer floor division.
    Each digit is one byte of a constant ``b"01"``, so the period costs
    about one byte per digit while it is built.
    """
    if q < 1 or not 0 <= p <= q:
        raise DomainError(
            f"need 0 <= p <= q with q >= 1, got {numeral(p)}/{numeral(q)}")
    if gcd(p, q) != 1:
        raise DomainError(f"p={numeral(p)} and q={numeral(q)} are not coprime")
    if q > EXPANSION_BUDGET:
        raise DomainError(f"period {numeral(q)} exceeds the budget of "
                          f"{EXPANSION_BUDGET} digits")
    from fractions import Fraction
    rho = Fraction(rho)
    _check_params(Fraction(p, q), rho, 0)
    a, c, d = p * rho.denominator, rho.numerator * q, q * rho.denominator
    sign = -1 if upper else 1
    levels = (sign * (sign * (n * a + c) // d) for n in range(q + 1))
    digits = bytes(b"01"[hi - lo] for lo, hi in pairwise(levels))
    return Seq("", digits.decode())


def characteristic_pair(p: int, q: int) -> tuple[Seq, Seq]:
    """((w10)^oo, (w01)^oo) for the central word w of slope p/q.

    These are the two sequences of slope p/q whose intercept equals the
    slope; they are shifts of the zero-intercept sequences and of each
    other.
    """
    w = central_from_slope(p, q).word
    return Seq("", w + "10"), Seq("", w + "01")


def pal_prefix(delta: Seq, min_len: int) -> str:
    """A prefix of the iterated palindromic closure of the digits of ``delta``
    with length at least ``min_len``."""
    w = ""
    steps = closure_chain((delta.digit(i), 1) for i in count())
    while len(w) < min_len:
        w += next(steps)[0]
    return w


def is_sturmian_directive(delta: Seq) -> bool:
    """Directives that are not eventually constant drive aperiodic limits."""
    return delta.per not in ("0", "1")


def characteristic_sturmian_prefix(delta: Seq, n: int) -> str:
    """First ``n`` letters of the closure limit of a non-constant directive."""
    if n < 1:
        raise DomainError("prefix length must be positive")
    if n > EXPANSION_BUDGET:
        raise DomainError(f"prefix length {numeral(n)} exceeds the budget of "
                          f"{EXPANSION_BUDGET} letters")
    if not is_sturmian_directive(delta):
        raise DomainError(
            "directive is eventually constant; its limit is periodic, "
            "use the slope-based constructors instead")
    return pal_prefix(delta, n)[:n]
