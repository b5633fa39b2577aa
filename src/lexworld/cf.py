"""Continued fractions of rationals in (0, 1) and their directive words.

A rational p/q in (0, 1) has exactly two simple continued fraction
spellings, [0; a1, ..., an] with an >= 2 and [0; a1, ..., an - 1, 1].
Both determine the same block-exponent vector (d1, d2, ..., dn), and the
directive word 0^d1 1^d2 0^d3 ... drives the iterated palindromic closure
that produces the standard word of slope p/q.  These two functions are
the reference that ``central_from_slope``'s own quotient reading is
tested against.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError
from .words import numeral


def cf_of_rational(p: int, q: int) -> tuple[int, ...]:
    """Euclid's quotients (a1, ..., an) of p/q = [0; a1, ..., an], an >= 2."""
    if not (0 < p < q):
        raise DomainError(f"need 0 < p < q, got p={numeral(p)}, q={numeral(q)}")
    if gcd(p, q) != 1:
        raise DomainError(f"p={numeral(p)} and q={numeral(q)} are not coprime")
    digits = []
    while p:
        a, rem = divmod(q, p)
        digits.append(a)
        p, q = rem, p
    return tuple(digits)


def directive_from_cf(digits: tuple[int, ...]) -> str:
    """The directive word 0^d1 1^d2 0^d3 ... x^dn of the slope [0; digits],
    in either spelling: d1 = a1 - 1, di = ai, dn = an - 1 (0^(a1 - 2) if
    n = 1)."""
    if not digits or any(a < 1 for a in digits):
        raise DomainError("partial quotients must be positive")
    if digits == (1,):
        raise DomainError("[0; 1] = 1 is not in (0, 1)")
    a = list(digits)
    if len(a) > 1 and a[-1] == 1:  # [..., an - 1, 1] = [..., an]
        a.pop()
        a[-1] += 1
    blocks = (a[0] - 2,) if len(a) == 1 else (a[0] - 1, *a[1:-1], a[-1] - 1)
    return "".join("01"[i % 2] * d for i, d in enumerate(blocks))
