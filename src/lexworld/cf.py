"""Continued fractions of rationals in (0, 1) and their directive words.

A rational p/q in (0, 1) has exactly two simple continued fraction
spellings, [0; a1, ..., an] with an >= 2 and [0; a1, ..., an - 1, 1].
Both determine the same block-exponent vector (d1, d2, ..., dn), and the
directive word 0^d1 1^d2 0^d3 ... drives the iterated palindromic closure
that produces the standard word of slope p/q.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError, Value
from .words import numeral


class ContinuedFraction(Value):
    """Partial quotients after the integer part 0; all entries >= 1."""

    __slots__ = ("digits",)

    def __init__(self, digits: tuple[int, ...]):
        if not digits or any(a < 1 for a in digits):
            raise DomainError("partial quotients must be positive")
        if digits == (1,):
            raise DomainError("[0; 1] = 1 is not in (0, 1)")
        object.__setattr__(self, "digits", digits)

    @classmethod
    def from_rational(cls, p: int, q: int) -> "ContinuedFraction":
        _check_slope(p, q)
        digits = []
        num, den = p, q
        while num:
            a, rem = divmod(den, num)
            digits.append(a)
            num, den = rem, num
        return cls(tuple(digits))

    def value(self) -> Fraction:
        from fractions import Fraction
        x = Fraction(0)
        for a in reversed(self.digits):
            x = Fraction(1, a + x)
        return x

    @property
    def ends_in_one(self) -> bool:
        return len(self.digits) > 1 and self.digits[-1] == 1

    def alternate(self) -> "ContinuedFraction":
        """The other admissible spelling of the same rational."""
        a = list(self.digits)
        if self.ends_in_one:
            a.pop()
            a[-1] += 1
        else:  # a[-1] >= 2, as the constructor refuses (1,)
            a[-1] -= 1
            a.append(1)
        return ContinuedFraction(tuple(a))

    def directive_blocks(self) -> tuple[int, ...]:
        """Block exponents (d1, ..., dn): d1 >= 0, the rest >= 1."""
        a = list(self.digits)
        if self.ends_in_one:
            a.pop()
            a[-1] += 1
        if len(a) == 1:
            return (a[0] - 2,)
        return (a[0] - 1, *a[1:-1], a[-1] - 1)


def _check_slope(p: int, q: int) -> None:
    if not (0 < p < q):
        raise DomainError(f"need 0 < p < q, got p={numeral(p)}, q={numeral(q)}")
    if gcd(p, q) != 1:
        raise DomainError(f"p={numeral(p)} and q={numeral(q)} are not coprime")


def cf_of_rational(p: int, q: int) -> ContinuedFraction:
    """Euclidean continued fraction of p/q (last quotient >= 2)."""
    return ContinuedFraction.from_rational(p, q)


def directive_from_cf(cf: ContinuedFraction) -> str:
    """The directive word 0^d1 1^d2 0^d3 ... x^dn for the slope of ``cf``."""
    return "".join("01"[i % 2] * d for i, d in enumerate(cf.directive_blocks()))
