"""Exact binary words and eventually periodic 0/1 sequences.

Finite words are plain Python strings over the alphabet ``{'0', '1'}``.
Infinite sequences are :class:`Seq` objects, i.e. pairs (preperiod, period)
held in a canonical form so that two objects compare equal exactly when they
agree digit by digit.  All numeric values are exact ``fractions.Fraction``.

Digit index 0 carries weight 1/2: a sequence is read as the purely
fractional binary expansion of a number in [0, 1].  The all-ones sequence
reads as the value 1 (the non-terminating expansion); this convention is
relied on throughout and makes ``1`` a legitimate endpoint value.
"""

from __future__ import annotations

import re
from math import gcd

from .errors import DomainError, ParseError, Value

# Three-valued result of a lexicographic comparison.
LT, EQ, GT = -1, 0, 1

# Sets a field of an immutable value class from its __init__.
_set = object.__setattr__


# str.translate table deleting the two binary letters.
_DROP_BINARY = str.maketrans("", "", "01")


def check_word(w: str) -> str:
    """Validate that ``w`` is a string over {'0','1'} and return it.

    The test is one ``str.translate`` call, so it runs in C; only a word
    that fails it is scanned letter by letter, to report its first bad
    index.
    """
    if w.translate(_DROP_BINARY):
        i = next(i for i, c in enumerate(w) if c not in "01")
        raise ParseError(f"invalid character {w[i]!r} in binary word", i)
    return w


def minimal_period(w: str) -> int:
    """Smallest ``ell >= 1`` such that w[i] == w[i+ell] whenever both exist.

    Computed as ``len(w)`` minus the length of the longest proper border.
    Any integer >= len(w) counts as a period, so the result is at most
    len(w).  The empty word has no period and is rejected.
    """
    if not w:
        raise DomainError("the empty word has no period")
    border = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = border[k - 1]
        if w[i] == w[k]:
            k += 1
        border[i] = k
    return len(w) - border[-1]


def is_period(w: str, ell: int) -> bool:
    if ell < 1:
        raise DomainError("periods are positive")
    return ell >= len(w) or w[ell:] == w[:-ell]


def primitive_root(w: str) -> str:
    """The shortest word ``u`` with ``w == u**k``; ``w`` itself if primitive.

    ``w`` equals its rotation by ``p`` exactly when ``p`` is a multiple of
    the root's length, so the first occurrence of ``w`` in ``w + w`` after
    index 0 sits at that length (at ``len(w)`` for a primitive word).
    ``str.find`` locates it in linear time.
    """
    if not w:
        raise DomainError("the empty word has no primitive root")
    return w[:(w + w).find(w, 1)]


class Seq(Value):
    """An eventually periodic binary sequence ``pre . per per per ...``

    Instances are canonical: the period word is primitive and the preperiod
    is as short as possible (its last letter differs from the period's last
    letter, so no rotation of the period can absorb it).  Equality of
    canonical forms is digitwise equality.  Instances are immutable.

    Construction costs time linear in ``|pre| + |per|``, nearly all of it in
    C string methods; the preperiod loop below runs once per absorbed
    letter, plus one comparison.
    """

    __slots__ = ("pre", "per")

    def __init__(self, pre: str, per: str):
        _set(self, "pre", pre)
        _set(self, "per", per)
        self.__post_init__()

    def __post_init__(self):
        pre, per = self.pre, self.per
        check_word(pre)
        check_word(per)
        if not per:
            raise DomainError("period must be nonempty")
        root = primitive_root(per)
        # The preperiod's last j letters agree with root^oo read backwards
        # from the end of a period: absorb them by rotating right j places.
        n, ell = len(pre), len(root)
        j = 0
        while j < n and pre[n - 1 - j] == root[ell - 1 - j % ell]:
            j += 1
        if j:
            cut = ell - j % ell
            _set(self, "pre", pre[:n - j])
            root = root[cut:] + root[:cut]
        if root is not per:
            _set(self, "per", root)

    # -- digit access ---------------------------------------------------

    def digit(self, n: int) -> str:
        if n < 0:
            raise DomainError("digit index must be nonnegative")
        if n < len(self.pre):
            return self.pre[n]
        return self.per[(n - len(self.pre)) % len(self.per)]

    def prefix(self, n: int) -> str:
        """The first ``n`` digits as a word."""
        if n < 0:
            raise DomainError("prefix length must be nonnegative")
        if n <= len(self.pre):
            return self.pre[:n]
        reps = (n - len(self.pre)) // len(self.per) + 1
        return (self.pre + self.per * reps)[:n]

    # -- structure ------------------------------------------------------

    def shift(self, k: int = 1) -> "Seq":
        """Drop the first ``k`` digits (the k-th iterate of the shift map)."""
        if k < 0:
            raise DomainError("shift distance must be nonnegative")
        if k <= len(self.pre):
            return Seq(self.pre[k:], self.per)
        j = (k - len(self.pre)) % len(self.per)
        return Seq("", self.per[j:] + self.per[:j])

    def prepend(self, letter: str) -> "Seq":
        if letter not in ("0", "1"):
            raise DomainError("letter must be '0' or '1'")
        return Seq(letter + self.pre, self.per)

    def shifts(self) -> list["Seq"]:
        """All distinct shifted sequences, in order of first appearance.

        These are the first |pre| + |per| shifts, and they are pairwise
        distinct: those inside the preperiod have canonical preperiods of
        different lengths, and the others are the rotations of a primitive
        period.
        """
        return [self.shift(k) for k in range(len(self.pre) + len(self.per))]

    @property
    def purely_periodic(self) -> bool:
        return not self.pre

    # -- order and value ------------------------------------------------

    def compare(self, other: "Seq") -> int:
        """Lexicographic comparison; returns LT, EQ or GT.

        Past the longer preperiod h both sequences are periodic, with
        periods p = |per| and p' = |per'|.  If they agree on the first
        h + p + p' - gcd(p, p') digits, their tails share a factor of that
        length with periods p and p', hence (Fine and Wilf) with period
        gcd(p, p'), and both tails repeat its first gcd(p, p') letters:
        full agreement there means digitwise equality.  The prefixes are
        compared as strings, in C: first 64 digits, which settle most pairs
        without writing out a long period, then all n.
        """
        lp, lq = len(self.per), len(other.per)
        n = max(len(self.pre), len(other.pre)) + lp + lq - gcd(lp, lq)
        for m in (n,) if n <= 64 else (64, n):
            a, b = self.prefix(m), other.prefix(m)
            if a != b:
                return LT if a < b else GT
        return EQ

    def __lt__(self, other: "Seq") -> bool:
        return self.compare(other) == LT

    def __le__(self, other: "Seq") -> bool:
        return self.compare(other) != GT

    def __gt__(self, other: "Seq") -> bool:
        return self.compare(other) == GT

    def __ge__(self, other: "Seq") -> bool:
        return self.compare(other) != LT

    def value(self) -> Fraction:
        """The exact number in [0, 1] whose binary digits are this sequence."""
        from fractions import Fraction
        head = Fraction(int(self.pre, 2) if self.pre else 0, 1 << len(self.pre))
        tail = Fraction(int(self.per, 2), ((1 << len(self.per)) - 1) << len(self.pre))
        return head + tail

    def __str__(self) -> str:
        return f"{self.pre}({self.per})"


ZERO = Seq("", "0")
ONE = Seq("", "1")


def numeral(x: Fraction | int) -> str:
    """``str(x)``, or its sign and bit lengths past the int-string limit."""
    try:
        return str(x)
    except ValueError:
        from fractions import Fraction
        x = Fraction(x)
        if x.denominator == 1:
            return (f"{'a negative' if x < 0 else 'an'} integer of "
                    f"{x.numerator.bit_length()} binary digits")
        return (f"{'-' if x < 0 else ''}p/q with p of {x.numerator.bit_length()}"
                f" and q of {x.denominator.bit_length()} binary digits")


# Most letters that lexworld writes out for one number: the digits
# (preperiod plus period) of ``expansion``, the period q of
# ``mech_periodic`` and ``central_from_slope``, and a prefix length n of
# ``characteristic_sturmian_prefix`` or of the CLI's ``mech -n``.  A
# larger request is refused with DomainError before any letter is built.
# 2**22 keeps every period up to four million digits, e.g. 1/1000003
# (period 1000002), in reach.
EXPANSION_BUDGET = 1 << 22


def _order_of_two(m: int, limit: int) -> int | None:
    """The least ``ell >= 1`` with ``2**ell % m == 1``, for odd ``m >= 3``;
    None if it exceeds ``limit``.

    Baby-step giant-step (Shanks) in rounds of doubling step size s.
    Round s keeps a table mapping 2**j % m to j for 0 <= j < s, and takes
    the giant steps 2**(i*s) for i = 1..s.  The earlier rounds ruled out
    every order up to (s/2)**2 >= s - 1, so the order is at least s and
    the table's values are distinct.  The first giant step found in the
    table, at j, then gives the order i*s - j: a smaller i would give a
    positive i*s - j below the order.  Round s finds every order up to
    s*s, so the cost is O(sqrt(ell)) multiplications, and a refusal keeps
    fewer than 2 * sqrt(limit) table entries.
    """
    table: dict[int, int] = {}
    r, s = 1, 1  # r == 2**len(table) % m
    while True:
        for j in range(len(table), s):
            table[r] = j
            r = 2 * r % m
        g = y = r  # 2**s % m
        for i in range(1, s + 1):
            j = table.get(y)
            if j is not None:
                ell = i * s - j
                return ell if ell <= limit else None
            y = y * g % m
        if s * s >= limit:
            return None
        s *= 2


def expansion(x: Fraction, greater: bool = False) -> Seq:
    """The binary expansion of ``x`` in [0, 1] as a canonical sequence.

    Dyadic rationals other than 0 and 1 have two expansions; ``greater``
    selects the terminating one (ending 1000...), otherwise the
    lexicographically smaller one (ending 0111...) is returned.  All other
    rationals have a unique expansion and the flag is ignored.

    In integers only: with ``x = a / (2**k * m)`` in lowest terms and ``m``
    odd, the preperiod is the k-digit numeral of ``a // m`` and the period
    the L-digit numeral of ``(a % m) * (2**L - 1) // m``, where L is the
    order of 2 modulo m (``m`` divides ``2**L - 1``).  These are exactly
    the minimal preperiod and period.  Finding L takes O(sqrt(L)) modular
    multiplications; writing the ``k + L`` digits takes two divisions and
    two conversions to binary, linear in ``k + L``.  An
    ``x`` whose expansion needs more than ``EXPANSION_BUDGET`` digits is
    refused with DomainError.
    """
    from fractions import Fraction
    x = Fraction(x)
    if x < 0 or x > 1:
        raise DomainError(f"expansion requires 0 <= x <= 1, got {numeral(x)}")
    if x == 0:
        return ZERO
    if x == 1:
        return ONE
    a, b = x.numerator, x.denominator
    k = (b & -b).bit_length() - 1
    m = b >> k
    ell = 0 if m == 1 else _order_of_two(m, EXPANSION_BUDGET - k)
    if ell is None or k + ell > EXPANSION_BUDGET:
        raise DomainError("the binary expansion of x needs more than "
                          f"{EXPANSION_BUDGET} digits (preperiod plus period)")
    if m == 1:
        body = format(a, "b").zfill(k)  # ends in '1': a is odd
        return Seq(body, "0") if greater else Seq(body[:-1] + "0", "1")
    q, r = divmod(a, m)
    pre = format(q, "b").zfill(k) if k else ""
    per = format(r * ((1 << ell) - 1) // m, "b").zfill(ell)
    return Seq(pre, per)


# -- text grammar -------------------------------------------------------
#
# "pre(per)" denotes pre . per^oo; a bare word w is read as w . 0^oo (the
# terminating-expansion convention).  Printing always uses the pre(per)
# spelling of the canonical form.  The patterns are kept as strings: re's
# cache compiles each on its first use, so a start that parses no text
# compiles none of them.

# SEQ ::= [01]* ("(" [01]+ ")")?
_SEQ = r"([01]*)(?:\(([01]+)\))?"
# Longest start of a text that some SEQ continues: its end is the first
# index at which a malformed text goes wrong.
_SEQ_START = r"[01]*(?:\((?:[01]+\)?)?)?"


def parse_seq(text: str) -> Seq:
    """Read ``pre(per)`` or a bare word; a ParseError names the first
    offending position."""
    match = re.fullmatch(_SEQ, text)
    if match is None:
        i = re.match(_SEQ_START, text).end()
        if i == len(text):
            raise ParseError("sequence ends early", i)
        raise ParseError(f"invalid character {text[i]!r} in sequence", i)
    pre, per = match.groups()
    return Seq(pre, per or "0")


# RATIONAL ::= "-"? DIGITS ("/" DIGITS)?     DIGITS ::= [0-9]+   (ASCII only)
_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
# Longest start of a text that some RATIONAL continues: its end is the
# first index at which a malformed text goes wrong.
_RATIONAL_START = r"-?(?:[0-9]+(?:/[0-9]*)?)?"


def parse_rational(text: str) -> Fraction:
    """Read ``a`` or ``a/b`` (ASCII digits, optional leading '-', no spaces,
    positive ``b``); a ParseError names the first offending position."""
    if re.fullmatch(_RATIONAL, text) is None:
        i = re.match(_RATIONAL_START, text).end()
        if i == len(text):
            raise ParseError("rational ends early", i)
        raise ParseError(f"invalid character {text[i]!r} in rational", i)
    num, slash, den = text.partition("/")
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError as exc:  # past the interpreter's int-string limit
        raise DomainError(f"rational too long: {exc}") from None
    if d == 0:
        raise ParseError("denominator must be positive", len(num) + 1)
    from fractions import Fraction
    return Fraction(n, d)
