"""Balanced words, palindromic closure, and the central-word toolkit.

A word is *central* when it has two coprime periods ell, m with
len + 2 = ell + m.  Central words are exactly the palindromic prefixes of
characteristic sequences, the images of the iterated palindromic closure,
and the words w such that 0w1 and 1w0 are balanced.  This module
recognises them and constructs them from a slope, as pal of the
directive read off Euclid's quotients of the slope, a run at a time,
returning a certificate that carries the whole structure: the directive
word and the standard factorisation.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from math import gcd

from .errors import DomainError, InvariantError, Value
from .words import (EXPANSION_BUDGET, check_word, is_period, minimal_period,
                    numeral)


def is_balanced(w: str) -> bool:
    """True when any two equal-length factors differ by at most one '1'.

    Sliding-window scan per factor length with early exit; quadratic in
    len(w), which is ample at the scales this library targets.
    """
    check_word(w)
    n = len(w)
    ones = [0] * (n + 1)
    for i, c in enumerate(w):
        ones[i + 1] = ones[i] + (c == "1")
    for length in range(1, n):
        lo = hi = ones[length]
        for i in range(1, n - length + 1):
            k = ones[i + length] - ones[i]
            if k < lo:
                lo = k
            elif k > hi:
                hi = k
            if hi - lo > 1:
                return False
    return True


def palindromic_closure(w: str) -> str:
    """The shortest palindrome having ``w`` as a prefix.

    Writes w = u v with v the longest palindromic suffix and returns
    u v reverse(u).  A border of s = reverse(w) # w is a palindromic
    suffix of w, so |v| = |s| - minimal_period(s), by one linear scan.
    """
    check_word(w)
    s = w[::-1] + "#" + w
    border = len(s) - minimal_period(s)  # |v|
    return w + w[:len(w) - border][::-1]


def closure_chain(directive: Iterable[tuple[str, int]] | None = None, *,
                  prefixes_of: str | None = None
                  ) -> Iterator[tuple[str, str, int]]:
    """Per directive run x^k, yield (piece, x, k): pal(v x^k) = pal(v) piece^k.

    By Justin's formula (Justin 2005; de Luca 1997) the piece is x pal(v)
    if x does not occur in v, else pal(v) less its prefix pal(v'), v' being
    v before its last x; one x later the piece starts where pal(v) ends, so
    it repeats through the run and each run costs its output.  Give one
    source: ``directive``, (x, k) runs with k >= 1 (any iterable, even
    endless), builds pal(v), extending it after each yield; ``prefixes_of``
    walks a word a letter at a time (k = 1), taking each letter from the
    word after the current prefix and stopping before the first closure
    that is not a prefix.  A word's central prefixes form this one chain,
    so the walk's running lengths are exactly theirs.
    """
    if (directive is None) == (prefixes_of is None):
        raise DomainError("closure_chain takes a directive or a word to walk")
    walk = directive is None
    runs = iter(() if walk else directive)
    w = prefixes_of if walk else ""  # the walked word, or pal(v) so far
    n = 0  # len(pal(v))
    start: dict[str, int] = {}  # x -> len(pal(v')), v' = v before its last x
    while not walk or n < len(w):
        x, k = (w[n], 1) if walk else next(runs, (None, 0))
        if x is None:
            return
        s = start.get(x)
        piece = x + w[:n] if s is None else w[s:n]
        if walk and not w.startswith(piece, n):
            return
        start[x] = n + (k - 1) * len(piece)
        yield piece, x, k
        if not walk:
            w += piece * k
        n += k * len(piece)


# A directive's runs x^k, as the strings x * k.
_RUNS = re.compile("0+|1+")


def pal(v: str) -> str:
    """Iterated palindromic closure: pal(wx) = closure(pal(w) + x), built
    by ``closure_chain`` (Justin's formula) a run of ``v`` at a time.

    |pal(v)| can grow exponentially in |v|, so an output longer than
    ``EXPANSION_BUDGET`` is refused with DomainError before the run that
    would pass it is built.
    """
    check_word(v)
    word = ""
    for piece, _, k in closure_chain((r[0], len(r)) for r in _RUNS.findall(v)):
        if len(word) + k * len(piece) > EXPANSION_BUDGET:
            raise DomainError(f"pal of a {len(v)}-letter word exceeds the "
                              f"budget of {EXPANSION_BUDGET} letters")
        word += piece * k
    return word


def _central_periods(w: str) -> tuple[int, int] | None:
    """(ell, m) with ell minimal, ell + m = len + 2, if ``w`` is central.

    The coprime period pair of a central word always contains the minimal
    period, so testing the complement of the minimal period is a complete
    recognition procedure.
    """
    if w == "":
        return (1, 1)
    ell = minimal_period(w)
    m = len(w) + 2 - ell
    if gcd(ell, m) != 1 or not is_period(w, m):
        return None
    return (ell, m)


class CentralCertificate(Value):
    """A central word with its directive; the rest is read off the word.

    ``word`` is the central word of slope p/q: q = len(word) + 2, with
    p - 1 ones.  ``ell1`` + ``ell2`` = q are its coprime periods, ell2*p = 1
    (mod q), and word = w1 01 w2 = w2 10 w1 with |w1| = ell1 - 2 and
    |w2| = ell2 - 2 when both letters occur (else w1 = w2 = None).  The
    constructor checks what these formulas leave open: binary words,
    gcd(p, q) = 1, ell1 and ell2 being periods of the word (with
    gcd(ell1, ell2) = gcd(ell2, q) = 1 and ell1 + ell2 = len(word) + 2,
    this is the definition of central), pal(directive) == word, and the
    factorisation.  Instances are immutable.
    """

    __slots__ = ("word", "directive")

    def __init__(self, word: str, directive: str):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "directive", directive)
        # strip("01") leaves a non-binary letter or nothing
        ok = (isinstance(word, str) and isinstance(directive, str)
              and not (word + directive).strip("01")
              and gcd(self.p, self.q) == 1
              and is_period(word, self.ell1) and is_period(word, self.ell2)
              and pal(directive) == word)
        if ok and self.w1 is not None:
            ok = word == self.w1 + "01" + self.w2 == self.w2 + "10" + self.w1
        if not ok:
            raise InvariantError(f"inconsistent central certificate for {word!r}")

    q = property(lambda self: len(self.word) + 2)
    p = property(lambda self: self.word.count("1") + 1)
    ell2 = property(lambda self: pow(self.p, -1, self.q))
    ell1 = property(lambda self: self.q - self.ell2)
    _split = property(lambda self: "0" in self.word and "1" in self.word)
    w1 = property(lambda self: self.word[:self.ell1 - 2] if self._split else None)
    w2 = property(lambda self: self.word[self.ell1:] if self._split else None)


def is_central(w: str) -> CentralCertificate | None:
    """Full certificate if ``w`` is central, else None.

    A word's central prefixes form one closure chain, so ``w`` is central
    exactly when the chain walked along it reaches its end; the walk's
    letters are the directive, and the certificate checks the rest.
    """
    check_word(w)
    n, directive = 0, ""
    for piece, x, _ in closure_chain(prefixes_of=w):
        n += len(piece)
        directive += x
    if n != len(w):
        return None
    return CentralCertificate(w, directive)


# str.translate table exchanging the two letters.
_COMPLEMENT = str.maketrans("01", "10")


def _least_rotation(w: str) -> int:
    """Start of the least rotation of ``w``, by a two-pointer scan.

    The scan keeps two candidate starts i < j, every other start below j
    ruled out, and the number k of letters on which their rotations agree.
    At a mismatch, the starts of the side with the larger letter, through k
    letters on, each give a greater rotation than their partner, so that
    side jumps past them: i + j grows by k + 1 and stays below 2 len(w),
    and the scan is linear and keeps no table.  If k reaches len(w), the
    two rotations are equal and i is least.
    """
    n, d = len(w), w + w
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = d[i + k], d[j + k]
        if a == b:
            k += 1
        elif a > b:
            i, j, k = j, max(j + 1, i + k + 1), 0
        else:
            j, k = j + k + 1, 0
    return i


def extremal_rotations(w: str) -> tuple[str, str]:
    """(least, greatest) circular shift of a nonempty word, in linear time.

    The least rotation comes from a two-pointer scan; exchanging the
    letters reverses the order, so the greatest rotation starts where the
    least rotation of the complement does.
    """
    check_word(w)
    if not w:
        raise DomainError("the empty word has no rotations")
    lo, hi = _least_rotation(w), _least_rotation(w.translate(_COMPLEMENT))
    return w[lo:] + w[:lo], w[hi:] + w[:hi]


def _slope_runs(p: int, q: int) -> Iterator[tuple[str, int]]:
    """The directive of p/q as runs (x, d), d >= 1, read off Euclid's
    quotients a1, ..., an (an >= 2): 0^(a1 - 1) 1^a2 0^a3 ... x^(an - 1),
    the blocks of ``cf.directive_from_cf`` (0^(q - 2) if n = 1).
    """
    x, d, p, q = "0", q // p - 1, q % p, p  # a1 - 1 zeros open it
    while p:
        if d:
            yield x, d
        x, (d, p), q = x.translate(_COMPLEMENT), divmod(q, p), p
    if d > 1:
        yield x, d - 1  # and an - 1 letters close it


def central_from_slope(p: int, q: int) -> CentralCertificate:
    """The central word of slope p/q: pal of the directive read off
    Euclid's algorithm on p/q, its continued fraction, certified.

    The certificate's two periods come from p and q alone, so they vouch
    for the word without trusting ``pal``: a word with coprime periods
    ell1 + ell2 = |w| + 2 is central, its length and its ones fix its
    slope, checked to be p/q, and a slope has exactly one central word.
    So the floor differences of the mechanical sequence of slope p/q, say,
    spell the same word.  A q above ``EXPANSION_BUDGET`` is refused before
    any letter is written.
    """
    if not (0 < p < q) or gcd(p, q) != 1:
        raise DomainError(
            f"need coprime 0 < p < q, got {numeral(p)}/{numeral(q)}")
    if q > EXPANSION_BUDGET:
        raise DomainError(f"slope denominator {numeral(q)} exceeds the "
                          f"budget of {EXPANSION_BUDGET} letters")
    directive = "".join(x * d for x, d in _slope_runs(p, q))
    cert = CentralCertificate(pal(directive), directive)
    if (cert.p, cert.q) != (p, q):
        raise InvariantError(f"slope {p}/{q}: constructed word has another slope")
    return cert
