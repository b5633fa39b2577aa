"""Balanced words, palindromic closure, and the central-word toolkit.

A word is *central* when it has two coprime periods ell, m with
len + 2 = ell + m.  Central words are exactly the palindromic prefixes of
characteristic sequences, the images of the iterated palindromic closure,
and the words w such that 0w1 and 1w0 are balanced.  This module
recognises them, constructs them from a slope, factorises them, and
recovers their directive words, returning a certificate that carries the
whole structure.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import gcd

from .cf import cf_of_rational, directive_from_cf
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
    u v reverse(u).
    """
    check_word(w)
    for i in range(len(w)):
        suffix = w[i:]
        if suffix == suffix[::-1]:
            return w + w[:i][::-1]
    return w  # only the empty word reaches here


def closure_chain(directive: Iterable[str] | None = None, *,
                  prefixes_of: str | None = None) -> Iterator[tuple[str, str]]:
    """Per directive letter x, yield (piece, x): pal(v x) = pal(v) piece.

    By Justin's formula (Justin 2005; de Luca 1997) the piece is x pal(v)
    if x does not occur in v, else pal(v) less its prefix pal(v'), v' being
    v before its last x; so each step costs its piece, a chain its final
    length.  Give one source: ``directive`` (any iterable, even endless)
    builds pal(v); ``prefixes_of`` walks a word, taking each letter from the
    word after the current prefix and stopping before the first closure
    that is not a prefix.  A word's central prefixes form this one chain,
    so the walk's running lengths are exactly theirs.
    """
    if (directive is None) == (prefixes_of is None):
        raise DomainError("closure_chain takes a directive or a word to walk")
    walk = directive is None
    letters = iter(() if walk else directive)
    w = prefixes_of if walk else ""  # the walked word, or pal(v) so far
    n = 0  # len(pal(v))
    start: dict[str, int] = {}  # x -> len(pal(v')), v' = v before its last x
    while not walk or n < len(w):
        x = w[n] if walk else next(letters, None)
        if x is None:
            return
        k = start.get(x)
        piece = x + w[:n] if k is None else w[k:n]
        if walk and not w.startswith(piece, n):
            return
        if not walk:
            w += piece
        start[x] = n
        n += len(piece)
        yield piece, x


def pal(v: str) -> str:
    """Iterated palindromic closure: pal(wx) = closure(pal(w) + x), built
    in linear time by ``closure_chain`` (Justin's formula).

    |pal(v)| can grow exponentially in |v|, so an output longer than
    ``EXPANSION_BUDGET`` is refused with DomainError, once the first piece
    past the budget is built.
    """
    check_word(v)
    pieces, n = [], 0
    for piece, _ in closure_chain(v):
        n += len(piece)
        if n > EXPANSION_BUDGET:
            raise DomainError(f"pal of a {len(v)}-letter word exceeds the "
                              f"budget of {EXPANSION_BUDGET} letters")
        pieces.append(piece)
    return "".join(pieces)


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
    n, directive = 0, []
    for piece, x in closure_chain(prefixes_of=w):
        n += len(piece)
        directive.append(x)
    if n != len(w):
        return None
    return CentralCertificate(w, "".join(directive))


def directive_of_central(w: str) -> str:
    """The unique v with pal(v) == w; rejects non-central words."""
    cert = is_central(w)
    if cert is None:
        raise DomainError(f"{w!r} is not central")
    return cert.directive


def standard_factorization(cert: CentralCertificate) -> tuple[str, str]:
    """The unique (w1, w2) with word = w1 01 w2 = w2 10 w1."""
    if cert.w1 is None or cert.w2 is None:
        raise DomainError("words in 0* or 1* have no standard factorization")
    return cert.w1, cert.w2


# str.translate table exchanging the two letters.
_COMPLEMENT = str.maketrans("01", "10")


def _least_rotation(w: str) -> int:
    """Start of the least rotation of ``w``, by Booth's algorithm (Booth
    1980): a KMP failure function over ``w + w`` whose candidate start
    ``k`` moves right on every mismatch that finds a smaller letter, so
    the scan is linear in len(w)."""
    d = w + w
    fail = [-1] * len(d)
    k = 0
    for j in range(1, len(d)):
        c = d[j]
        i = fail[j - k - 1]
        while i != -1 and c != d[k + i + 1]:
            if c < d[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != d[k + i + 1]:  # here i == -1
            if c < d[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def extremal_rotations(w: str) -> tuple[str, str]:
    """(least, greatest) circular shift of a nonempty word, in linear time.

    The least rotation comes from Booth's algorithm; exchanging the letters
    reverses the order, so the greatest rotation starts where the least
    rotation of the complement does.
    """
    check_word(w)
    if not w:
        raise DomainError("the empty word has no rotations")
    lo, hi = _least_rotation(w), _least_rotation(w.translate(_COMPLEMENT))
    return w[lo:] + w[:lo], w[hi:] + w[:hi]


def pal_extension(cert: CentralCertificate, x: str) -> str:
    """pal(directive + x) computed from the standard factorisation.

    Extending by 0 gives w2 10 w1 01 w2 and extending by 1 gives
    w1 01 w2 10 w1; both are cross-checked against the closure route.
    """
    if x not in ("0", "1"):
        raise DomainError("extension letter must be '0' or '1'")
    w1, w2 = standard_factorization(cert)
    if x == "0":
        out = w2 + "10" + w1 + "01" + w2
    else:
        out = w1 + "01" + w2 + "10" + w1
    if out != palindromic_closure(cert.word + x):
        raise InvariantError("factorised closure disagrees with direct closure")
    return out


def central_from_slope(p: int, q: int) -> CentralCertificate:
    """The central word of slope p/q, built three independent ways.

    (a) digits of the zero-intercept mechanical sequence with its bounding
    letters stripped, (b) the palindromic closure of the directive word of
    the continued fraction, (c) reconstruction from the coprime period pair
    (q - m, m) with m*p = 1 (mod q).  All three must agree: (a) against (c)
    here, (b) in the certificate, which checks pal(directive) == word.  A q
    above ``EXPANSION_BUDGET`` is refused before any digit is written.
    """
    if not (0 < p < q) or gcd(p, q) != 1:
        raise DomainError(
            f"need coprime 0 < p < q, got {numeral(p)}/{numeral(q)}")
    if q > EXPANSION_BUDGET:
        raise DomainError(f"slope denominator {numeral(q)} exceeds the "
                          f"budget of {EXPANSION_BUDGET} letters")
    # (a) floor-difference digits of slope p/q, intercept 0, one byte each
    digits = bytes(b"01"[(n + 1) * p // q - n * p // q]
                   for n in range(q)).decode()
    if digits[0] != "0" or digits[-1] != "1":
        raise InvariantError("mechanical period must start 0 and end 1")
    w_mech = digits[1:-1]
    # (c) coprime-period reconstruction
    w_per = _word_from_periods(p, q)
    if w_mech != w_per:
        raise InvariantError(
            f"slope {p}/{q}: routes disagree ({w_mech!r}, {w_per!r})")
    # (b) palindromic closure of the directive word, checked by the certificate
    cert = CentralCertificate(w_mech, directive_from_cf(cf_of_rational(p, q)))
    if (cert.p, cert.q) != (p, q):
        raise InvariantError(f"slope {p}/{q}: constructed word has another slope")
    return cert


def _word_from_periods(p: int, q: int) -> str:
    # The periods ell and m = q - ell force w[i] = w[j] for i, j < q - 2
    # with j = i + ell or j = i + ell - q: neighbours on the cycle
    # i -> (i + ell) mod q, which visits every residue as gcd(ell, q) = 1.
    # Its two ends q - 2 and q - 1 cut it into two arcs, the two letter
    # classes; since ell*p = -1 (mod q), the arc from q - 1 to q - 2 holds
    # p - 1 positions, the ones.
    ell = q - pow(p, -1, q)
    word = bytearray(b"0") * (q - 2)
    i, ones = (q - 1 + ell) % q, 0
    while i != q - 2:
        if i == q - 1:
            raise InvariantError(f"slope {p}/{q}: the period cycle misses q - 2")
        word[i] = ord("1")
        ones += 1
        i = (i + ell) % q
    if ones != p - 1:
        raise InvariantError(f"slope {p}/{q}: the ones arc has {ones} positions")
    return word.decode()
