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
from .words import check_word, is_period, minimal_period, numeral


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
    ends: list[int] = [0]  # ends[k] = len(pal(v[:k]))
    last: dict[str, int] = {}  # letter -> index of its last occurrence in v
    while not walk or ends[-1] < len(w):
        n = ends[-1]
        x = w[n] if walk else next(letters, None)
        if x is None:
            return
        k = last.get(x)
        piece = x + w[:n] if k is None else w[ends[k]:n]
        if walk and not w.startswith(piece, n):
            return
        if not walk:
            w += piece
        last[x] = len(ends) - 1
        ends.append(n + len(piece))
        yield piece, x


def pal(v: str) -> str:
    """Iterated palindromic closure: pal(wx) = closure(pal(w) + x), built
    in linear time by ``closure_chain`` (Justin's formula)."""
    check_word(v)
    return "".join(piece for piece, _ in closure_chain(v))


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
    """A central word with its slope, period pair, factorisation, directive.

    ``word`` is the central word of slope p/q, so len(word) = q - 2 with
    p - 1 ones.  ``ell1`` and ``ell2`` are the coprime periods with
    ell1 + ell2 = q, oriented so that word = w1 01 w2 = w2 10 w1 with
    |w1| = ell1 - 2 and |w2| = ell2 - 2 whenever both letters occur
    (w1 and w2 are None for words in 0* or 1*).  ell2 is the period m
    with m*p = 1 (mod q).  pal(directive) reproduces the word.  The
    constructor checks all of this; instances are immutable.
    """

    __slots__ = ("word", "p", "q", "ell1", "ell2", "w1", "w2", "directive")

    def __init__(self, word: str, p: int, q: int, ell1: int, ell2: int,
                 w1: str | None, w2: str | None, directive: str):
        w = word
        ok = (
            0 < p < q
            and gcd(p, q) == 1
            and len(w) == q - 2
            and w.count("1") == p - 1
            and ell1 + ell2 == q
            and gcd(ell1, ell2) == 1
            and ell2 * p % q == 1
            and (not w or is_period(w, ell1))
            and (not w or is_period(w, ell2))
            and (not w or min(ell1, ell2) == minimal_period(w))
            and pal(directive) == w
        )
        if ok and "0" in w and "1" in w:
            ok = (
                w1 is not None
                and w2 is not None
                and len(w1) == ell1 - 2
                and len(w2) == ell2 - 2
                and w == w1 + "01" + w2 == w2 + "10" + w1
            )
        elif ok:
            ok = w1 is None and w2 is None
        if not ok:
            raise InvariantError(f"inconsistent central certificate for {w!r}")
        for name, value in zip(self.__slots__,
                               (word, p, q, ell1, ell2, w1, w2, directive)):
            object.__setattr__(self, name, value)


def is_central(w: str) -> CentralCertificate | None:
    """Full certificate if ``w`` is central, else None.

    A word's central prefixes form one closure chain, so ``w`` is central
    exactly when the chain walked along it reaches its end; the walk's
    letters are the directive.  The certificate checks the period pair,
    the minimal period and the factorisation.
    """
    check_word(w)
    n, directive = 0, []
    for piece, x in closure_chain(prefixes_of=w):
        n += len(piece)
        directive.append(x)
    if n != len(w):
        return None
    q = len(w) + 2
    p = w.count("1") + 1
    m = pow(p, -1, q)
    ell1, ell2 = q - m, m
    if "0" in w and "1" in w:
        w1, w2 = w[:ell1 - 2], w[ell1:]
    else:
        w1 = w2 = None
    return CentralCertificate(w, p, q, ell1, ell2, w1, w2, "".join(directive))


def directive_of_central(w: str) -> str:
    """The unique v with pal(v) == w; rejects non-central words.  The
    certificate checks pal(v) == w."""
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
    (q - m, m) with m*p = 1 (mod q).  All three must agree.
    """
    if not (0 < p < q) or gcd(p, q) != 1:
        raise DomainError(
            f"need coprime 0 < p < q, got {numeral(p)}/{numeral(q)}")
    # (a) floor-difference digits of slope p/q, intercept 0
    digits = "".join(str((n + 1) * p // q - n * p // q) for n in range(q))
    if digits[0] != "0" or digits[-1] != "1":
        raise InvariantError("mechanical period must start 0 and end 1")
    w_mech = digits[1:-1]
    # (b) palindromic closure of the directive word
    w_pal = pal(directive_from_cf(cf_of_rational(p, q)))
    # (c) coprime-period reconstruction
    w_per = _word_from_periods(p, q)
    if not (w_mech == w_pal == w_per):
        raise InvariantError(
            f"slope {p}/{q}: routes disagree ({w_mech!r}, {w_pal!r}, {w_per!r})")
    cert = is_central(w_mech)
    if cert is None or (cert.p, cert.q) != (p, q):
        raise InvariantError(f"slope {p}/{q}: constructed word failed recognition")
    return cert


def _word_from_periods(p: int, q: int) -> str:
    # Positions forced equal modulo each period collapse into at most two
    # classes; the class of size p - 1 carries the ones.
    n = q - 2
    if n == 0:
        return ""
    m = pow(p, -1, q)
    ell = q - m
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for step in (ell, m):
        for i in range(n - step):
            a, b = find(i), find(i + step)
            if a != b:
                parent[a] = b
    classes: dict[int, list[int]] = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    if len(classes) == 1:
        if p == 1:
            return "0" * n
        if p == q - 1:
            return "1" * n
        raise InvariantError(f"slope {p}/{q}: single class but nonconstant word")
    if len(classes) != 2:
        raise InvariantError(f"slope {p}/{q}: {len(classes)} congruence classes")
    sizes = {root: len(members) for root, members in classes.items()}
    ones_root = [r for r, s in sizes.items() if s == p - 1]
    if len(ones_root) != 1:
        raise InvariantError(f"slope {p}/{q}: ambiguous ones class")
    letters = ["0"] * n
    for i in classes[ones_root[0]]:
        letters[i] = "1"
    return "".join(letters)
