"""Reference code the tests hold the library to.

Written from the definitions, to be obviously correct rather than fast;
nothing in the package calls it.
"""

from functools import lru_cache
from itertools import product
from math import ceil, floor

from lexworld.central import (central_from_slope, is_balanced,
                              palindromic_closure)
from lexworld.errors import DomainError
from lexworld.lexmap import VerifyReport
from lexworld.words import Seq, numeral


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


def spread_balance(w: str) -> bool:
    """Balance as the spread of each length's factor weights, at most one:
    quadratic, so it reaches the periods ``naive_balance`` refuses."""
    ones = [0]
    for c in w:
        ones.append(ones[-1] + (c == "1"))
    for length in range(1, len(w) + 1):
        weights = [ones[i + length] - ones[i]
                   for i in range(len(w) - length + 1)]
        if max(weights) - min(weights) > 1:
            return False
    return True


def brute_verify_phi(u: Seq, b: Seq) -> VerifyReport:
    """``lexmap.verify_phi`` shift by shift, its reference: the three
    bounds on each of the |pre| + |per| distinct shifts of b, in order,
    then balance by ``spread_balance``, in a VerifyReport of
    3(|pre| + |per|) + 1 checks with one failure line per failed check."""
    failures: list[str] = []
    zero_u, one_u = u.prepend("0"), u.prepend("1")
    for t in b.shifts():
        if not zero_u <= t:
            failures.append(f"shift {t} is below the lower bound 0u = {zero_u}")
        if not t <= one_u:
            failures.append(f"shift {t} is above the upper bound 1u = {one_u}")
        if not t <= b:
            failures.append(f"shift {t} exceeds the sequence itself")
    if not spread_balance(b.pre + b.per * 2):
        failures.append("sequence is not balanced on its doubled period")
    checks = 3 * (len(b.pre) + len(b.per)) + 1
    return VerifyReport(not failures, checks, tuple(failures))


@lru_cache(maxsize=None)
def enumerate_central(max_len: int) -> tuple[str, ...]:
    """All central words up to ``max_len``, by the balance definition:
    w is kept iff 0w1 and 1w0 are both balanced (``central.is_balanced``,
    as ``naive_balance`` is cubic)."""
    if max_len > 20:
        raise DomainError("enumerate_central is exponential; max_len <= 20")
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
    return [w for w in enumerate_central(max_len)
            if Seq("", w + "01") <= u <= Seq("", w + "10")]


def central_words_upto(max_len):
    """All central words of length <= max_len, via the closure image.

    The closure map is injective and monotone in length, so a depth-first
    walk over directives, pruned on length, enumerates each word once.
    """
    out, stack = [], [""]
    while stack:
        w = stack.pop()
        out.append(w)
        for c in "01":
            nxt = palindromic_closure(w + c)
            if len(nxt) <= max_len:
                stack.append(nxt)
    return out


def all_canonical_seqs(max_pre, max_per):
    """Each Seq with a preperiod of at most ``max_pre`` letters and a
    period of at most ``max_per``, once."""
    def words(lo, hi):
        return ["".join(b) for n in range(lo, hi + 1)
                for b in product("01", repeat=n)]
    return list(dict.fromkeys(Seq(pre, per) for pre in words(0, max_pre)
                              for per in words(1, max_per)))


def floor_word(p, q):
    """The central word of slope p/q: digits 1..q-2 of the lower
    mechanical sequence of slope p/q and intercept 0."""
    return "".join(str((n + 1) * p // q - n * p // q) for n in range(1, q - 1))


def _mech_digit(level, alpha, rho, n: int) -> int:
    if not 0 <= alpha <= 1:
        raise DomainError(f"slope must lie in [0, 1], got {numeral(alpha)}")
    if not 0 <= rho <= 1:
        raise DomainError(f"intercept must lie in [0, 1], got {numeral(rho)}")
    if n < 0:
        raise DomainError("index must be nonnegative")
    return level((n + 1) * alpha + rho) - level(n * alpha + rho)


def mech_lower(alpha, rho, n: int) -> int:
    """floor((n+1) alpha + rho) - floor(n alpha + rho)."""
    return _mech_digit(floor, alpha, rho, n)


def mech_upper(alpha, rho, n: int) -> int:
    """ceil((n+1) alpha + rho) - ceil(n alpha + rho)."""
    return _mech_digit(ceil, alpha, rho, n)


def characteristic_pair(p: int, q: int) -> tuple[Seq, Seq]:
    """((w10)^oo, (w01)^oo) for the central word w of slope p/q: the two
    sequences of slope p/q whose intercept equals the slope."""
    w = central_from_slope(p, q).word
    return Seq("", w + "10"), Seq("", w + "01")
