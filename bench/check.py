"""Independent answer checks for benchmark results.

Nothing here imports lexworld: results arrive as plain strings and
integers, and every check is decided from the floor formula and raw digit
comparisons.  A phi answer ``(1w0)^oo`` is accepted when

* ``w`` equals the floor-formula central word of the coprime slope
  ``(ones(w) + 1) / (|w| + 2)``, and
* ``(w01)^oo <= u <= (w10)^oo`` on u's digits.

Uniqueness of the sandwiching central word makes these two checks a
proof of the answer.  Each function returns None when the answer is right
and a one-line reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from gen import central_word, expand, sturmian_prefix


def first_mismatch(a: str, b: str) -> int | None:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None


def compare(a: tuple[str, str], b: tuple[str, str]) -> int:
    """Lexicographic order of two eventually periodic sequences (pre, per).

    Past the longer preperiod both are periodic, so agreement on
    |per_a| + |per_b| more digits makes them equal (Fine and Wilf).
    """
    n = max(len(a[0]), len(b[0])) + len(a[1]) + len(b[1])
    da, db = expand(*a, n), expand(*b, n)
    i = first_mismatch(da, db)
    if i is None:
        return 0
    return -1 if da[i] < db[i] else 1


def central_word_error(w: str) -> str | None:
    p, q = w.count("1") + 1, len(w) + 2
    if gcd(p, q) != 1:
        return f"slope {p}/{q} of {w!r} is not reduced"
    if central_word(p, q) != w:
        return f"{w!r} is not the central word of slope {p}/{q}"
    return None


def answer_word(pre: str, per: str) -> tuple[str | None, str | None]:
    """(w, None) for an answer (1w0)^oo, else (None, reason)."""
    if pre or len(per) < 2 or per[0] != "1" or per[-1] != "0":
        return None, f"answer {pre}({per}) is not of the form (1w0)^oo"
    return per[1:-1], None


def check_phi(u: tuple[str, str], answer: tuple[str, str],
              known_w: str | None = None) -> str | None:
    """phi(0u) = answer, for u = (pre, per)."""
    letters = set(u[0] + u[1])
    if len(letters) == 1:
        c = letters.pop()
        return None if answer == ("", c) else f"constant u: expected ({c})"
    w, err = answer_word(*answer)
    if err:
        return err
    err = central_word_error(w)
    if err:
        return err
    if compare(("", w + "01"), u) > 0 or compare(u, ("", w + "10")) > 0:
        return f"u is not sandwiched by the central word {w!r}"
    if known_w is not None and w != known_w:
        return f"expected the known central word of length {len(known_w)}"
    return None


def division_digits(num: int, den: int):
    """The lesser binary expansion of num/den in (0, 1], digit by digit.

    Integer long division that emits 1 only when twice the remainder
    strictly exceeds the divisor, so dyadic values come out as ...0111...
    """
    r = num
    while True:
        r *= 2
        if r > den:
            r -= den
            yield "1"
        else:
            yield "0"


def _order_by_digits(digits, x2: Fraction, per: str) -> int:
    """Order of the sequence ``digits`` (value x2) against (per)^oo.

    Equal values mean equal sequences, because a periodic sequence with
    both letters has one binary expansion; otherwise the first differing
    digit decides, and it exists.
    """
    if x2 == Fraction(int(per, 2), (1 << len(per)) - 1):
        return 0
    for i, d in enumerate(digits):
        e = per[i % len(per)]
        if d != e:
            return -1 if d < e else 1


def check_F(num: int, den: int, f: Fraction, answer: tuple[str, str] | None,
            known_w: str | None = None) -> str | None:
    """F(num/den) = f, with ``answer`` the phi sequence it came from.

    u is read from the long-division digits of x after its leading 0.
    """
    x = Fraction(num, den)
    if x >= Fraction(1, 2):
        return None if f == 1 else "x >= 1/2 must give F = 1"
    if x == 0:
        return None if f == 0 else "x = 0 must give F = 0"
    if answer is None:
        return "missing phi sequence"
    w, err = answer_word(*answer)
    if err:
        return err
    err = central_word_error(w)
    if err:
        return err

    def u_digits():
        digits = division_digits(x.numerator, x.denominator)
        next(digits)  # the leading 0 of x < 1/2
        return digits

    if (_order_by_digits(u_digits(), 2 * x, w + "01") < 0
            or _order_by_digits(u_digits(), 2 * x, w + "10") > 0):
        return f"u is not sandwiched by the central word {w!r}"
    if known_w is not None and w != known_w:
        return f"expected the known central word of length {len(known_w)}"
    value = Fraction(int(answer[1], 2), (1 << len(answer[1])) - 1)
    return None if f == value else f"F = {f} but (phi) has value {value}"


def check_prefix(word: str, decided: bool, answer: tuple[str, str] | None,
                 known_w: str | None = None) -> str | None:
    """A phi_prefix decision: decided answers must be strictly witnessed."""
    if not decided:
        return "known-answer prefix left undecided" if known_w is not None else None
    w, err = answer_word(*answer)
    if err:
        return err
    err = central_word_error(w)
    if err:
        return err
    n = len(word)
    low = first_mismatch(word, expand("", w + "01", n))
    high = first_mismatch(word, expand("", w + "10", n))
    if low is None or high is None or word[low] != "1" or word[high] != "0":
        return f"central word {w!r} is not strictly witnessed in the prefix"
    if known_w is not None and w != known_w:
        return f"expected the known central word of length {len(known_w)}"
    return None


def check_sturmian(directive: tuple[str, str], n: int, out: str) -> str | None:
    """phi(0u) prefix for the characteristic u directed by ``directive``."""
    want = ("1" + sturmian_prefix(*directive, max(n - 1, 1)))[:n]
    return None if out == want else "prefix differs from the convergent floor word"
