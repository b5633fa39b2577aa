"""Seeded benchmark inputs with known answers, built without lexworld.

Every answer here comes from the floor formula for a coprime slope p/q,
never from the library under test:

* ``central_word(p, q)`` is the one period of the zero-intercept
  mechanical word of slope p/q with its first and last digit dropped.
* A known-answer bound ``u`` starts as a prefix of ``(w01)^oo`` (or
  ``(w10)^oo``) taken past one full period, has one ``0`` flipped to ``1``
  (or one ``1`` to ``0``) there, and continues with a random tail and a
  random period.  The flip puts ``u`` strictly between ``(w01)^oo`` and
  ``(w10)^oo``, so ``phi(0u) = (1w0)^oo`` by uniqueness of the
  sandwiching central word.  The characteristic inputs ``(w01)^oo`` and
  ``(w10)^oo`` themselves have the same answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd


def floor_word(p: int, q: int, length: int | None = None) -> str:
    """Digits floor((n+1)p/q) - floor(np/q) for n < length (default q)."""
    return "".join(str((n + 1) * p // q - n * p // q)
                   for n in range(q if length is None else length))


def central_word(p: int, q: int) -> str:
    return floor_word(p, q)[1:-1]


def coprime_slope(rng: random.Random, q_lo: int, q_hi: int) -> tuple[int, int]:
    while True:
        q = rng.randint(max(q_lo, 2), q_hi)
        p = rng.randint(1, q - 1)
        if gcd(p, q) == 1:
            return p, q


def random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def expand(pre: str, per: str, n: int) -> str:
    """The first n digits of pre . per^oo."""
    reps = max(0, n - len(pre)) // len(per) + 1
    return (pre + per * reps)[:n]


@dataclass(frozen=True)
class KnownPhi:
    """u = pre . per^oo with phi(0u) = (1w0)^oo.

    ``flip`` is the index of the flipped letter (None for the
    characteristic inputs); it and index ``len(w)`` are where u first
    leaves ``(w01)^oo`` and ``(w10)^oo``.
    """

    pre: str
    per: str
    w: str
    flip: int | None

    def digits(self, n: int) -> str:
        return expand(self.pre, self.per, n)


def known_phi(rng: random.Random, q_lo: int, q_hi: int,
              characteristic_share: float = 0.2,
              flip_room: int | None = None) -> KnownPhi:
    """A bound with a known phi, its answer period q drawn from [q_lo, q_hi].

    The flip lands at an index in [q, q + flip_room] (default q // 4 + 2);
    the tail after it and the period have at most 8 letters each.
    """
    p, q = coprime_slope(rng, q_lo, q_hi)
    w = central_word(p, q)
    low = rng.random() < 0.5
    base = w + ("01" if low else "10")
    if rng.random() < characteristic_share:
        return KnownPhi("", base, w, None)
    room = q // 4 + 2 if flip_room is None else flip_room
    flip = rng.randint(q, q + room)
    wanted = "0" if low else "1"
    while base[flip % q] != wanted:
        flip += 1
    head = (base * (flip // q + 1))[:flip]
    pre = (head + ("1" if low else "0")
           + random_word(rng, rng.randint(0, 8)))
    per = random_word(rng, rng.randint(1, 8))
    return KnownPhi(pre, per, w, flip)


def known_prefix(rng: random.Random, n: int) -> tuple[str, str]:
    """A length-n prefix of a known-answer bound, cut after its witness.

    Returns (prefix, w): both mismatches against (w01)^oo and (w10)^oo lie
    inside the prefix, so phi_prefix must decide it with answer (1w0)^oo.
    """
    while True:
        k = known_phi(rng, n // 2, (3 * n) // 4, characteristic_share=0.0,
                      flip_room=n // 8)
        if k.flip < n:
            return k.digits(n), k.w


# -- directive words and their slopes ---------------------------------------


def random_directive(rng: random.Random) -> tuple[str, str]:
    """A directive pre(per) whose period holds both letters (aperiodic limit)."""
    while True:
        per = random_word(rng, rng.randint(2, 4))
        if "0" in per and "1" in per:
            return random_word(rng, rng.randint(0, 2)), per


def directive_quotients(pre: str, per: str, count: int) -> list[int]:
    """Partial quotients [a1, a2, ...] of the slope a directive drives.

    Block lengths d1, d2, ... of 0^d1 1^d2 0^d3 ... give a1 = d1 + 1 and
    ak = dk after that.
    """
    out: list[int] = []
    letter, run, i = "0", 0, 0
    while len(out) < count:
        c = pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]
        if c == letter:
            run += 1
            i += 1
        else:
            out.append(run)
            letter, run = c, 0
    out[0] += 1
    return out


def sturmian_prefix(pre: str, per: str, n: int) -> str:
    """First n letters of the characteristic word directed by pre(per).

    The central word of every convergent p_k/q_k of the slope is a prefix
    of the characteristic word, so the first convergent with q_k - 2 >= n
    gives n letters by the floor formula.
    """
    count = 2
    while True:
        # (p_{k-1}, p_k) and (q_{k-1}, q_k), starting from p_0/q_0 = 0/1
        h0, h1, k0, k1 = 1, 0, 0, 1
        best = None
        for a in directive_quotients(pre, per, count):
            h0, h1 = h1, a * h1 + h0
            k0, k1 = k1, a * k1 + k0
            if k1 - 2 >= n:
                best = (h1, k1)
                break
        if best is not None:
            p, q = best
            return central_word(p, q)[:n]
        count *= 2


# -- directive of a slope (for pal inputs) ---------------------------------


def slope_directive(p: int, q: int) -> str:
    """The word v with pal(v) = central_word(p, q), from the Euclidean
    continued fraction of p/q."""
    a: list[int] = []
    num, den = p, q
    while num:
        quot, rem = divmod(den, num)
        a.append(quot)
        num, den = rem, num
    blocks = [a[0] - 2] if len(a) == 1 else [a[0] - 1, *a[1:-1], a[-1] - 1]
    return "".join("01"[i % 2] * d for i, d in enumerate(blocks))


# -- rationals ----------------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def two_is_primitive_root(b: int) -> bool:
    """For prime b: 2 generates the units mod b, so 1/b has period b - 1."""
    m, f, factors = b - 1, 2, set()
    while f * f <= m:
        while m % f == 0:
            factors.add(f)
            m //= f
        f += 1
    if m > 1:
        factors.add(m)
    return all(pow(2, (b - 1) // f, b) != 1 for f in factors)


def full_period_prime(target: int) -> int:
    """The least prime b >= target with 2 a primitive root mod b."""
    b = target
    while not (is_prime(b) and two_is_primitive_root(b)):
        b += 1
    return b


def seq_value(pre: str, per: str) -> tuple[int, int]:
    """0.pre per per ... as an unreduced fraction (num, den)."""
    num = int(pre or "0", 2) * ((1 << len(per)) - 1) + int(per, 2)
    return num, ((1 << len(per)) - 1) << len(pre)
