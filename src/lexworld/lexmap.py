"""The least admissible upper bound phi and the interval endpoint F.

For binary sequences x and y, the constraint family Sigma(x, y) collects
the sequences all of whose shifts lie between x and y lexicographically.
phi(x) is the least y making the family nonempty.  Writing x = 0u, the
answer is always the constant u, the one-prefixed copy of a characteristic
aperiodic u, or a periodic sequence (1w0)^oo for a central word w pinned
down by u; F transports the same computation to rationals through exact
binary expansions, yielding the least right endpoint y such that every
fractional part of ksi * 2^n can be trapped in [x, y] for some ksi > 0.

Every result returned here is verified before it leaves: the defining
shift inequalities are re-checked over the finite shift set, and in the
central-word cases the sandwich (w01)^oo <= u <= (w10)^oo is confirmed
exactly.  Failures raise InvariantError rather than returning a guess.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from math import gcd

from .central import (CentralCertificate, closure_chain,
                      extremal_rotations, is_balanced, is_central,
                      _central_periods, _RUNS)
from .errors import DomainError, InvariantError, Value
from .words import EQ, GT, LT, ONE, ZERO, Seq, check_word, expansion, numeral


class Case(str, enum.Enum):
    """Which branch of the phi case analysis produced a result.

    "i" and "ii" cover the constant bounds and the all-ones/all-zeros
    longest central prefixes; "iv" the characteristic periodic inputs;
    "v_a", "v_b", "v_c" the generic subcases, where the longest central
    prefix v, or w2 or w1 in v = w1 01 w2 = w2 10 w1, sandwiches u.
    """

    I = "i"
    II = "ii"
    III_STURMIAN = "iii_sturmian"
    IV = "iv"
    V_A = "v_a"
    V_B = "v_b"
    V_C = "v_c"
    BOUNDARY_X_GT_HALF = "boundary_x_gt_half"
    BOUNDARY_X_ZERO = "boundary_x_zero"

    def __str__(self) -> str:
        return self.value


KIND_ALL_ZERO = "all_zero"
KIND_ALL_ONE = "all_one"
KIND_CPB = "characteristic_periodic_balanced"
KIND_GENERIC = "generic"


class Classification(namedtuple("Classification", "kind p q variant",
                                  defaults=(None, None, None))):
    """``kind``, and for characteristic periodic input its slope ``p/q`` and
    ``variant`` ("ends01" | "ends10")."""

    __slots__ = ()


def classify(u: Seq) -> Classification:
    """Sort ``u`` into constant, characteristic periodic, or generic.

    A purely periodic u whose primitive period drops its last two letters
    ("01" or "10") to a central word is characteristic of slope
    (ones-per-period) / (period length); everything else eventually
    periodic is generic.
    """
    if u == ZERO:
        return Classification(KIND_ALL_ZERO)
    if u == ONE:
        return Classification(KIND_ALL_ONE)
    if u.purely_periodic and len(u.per) >= 2:
        c = u.per
        tail = c[-2:]
        if tail in ("01", "10") and _central_periods(c[:-2]) is not None:
            p, q = c.count("1"), len(c)
            if gcd(p, q) != 1:
                raise InvariantError(f"period {c!r}: slope {p}/{q} not reduced")
            variant = "ends01" if tail == "01" else "ends10"
            return Classification(KIND_CPB, p, q, variant)
    return Classification(KIND_GENERIC)


class PhiResult(namedtuple("PhiResult",
                           "phi case central longest_central_prefix trace")):
    """phi value plus the evidence used to produce and verify it: ``phi``
    (a Seq), ``case``, the ``central`` certificate (or None), the
    ``longest_central_prefix`` of u (or None) and the ``trace`` lines."""

    __slots__ = ()


class VerifyReport(namedtuple("VerifyReport", "passed checks failures",
                              defaults=((),))):
    """Whether every check ``passed``, how many ``checks`` ran, and the
    ``failures`` found."""

    __slots__ = ()


def _shift_extremes(s: Seq):
    """Pairs (least, greatest) that bound every shift T^k(s) between them:
    (t, t) for each preperiod shift t, then the least and greatest rotation
    of the period (``extremal_rotations``).  The shifts from |pre| on are
    the r^oo for the rotations r of the period, and as all r have length
    |per|, r^oo orders as r does.
    """
    for k in range(len(s.pre)):
        t = s.shift(k)
        yield t, t
    least, greatest = extremal_rotations(s.per)
    yield Seq("", least), Seq("", greatest)


def verify_phi(u: Seq, b: Seq) -> VerifyReport:
    """Check the defining inequalities of b = phi(0u) over b's shift set.

    Requires 0u <= T^k(b) <= 1u and T^k(b) <= b for every shift, plus
    balance of b, decided on its doubled period (a window of twice the
    period length sees every factor length that matters).  Three checks
    per preperiod shift and three for the period (its least rotation
    against 0u, its greatest against 1u and b; see ``_shift_extremes``)
    decide every shift inequality exactly, so a call makes 3|pre| + 4
    checks and holds O(|u| + |pre| + |per|) letters.  A failure names the
    shift that fails, for the period an extremal rotation.
    """
    failures: list[str] = []
    zero_u, one_u = u.prepend("0"), u.prepend("1")
    checks = 0
    for least, greatest in _shift_extremes(b):
        checks += 3
        if not zero_u <= least:
            failures.append(f"shift {least} is below the lower bound 0u = {zero_u}")
        if not greatest <= one_u:
            failures.append(f"shift {greatest} is above the upper bound 1u = {one_u}")
        if not greatest <= b:
            failures.append(f"shift {greatest} exceeds the sequence itself")
    checks += 1
    if not is_balanced(b.pre + b.per * 2):
        failures.append("sequence is not balanced on its doubled period")
    return VerifyReport(not failures, checks, tuple(failures))


def sigma_member(s: Seq, lo: Seq, hi: Seq) -> bool:
    """Do all shifts of ``s`` lie in [lo, hi] lexicographically?"""
    return all(lo <= least and greatest <= hi
               for least, greatest in _shift_extremes(s))


def lex_world_member(x: Seq, y: Seq) -> bool:
    """Is Sigma(x, y) nonempty?  Equivalent to y >= phi(x)."""
    return y >= phi(x).phi


def _longest_central_prefix(u: Seq, trace: list[str]) -> str:
    """The longest central prefix of ``u``.

    Central prefixes form a single closure chain, each step extending the
    directive by the letter of ``u`` right after the previous prefix, so
    the first failed extension witnesses maximality.  ``closure_chain``
    walks it (Justin's formula) on a window of ``u`` that doubles until the
    walk ends at a v with 2|v| + 1 inside it: no step from v reaches
    further, so the failed step was decided inside the window.

    Only generic ``u`` reaches here, and its central prefixes are shorter
    than 2(|pre| + |per|), so a longer one raises InvariantError.  Proof:
    let v be one, of least period ell <= (|v| + 2)/2.  By Fine and Wilf,
    v[|pre|:] (periods |per| and ell, length >= |per| + ell - 1) has period
    gcd(|per|, ell), so |per| divides ell as per is primitive.  Then
    v[|pre| - 1] = v[|pre| - 1 + ell] = per[-1] forces |pre| = 0 in a
    canonical u, and ell = |per|: per = v[:ell] is a letter or, by v's
    standard factorisation w1 01 w2 = w2 10 w1, w1 01 or w2 10, so u is
    constant or characteristic (case ii or iv of ``classify``).
    """
    n = 64
    while True:
        window = u.prefix(n)
        v = window[:sum(len(piece) for piece, _, _ in
                        closure_chain(prefixes_of=window))]
        if len(v) >= 2 * (len(u.pre) + len(u.per)):
            raise InvariantError(
                f"{u} has a central prefix of {len(v)} >= 2(|pre| + |per|) "
                "letters: it is characteristic, not generic")
        if 2 * len(v) < n:
            trace.append(f"longest central prefix {v!r} "
                         f"(extension by {u.digit(len(v))!r} fails)")
            return v
        n *= 2


def _case(v: str, w: str, cert_v: CentralCertificate | None = None) -> Case:
    """The case answering (1w0)^oo from the longest central prefix v: i for
    v in 1*, ii for v in 0*, else v_a, v_b or v_c for w = v, w2 or w1,
    where v = w1 01 w2 = w2 10 w1 (``cert_v``, if known, certifies v)."""
    if len(set(v)) == 1:
        return Case.I if v[0] == "1" else Case.II
    cert_v = cert_v or is_central(v)
    case = {v: Case.V_A, cert_v.w2: Case.V_B, cert_v.w1: Case.V_C}.get(w)
    if case is None:
        raise InvariantError(f"{w!r} is none of v, w2, w1 for {v!r}")
    return case


def _ends(w: str, n: int) -> tuple[str, str]:
    """The first ``n`` letters of (w01)^oo and of (w10)^oo."""
    reps = n // (len(w) + 2) + 1
    return ((w + "01") * reps)[:n], ((w + "10") * reps)[:n]


def _sandwiching(words, x: str) -> str | None:
    """The w of ``words`` whose ends (w01)^oo and (w10)^oo, cut to len(x)
    letters, lie strictly below and above ``x``, or None.  The sandwiching
    central word is unique, so a second hit raises InvariantError."""
    hits = [w for w in words for lo, hi in [_ends(w, len(x))] if lo < x < hi]
    if len(hits) > 1:
        raise InvariantError(f"two central words sandwich {x!r}: {hits!r}")
    return hits[0] if hits else None


def _answer(u: Seq, case: Case, cert: CentralCertificate | None,
            v: str | None, trace: list[str]) -> PhiResult:
    """phi(0u) = (1w0)^oo, w = ``cert.word``, once ``verify_phi`` holds.
    A constant u, given no certificate, answers itself."""
    b = u if cert is None else Seq("", "1" + cert.word + "0")
    report = verify_phi(u, b)
    if not report.passed:
        raise InvariantError(
            f"phi(0.{u}) = {b} failed verification: {report.failures[0]}")
    trace.append(f"verified {report.checks} shift and balance checks")
    return PhiResult(b, case, cert, v, tuple(trace))


def phi_zero_u(u: Seq) -> PhiResult:
    """phi(0u) for an eventually periodic ``u``, with mandatory verification.

    Constants map to themselves and characteristic periodic u, an end
    (w01)^oo or (w10)^oo for a central w, to (1w0)^oo.  Otherwise phi(0u)
    = (1w0)^oo for the one w with (w01)^oo < u < (w10)^oo among those the
    longest central prefix v leaves: v[:-1] for v in 0* or 1*, else v, w2
    and w1 (v = w1 01 w2 = w2 10 w1).  The sandwich is decided on |pre| +
    |per| + |v| + 2 letters, which is exact: each end has period at most
    |v| + 2, and by Fine and Wilf (see ``Seq.compare``) sequences agreeing
    that far are equal.  The shift inequalities are re-checked last.
    """
    trace: list[str] = []
    cls = classify(u)

    if cls.kind in (KIND_ALL_ZERO, KIND_ALL_ONE):
        trace.append(f"constant input: phi(0.{u}) = {u}")
        return _answer(u, Case.II, None, None, trace)

    if cls.kind == KIND_CPB:
        w = u.per[:-2]
        cert = is_central(w)
        if cert is None:
            raise InvariantError(f"u = {u} is characteristic, but is_central "
                                 f"refuses w = {w!r}")
        trace.append(
            f"characteristic periodic input of slope {cls.p}/{cls.q} "
            f"({cls.variant}); phi = (1{w}0)^oo")
        return _answer(u, Case.IV, cert, None, trace)

    v = _longest_central_prefix(u, trace)
    cert_v = is_central(v) if len(set(v)) > 1 else None
    words = (v, cert_v.w2, cert_v.w1) if cert_v is not None else (v[:-1],)
    w = _sandwiching(words, u.prefix(len(u.pre) + len(u.per) + len(v) + 2))
    cert = None if w is None else is_central(w)
    if cert is None:
        raise InvariantError(f"no central word of {words!r} sandwiches {u}")
    trace.append(f"sandwich around central word {w!r} confirmed")
    return _answer(u, _case(v, w, cert_v), cert, v, trace)


def phi(a: Seq) -> PhiResult:
    """phi of a full bound sequence: 1-headed bounds force the all-ones
    answer, 0-headed bounds delegate to the tail."""
    if a.digit(0) == "1":
        trace = ("bound starts with 1: only the all-ones sequence has every "
                 "shift above it",)
        return PhiResult(ONE, Case.I, None, None, trace)
    return phi_zero_u(a.shift(1))


# -- finite-prefix decisions ---------------------------------------------


class PrefixDecision(namedtuple("PrefixDecision", "decided result reason",
                                defaults=(None, None))):
    """Whether the prefix ``decided`` phi, with the PhiResult ``result`` if
    so or the ``reason`` if not."""

    __slots__ = ()


def phi_prefix(p_word: str) -> PrefixDecision:
    """Decide phi(0u) from a finite prefix of u, when the prefix forces it.

    A candidate central word w is *witnessed* when the prefix lies strictly
    between the equally long prefixes of (w01)^oo and (w10)^oo, so that
    every infinite extension of it satisfies the strict sandwich, and
    uniqueness of the sandwiching central word makes (1w0)^oo the answer
    for all of them.  Candidates are exactly the central prefixes of the
    input, since every case of the analysis returns one of those; the
    longest labels the case.  If no candidate is witnessed the call
    reports what stayed undecided.
    """
    check_word(p_word)
    if not p_word:
        raise DomainError("cannot decide from an empty prefix")
    n = len(p_word)
    candidates = [p_word[:k] for k in range(n + 1)
                  if _central_periods(p_word[:k]) is not None]
    w = _sandwiching(candidates, p_word)
    if w is None:  # name the longest candidate with an end equal to p_word
        side = next((f"({c}{xy})^oo" for c in reversed(candidates)
                     for xy, end in zip(("01", "10"), _ends(c, n))
                     if end == p_word), None)
        return PrefixDecision(False, None, (
            f"comparison against {side} is undecided within the {n}-letter "
            "prefix" if side else f"no central prefix of {p_word!r} is "
            "strictly sandwiched within the prefix"))

    v = candidates[-1]
    trace = (f"the {n}-letter prefix lies strictly between those of "
             f"({w}01)^oo and ({w}10)^oo",
             "strict sandwich holds for every extension of the prefix")
    return PrefixDecision(True, PhiResult(
        Seq("", "1" + w + "0"), _case(v, w), is_central(w), v, trace), None)


# -- aperiodic characteristic bounds --------------------------------------


class SturmianPhi(Value):
    """Symbolic phi(0u) = 1u for u the closure limit of ``directive``.

    The value is aperiodic, so it is exposed as a prefix generator plus
    the continued fraction of the slope read off the directive's block
    lengths.  An eventually constant directive, whose limit is periodic, is
    refused with DomainError.  Instances are immutable.
    """

    __slots__ = ("directive",)
    case = Case.III_STURMIAN

    def __init__(self, directive: Seq):
        from .mechanical import is_sturmian_directive
        if not is_sturmian_directive(directive):
            raise DomainError("directive is eventually constant; the limit is "
                              "periodic and handled by the slope-based path")
        object.__setattr__(self, "directive", directive)

    @property
    def symbolic(self) -> str:
        return f"1*Pal({self.directive})"

    def phi_value_prefix(self, n: int) -> str:
        from .mechanical import characteristic_sturmian_prefix
        if n < 1:
            raise DomainError("prefix length must be positive")
        return ("1" + characteristic_sturmian_prefix(self.directive, n))[:n]

    def slope_cf(self, count: int) -> tuple[int, ...]:
        """First ``count`` partial quotients [a1, a2, ...] of the slope,
        from the directive's alternating block lengths (a1 = d1 + 1, with
        d1 = 0 when the directive starts with 1).  Each copy of the
        non-constant period changes letter, so the prefix read holds more
        than ``count`` complete blocks."""
        if count < 1:
            raise DomainError("need at least one quotient")
        d = self.directive
        prefix = d.prefix(len(d.pre) + (count + 2) * len(d.per))
        quotients = [0] * prefix.startswith("1") + [
            len(run) for run in _RUNS.findall(prefix)]
        quotients[0] += 1
        return tuple(quotients[:count])


def phi_sturmian(delta: Seq) -> SturmianPhi:
    """phi(0u) for the aperiodic characteristic u directed by ``delta``."""
    return SturmianPhi(delta)


# -- the number-theoretic endpoint ----------------------------------------


class FResult(namedtuple("FResult", "x F phi_expansion case cmp_x_plus_half")):
    """Least right endpoint ``F`` = F(x) with its combinatorial evidence:
    the sequence ``phi_expansion`` whose value it is, the ``case``, and
    ``cmp_x_plus_half`` (LT or EQ against x + 1/2; None at the
    boundaries).  Every result is ``verified``: F checks it first."""

    __slots__ = ()
    verified = True


def F(x: Fraction) -> FResult:
    """The least y such that every fractional part of some ksi * 2^n can be
    confined to [x, y].

    Above 1/2 the expansion of x begins with 1, so only the all-ones
    sequence survives and F = 1; at 0 the answer is 0.  Both witnesses
    hold without a check: 1^oo is the greatest sequence and every shift of
    it is itself, so it lies in Sigma(expansion(x), 1^oo), and 0^oo lies in
    Sigma(0^oo, 0^oo); x above 1/2 is therefore never expanded.  Otherwise
    the lexicographically smaller expansion of x (beginning with 0) is fed
    to phi, and F is the exact value of the resulting sequence.  The exact
    comparison against x + 1/2 is recorded: characteristic inputs reach it
    or fall below, generic ones stay strictly below.
    """
    from fractions import Fraction
    x = Fraction(x)
    if x < 0 or x > 1:
        raise DomainError(f"F is defined on [0, 1], got {numeral(x)}")
    if x > Fraction(1, 2):
        return FResult(x, Fraction(1), ONE, Case.BOUNDARY_X_GT_HALF, None)
    if x == 0:
        return FResult(x, Fraction(0), ZERO, Case.BOUNDARY_X_ZERO, None)

    a = expansion(x)  # lesser form, begins with 0 since x <= 1/2
    res = phi(a)
    fval = res.phi.value()
    threshold = x + Fraction(1, 2)
    cmp = LT if fval < threshold else EQ if fval == threshold else GT
    if res.case is Case.IV and cmp == GT:
        raise InvariantError(
            f"F({numeral(x)}) exceeds x + 1/2 in the characteristic case")
    if res.longest_central_prefix is not None and cmp != LT:
        raise InvariantError(
            f"F({numeral(x)}) fails the strict bound below x + 1/2")
    return FResult(x, fval, res.phi, res.case, cmp)
