import copy
import pickle
import random
import re
import time
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexworld.central import central_from_slope, is_central
from lexworld.cf import ContinuedFraction
from lexworld.errors import DomainError, InvariantError, ParseError
from lexworld.lexmap import phi_prefix, phi_sturmian, phi_zero_u
from lexworld.oracle import SweepConfig
from lexworld.words import (EQ, EXPANSION_BUDGET, GT, LT, ONE, ZERO, Seq,
                            _order_of_two, check_word, expansion,
                            is_period, minimal_period, parse_seq,
                            parse_rational, primitive_root)

words = st.text(alphabet="01", max_size=6)
periods = st.text(alphabet="01", min_size=1, max_size=6)
seqs = st.builds(Seq, words, periods)


def frac(a, b=1):
    return Fraction(a, b)


# -- canonical form -------------------------------------------------------

def test_canonicalize_rotation_merge():
    assert Seq("0", "1010") == Seq("", "01")


def test_canonicalize_primitivity():
    assert Seq("", "0101").per == "01"


def test_canonicalize_already_canonical():
    s = Seq("01", "0010")
    assert (s.pre, s.per) == ("01", "0010")
    assert repr(s) == "Seq(pre='01', per='0010')"


def test_period_must_be_nonempty():
    with pytest.raises(DomainError):
        Seq("0", "")


def test_seq_is_immutable_and_slotted():
    s = Seq("0", "1010")
    for name in ("pre", "per", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, "1")
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert not hasattr(s, "__dict__")
    assert (s.pre, s.per) == ("", "01")


def test_equal_seqs_hash_equal():
    s, t = Seq("0", "1010"), Seq("010", "10")
    assert s == t and hash(s) == hash(t)
    assert len({s, t, Seq("", "0101")}) == 1
    assert s != Seq("", "10") and s != ("", "01")


# One instance of each value class, with a field value its __init__ refuses.
VALUES = [
    (Seq("1", "010"), "per", ""),
    (is_central("010"), "directive", "10"),
    (ContinuedFraction((2, 1, 2)), "digits", (0, 2)),
    (phi_sturmian(Seq("", "01")), "directive", Seq("", "0")),
    (SweepConfig(6), "max_period", 17),
]
VALUE_IDS = [type(obj).__name__ for obj, _, _ in VALUES]
# Result records that carry a central certificate.
RECORDS = [phi_zero_u(Seq("", "1100")), phi_prefix("010010011")]


@pytest.mark.parametrize("obj", [obj for obj, _, _ in VALUES] + RECORDS,
                         ids=VALUE_IDS + ["PhiResult", "PrefixDecision"])
def test_value_copies_and_pickles_to_equal_objects(obj):
    for twin in (copy.copy(obj), copy.deepcopy(obj),
                 pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj
    fields = getattr(obj, "_fields", None) or type(obj).__slots__
    text = repr(obj)
    assert text.startswith(type(obj).__name__ + "(")
    assert all(f"{name}=" in text for name in fields)


@pytest.mark.parametrize("obj,field,bad", VALUES, ids=VALUE_IDS)
def test_value_reduce_rebuilds_through_init(obj, field, bad):
    names = type(obj).__slots__
    values = tuple(getattr(obj, name) for name in names)
    assert obj.__reduce__() == (type(obj), values)
    changed = tuple(bad if name == field else v for name, v in zip(names, values))
    with pytest.raises((InvariantError, DomainError)):
        type(obj)(*changed)


def reference_canonical(pre, per):
    """Primitive root by the minimal period, then one rotation per absorbed
    preperiod letter: the original construction, kept as the reference."""
    p = naive_minimal_period(per)
    per = per[:p] if len(per) % p == 0 else per
    while pre and pre[-1] == per[-1]:
        per = per[-1] + per[:-1]
        pre = pre[:-1]
    return pre, per


def test_canonical_form_matches_reference_exhaustive():
    words_upto = ["".join(bits) for n in range(7) for bits in product("01", repeat=n)]
    for pre in words_upto:
        for per in words_upto[1:]:
            s = Seq(pre, per)
            assert (s.pre, s.per) == reference_canonical(pre, per), (pre, per)


@given(seqs)
def test_canonical_forms_agree_digitwise(s):
    raw_digits = [s.digit(i) for i in range(20)]
    again = Seq(s.pre + s.per, s.per)
    assert [again.digit(i) for i in range(20)] == raw_digits


# -- shift ----------------------------------------------------------------

def test_shift_rotates_pure_period():
    assert Seq("", "01").shift(1) == Seq("", "10")


def test_shift_drops_preperiod():
    assert Seq("0", "10").shift(1) == Seq("", "10")


def test_shift_and_prepend_refuse_bad_arguments():
    with pytest.raises(DomainError):
        Seq("0", "10").shift(-1)
    with pytest.raises(DomainError):
        Seq("0", "10").prepend("2")


def test_shift_by_full_period_is_identity():
    s = Seq("", "01001")
    assert s.shift(5) == s


@given(seqs, st.integers(0, 50), st.integers(0, 50))
def test_shift_composition(s, j, k):
    assert s.shift(j + k) == s.shift(j).shift(k)


def test_prefix_rejects_negative_length():
    s = Seq("001", "1")
    assert s.prefix(0) == ""
    with pytest.raises(DomainError):
        s.prefix(-1)
    with pytest.raises(DomainError):
        s.digit(-1)


# -- lexicographic order --------------------------------------------------

def test_compare_constants():
    assert ZERO.compare(ONE) == LT


def test_compare_characteristic_pair_slope_two_fifths():
    assert Seq("", "01001").compare(Seq("", "01010")) == LT


def test_compare_mixed_preperiod():
    assert Seq("00", "1").compare(Seq("", "010")) == LT


def lcm_loop_compare(s, t):
    """Digit by digit up to the lcm bound: the original ``Seq.compare``,
    kept as the reference."""
    n = max(len(s.pre), len(t.pre)) + lcm(len(s.per), len(t.per))
    for i in range(n):
        a, b = s.digit(i), t.digit(i)
        if a != b:
            return LT if a < b else GT
    return EQ


def test_compare_matches_lcm_loop_exhaustive():
    pres = ["".join(bits) for n in range(3) for bits in product("01", repeat=n)]
    pers = ["".join(bits) for n in range(1, 5) for bits in product("01", repeat=n)]
    small = [Seq(pre, per) for pre in pres for per in pers]
    for s in small:
        for t in small:
            assert s.compare(t) == lcm_loop_compare(s, t), (s, t)


def test_compare_matches_lcm_loop_seeded_long_coprime_periods():
    # t copies the first k digits of s and then repeats a period whose
    # length is coprime to s's, so the first mismatch can sit anywhere up
    # to the Fine-Wilf bound.
    rng = random.Random(3560)
    for _ in range(400):
        p = rng.randrange(1, 120)
        p2 = rng.randrange(1, 120)
        while gcd(p, p2) != 1:
            p2 += 1
        word = lambda n: "".join(rng.choice("01") for _ in range(n))
        s = Seq(word(rng.randrange(6)), word(p))
        k = rng.randrange(p + p2 + 6)
        t = Seq(s.prefix(k), s.prefix(k + p2)[k:] if rng.random() < 0.5
                else word(p2))
        assert s.compare(t) == lcm_loop_compare(s, t), (s, t)
        assert t.compare(s) == -lcm_loop_compare(s, t), (s, t)


def test_compare_fine_wilf_bound_is_tight():
    # The two periodic words read off a central word w of slope p/q agree
    # on |w| = ell1 + ell2 - 2 digits and differ right after: the last
    # position the bound ell1 + ell2 - gcd(ell1, ell2) covers.
    for p, q in [(2, 5), (5, 13), (89, 233), (101, 257)]:
        cert = central_from_slope(p, q)
        s, t = Seq("", cert.word[:cert.ell1]), Seq("", cert.word[:cert.ell2])
        assert s.prefix(q - 2) == t.prefix(q - 2) == cert.word
        assert s.digit(q - 2) != t.digit(q - 2)
        assert s.compare(t) == lcm_loop_compare(s, t) != EQ


@given(seqs, seqs)
def test_compare_matches_first_mismatch(s, t):
    c = s.compare(t)
    window = max(len(s.pre), len(t.pre)) + len(s.per) * len(t.per)
    diffs = [i for i in range(window) if s.digit(i) != t.digit(i)]
    if c == EQ:
        assert not diffs
        assert s == t
    else:
        i = diffs[0]
        assert (c == LT) == (s.digit(i) == "0")


@given(seqs, seqs)
def test_order_implies_value_order(s, t):
    if s.compare(t) != GT:
        assert s.value() <= t.value()


@given(seqs, seqs)
def test_equal_values_under_strict_order_are_dyadic_twins(s, t):
    if s.compare(t) == LT and s.value() == t.value():
        x = s.value()
        assert s == expansion(x) and t == expansion(x, greater=True)


# -- value and expansion --------------------------------------------------

@pytest.mark.parametrize("per,expected", [
    ("01", frac(1, 3)),
    ("10", frac(2, 3)),
    ("1", frac(1)),
])
def test_value_pure_periods(per, expected):
    assert Seq("", per).value() == expected


def test_expansion_unique():
    assert expansion(frac(1, 3)) == Seq("", "01")


def test_expansion_dyadic_lesser():
    assert expansion(frac(1, 4)) == Seq("00", "1")


def test_expansion_dyadic_greater():
    assert expansion(frac(1, 4), greater=True) == Seq("01", "0")


def test_expansion_endpoints():
    assert expansion(frac(0)) == ZERO
    assert expansion(frac(1)) == ONE


def test_expansion_rejects_outside_unit_interval():
    with pytest.raises(DomainError):
        expansion(frac(3, 2))
    # numerals past the interpreter's int-string limit
    with pytest.raises(DomainError, match="binary digits"):
        expansion(Fraction(-1, 2 ** 20000))


def test_round_trip_small_denominators_exhaustive():
    for b in range(1, 41):
        for a in range(b + 1):
            x = frac(a, b)
            assert expansion(x).value() == x
            assert expansion(x, greater=True).value() == x


@given(st.fractions(min_value=0, max_value=1, max_denominator=10**4),
       st.booleans())
def test_round_trip_denominators_up_to_1e4(x, greater):
    assert expansion(x, greater=greater).value() == x


def reference_expansion(x, greater=False):
    """The expansion by Fraction doubling until a remainder repeats: the
    library's original algorithm, kept as the reference."""
    x = Fraction(x)
    if x == 0:
        return ZERO
    if x == 1:
        return ONE
    digits = []
    pos = {}
    y = x
    while y != 0 and y not in pos:
        pos[y] = len(digits)
        y *= 2
        if y >= 1:
            digits.append("1")
            y -= 1
        else:
            digits.append("0")
    body = "".join(digits)
    if y == 0:
        if greater:
            return Seq(body, "0")
        return Seq(body[:-1] + "0", "1")
    i = pos[y]
    return Seq(body[:i], body[i:])


def reference_table(b):
    """{x: (lesser, greater)} from the reference, over reduced x = a/b.

    Only dyadic x have two expansions, so other x need one reference call.
    For odd b > 1 one call per doubling orbit suffices: such x are not
    dyadic, so the expansion of frac(2^i x) is the i-th shift of the
    expansion of x.
    """
    table = {}
    for a in range(b + 1):
        x = Fraction(a, b)
        if x.denominator != b or x in table:
            continue
        s = reference_expansion(x)
        if b & (b - 1) == 0:
            table[x] = (s, reference_expansion(x, greater=True))
        elif b % 2 == 0:
            table[x] = (s, s)
        else:
            for i in range(len(s.per)):
                table[x * 2 ** i % 1] = (s.shift(i), s.shift(i))
    return table


def test_expansion_matches_reference_below_400():
    for b in range(1, 400):
        for x, want in reference_table(b).items():
            assert (expansion(x), expansion(x, greater=True)) == want, x


def test_expansion_matches_reference_seeded_large_periods():
    # x = a / (2^k m) with m odd and up to 10^6, so periods reach ~10^6
    # digits, where the reference (about 8 us per digit) is too slow to
    # run on all of them.  A non-dyadic rational has one binary expansion
    # and Seq is canonical, so the exact value fixes the reference's Seq;
    # periods of at most 256 digits are also compared with it directly.
    rng = random.Random(20091)
    for _ in range(3000):
        k = rng.randrange(41)
        m = round(10 ** rng.uniform(0, 6)) | 1
        b = (1 << k) * m
        a = rng.randrange(b + 1)
        x = Fraction(a, b)
        s = expansion(x)
        assert s.value() == x, x
        if x.denominator & (x.denominator - 1) == 0:  # dyadic
            assert s == reference_expansion(x), x
            assert expansion(x, True) == reference_expansion(x, True), x
            continue
        if len(s.per) <= 256:
            assert s == reference_expansion(x), x


def test_expansion_refuses_past_the_digit_budget():
    assert EXPANSION_BUDGET >= 1 << 22
    # The order of 2 is sought in O(sqrt(budget)) steps: about 2 ms here,
    # against about 0.5 s for one doubling step per digit.
    start = time.perf_counter()
    with pytest.raises(DomainError, match="digits"):
        expansion(Fraction(354224848179261915075, 927372692193078999176))
    assert time.perf_counter() - start < 0.25
    with pytest.raises(DomainError, match="digits"):
        expansion(Fraction(1, 1 << (EXPANSION_BUDGET + 1)))


def doubling_order_of_two(m, limit):
    """The order of 2 modulo odd m >= 3, one doubling step per candidate,
    or None past ``limit``: the library's original loop, kept as the
    reference."""
    r = 2
    for ell in range(1, limit + 1):
        if r == 1:
            return ell
        r += r
        if r >= m:
            r -= m
    return None


def test_order_of_two_matches_doubling_loop_below_5000():
    for m in range(3, 5000, 2):
        ell = doubling_order_of_two(m, m)  # the order is below m
        for limit in (ell - 1, ell, ell + 1):
            assert _order_of_two(m, limit) == doubling_order_of_two(m, limit), \
                (m, limit)


def prime_factors(n):
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.add(n)
    return out


def test_order_of_two_seeded_up_to_1e9():
    # m is drawn log-uniformly, so every round size of the search is hit.
    # Orders near 10^9 are out of the doubling loop's reach (about 0.15 us
    # a step), so each order is certified instead: 2^ell = 1 (mod m) and
    # 2^(ell/p) != 1 for each prime p dividing ell, which leaves no proper
    # divisor of ell as the order.  Orders up to 10^5 also meet the loop.
    rng = random.Random(20095)
    for _ in range(300):
        m = round(10 ** rng.uniform(0.5, 9)) | 1
        ell = _order_of_two(m, m)
        assert pow(2, ell, m) == 1, m
        assert all(pow(2, ell // p, m) != 1 for p in prime_factors(ell)), m
        assert _order_of_two(m, ell - 1) is None, m
        assert _order_of_two(m, ell) == _order_of_two(m, ell + 1) == ell, m
        if ell <= 10 ** 5:
            assert doubling_order_of_two(m, ell + 1) == ell, m


@given(seqs)
def test_shift_doubles_value(s):
    # digit shift is exact doubling mod 1, except when the shifted sequence
    # is the all-ones expansion, which this library reads as the value 1
    if s.shift(1) == ONE:
        assert s.shift(1).value() == 1
    else:
        two_v = 2 * s.value()
        assert s.shift(1).value() == two_v - (1 if s.digit(0) == "1" else 0)


def test_shift_doubling_exception_is_the_lesser_half():
    # 0(1)^oo has value 1/2 but its shift reads as 1, not frac(2 * 1/2) = 0
    s = Seq("0", "1")
    assert s.value() == frac(1, 2)
    assert s.shift(1).value() == 1


# -- minimal period -------------------------------------------------------

def naive_minimal_period(w):
    return next(ell for ell in range(1, len(w) + 1)
                if all(w[i] == w[i + ell] for i in range(len(w) - ell)))


@pytest.mark.parametrize("w,expected", [
    ("010010", 3),
    ("0000", 1),
    ("01", 2),
])
def test_minimal_period_examples(w, expected):
    assert minimal_period(w) == expected
    assert naive_minimal_period(w) == expected


def test_minimal_period_rejects_empty():
    with pytest.raises(DomainError):
        minimal_period("")


@given(st.text(alphabet="01", min_size=1, max_size=12))
def test_minimal_period_matches_naive_scan(w):
    assert minimal_period(w) == naive_minimal_period(w)


def test_is_period_matches_its_definition_up_to_ten():
    # one slice comparison, checked against the letterwise definition for
    # every ell up to len(w) + 2, where every ell >= len(w) is a period
    for n in range(11):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            for ell in range(1, n + 3):
                assert is_period(w, ell) == all(
                    w[i] == w[i + ell] for i in range(n - ell)), (w, ell)
    with pytest.raises(DomainError, match="positive"):
        is_period("010", 0)


def test_primitive_root_matches_minimal_period_definition():
    for n in range(1, 13):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            p = naive_minimal_period(w)
            assert primitive_root(w) == (w[:p] if n % p == 0 else w), w


def test_primitive_root_rejects_empty():
    with pytest.raises(DomainError):
        primitive_root("")


# -- word validation ------------------------------------------------------

@pytest.mark.parametrize("w,index", [
    ("01a01", 2),
    ("0110 1", 4),
    ("\t01", 0),
    ("01\n", 2),
    ("0\u0661", 1),     # ARABIC-INDIC DIGIT ONE
    ("1\uff10", 1),     # FULLWIDTH DIGIT ZERO
    ("00x0y", 2),
])
def test_check_word_reports_first_bad_index(w, index):
    with pytest.raises(ParseError) as err:
        check_word(w)
    assert err.value.position == index
    assert repr(w[index]) in str(err.value)


def test_check_word_accepts_binary_words():
    for w in ("", "0", "1", "0110" * 50):
        assert check_word(w) is w


# -- distinct shifts ------------------------------------------------------

def test_distinct_shifts_pure_period():
    assert set(Seq("", "10").shifts()) == {Seq("", "10"), Seq("", "01")}


def test_distinct_shifts_with_preperiod():
    got = Seq("1", "10").shifts()
    assert got == [Seq("1", "10"), Seq("", "10"), Seq("", "01")]


def test_distinct_shifts_alias_collapses_first():
    # 0.(10)^oo is (01)^oo in canonical form, so only two shifts exist
    s = Seq("0", "10")
    assert s == Seq("", "01")
    assert s.shifts() == [Seq("", "01"), Seq("", "10")]


def test_distinct_shifts_primitive_period_five():
    assert len(Seq("", "01001").shifts()) == 5


@given(seqs)
def test_distinct_shifts_cover_all_iterates(s):
    shifts = set(s.shifts())
    assert len(shifts) == len(s.shifts()) == len(s.pre) + len(s.per)
    for k in range(25):
        assert s.shift(k) in shifts


# -- text grammar ---------------------------------------------------------

@pytest.mark.parametrize("text,pre,per", [
    ("(01)", "", "01"),
    ("0(10)", "", "01"),      # canonicalised on parse
    ("01(0010)", "01", "0010"),
    ("0110", "011", "0")      # bare word: zero extension, canonicalised
])
def test_parse_seq(text, pre, per):
    s = parse_seq(text)
    assert (s.pre, s.per) == (pre, per)


def test_parse_rejects_bad_character_with_position():
    with pytest.raises(ParseError) as err:
        parse_seq("01a01")
    assert err.value.position == 2


def test_parse_rejects_empty_period():
    with pytest.raises(ParseError):
        parse_seq("01()")


@pytest.mark.parametrize("text,position,message", [
    ("01a01", 2, "invalid character 'a'"),
    ("0(1a)", 3, "invalid character 'a'"),
    ("0(1(0))", 3, "invalid character '('"),
    ("01()", 3, "invalid character ')'"),
    ("0(10", 4, "ends early"),
    ("0(1)1", 4, "invalid character '1'"),
    ("0(1))", 4, "invalid character ')'"),
])
def test_parse_seq_names_the_first_bad_position(text, position, message):
    # the grammar is [01]* ("(" [01]+ ")")?
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_seq(text)
    assert err.value.position == position


def test_parse_rational():
    assert parse_rational("2/5") == frac(2, 5)
    assert parse_rational("3") == frac(3)
    assert parse_rational("-1/3") == frac(-1, 3)
    assert parse_rational("007/010") == frac(7, 10)
    # the grammar is -?[0-9]+(/[0-9]+)? in ASCII; errors name a position
    for text, position in [("2/0", 2), ("x/2", 0), ("1_000/3001", 1),
                           ("\u0661/\u0663", 0), (" 1/3 ", 0), ("1/3 ", 3),
                           ("+1", 0), ("1/-3", 2), ("1.5", 1), ("1/2/3", 3),
                           ("/3", 0), ("", 0), ("-", 1), ("1/", 2)]:
        with pytest.raises(ParseError) as err:
            parse_rational(text)
        assert err.value.position == position, text


@given(seqs)
def test_print_parse_round_trip(s):
    assert parse_seq(str(s)) == s
