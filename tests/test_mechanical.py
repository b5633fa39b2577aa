from fractions import Fraction
from math import gcd

import pytest

from lexworld.cf import cf_of_rational, directive_from_cf
from lexworld.central import central_from_slope, is_balanced, pal
from lexworld.errors import DomainError
from lexworld.mechanical import (characteristic_sturmian_prefix,
                                 mech_periodic, pal_prefix)
from lexworld.words import EXPANSION_BUDGET, Seq
from reference import characteristic_pair, mech_lower, mech_upper

F = Fraction

FIB = Seq("", "01")  # directive of the golden-ratio-conjugate slope


# -- digit formulas -----------------------------------------------------------

def test_lower_digits_slope_two_fifths():
    assert [mech_lower(F(2, 5), F(0), n) for n in range(5)] == [0, 0, 1, 0, 1]


def test_budget_bounds_prefix_length_and_period():
    prefix = characteristic_sturmian_prefix(FIB, EXPANSION_BUDGET)
    assert len(prefix) == EXPANSION_BUDGET
    with pytest.raises(DomainError, match="budget"):
        characteristic_sturmian_prefix(FIB, EXPANSION_BUDGET + 1)
    with pytest.raises(DomainError, match="budget"):
        mech_periodic(1, EXPANSION_BUDGET + 1)


def test_lower_digits_constant_slopes():
    assert all(mech_lower(F(0), F(0), n) == 0 for n in range(10))
    assert all(mech_lower(F(1), F(1), n) == 1 for n in range(10))


def test_upper_digits_slope_two_fifths():
    assert [mech_upper(F(2, 5), F(0), n) for n in range(5)] == [1, 0, 1, 0, 0]


def test_upper_digits_intercept_equals_slope():
    assert [mech_upper(F(2, 5), F(2, 5), n) for n in range(5)] == [0, 1, 0, 0, 1]


def test_digit_formulas_reject_out_of_range():
    with pytest.raises(DomainError):
        mech_lower(F(3, 2), F(0), 0)
    with pytest.raises(DomainError):
        mech_upper(F(1, 2), F(2), 0)
    with pytest.raises(DomainError, match="nonnegative"):
        mech_lower(F(2, 5), F(0), -1)
    # numerals past the interpreter's int-string limit
    with pytest.raises(DomainError, match="binary digits"):
        mech_lower(F(-1, 2 ** 20000), F(0), 0)


# -- periodic objects ---------------------------------------------------------

@pytest.mark.parametrize("p,q,rho,upper,expected", [
    (2, 5, F(0), False, Seq("", "00101")),
    (2, 5, F(2, 5), False, Seq("", "01010")),
    (1, 2, F(0), True, Seq("", "10")),
    (0, 1, F(0), False, Seq("", "0")),
    (1, 1, F(0), False, Seq("", "1")),
])
def test_mech_periodic_examples(p, q, rho, upper, expected):
    assert mech_periodic(p, q, rho, upper) == expected


def test_mech_periodic_rejects_non_coprime():
    with pytest.raises(DomainError):
        mech_periodic(2, 4)
    # integers past the interpreter's int-string limit
    with pytest.raises(DomainError, match="binary digits"):
        mech_periodic(2, 2 * 10 ** 5000)
    with pytest.raises(DomainError, match="binary digits"):
        mech_periodic(3, -10 ** 5000)


def test_mech_periodic_prefix_matches_the_digit_formulas():
    # mech_periodic writes its digits by integer floor division; the
    # per-digit Fraction formulas are the reference.
    for q in range(1, 21):
        for p in (p for p in range(q + 1) if gcd(p, q) == 1):
            for rho in (F(0), F(1, 3), F(1, 2), F(p, q), F(1)):
                for upper in (False, True):
                    digit = mech_upper if upper else mech_lower
                    n = 2 * q + 3
                    want = "".join(str(digit(F(p, q), rho, k))
                                   for k in range(n))
                    got = mech_periodic(p, q, rho, upper).prefix(n)
                    assert got == want, (p, q, rho, upper)


def test_mech_periodic_refuses_an_intercept_outside_the_unit_interval():
    # the last past the interpreter's int-string limit
    for rho in (F(-1, 3), F(3, 2), F(-1, 2 ** 20000)):
        with pytest.raises(DomainError, match="intercept"):
            mech_periodic(2, 5, rho)


def test_mech_periodic_general_intercept_stays_periodic():
    s = mech_periodic(1, 2, F(1, 3))
    assert s == Seq("", "01")


def test_characteristic_pair_examples():
    assert characteristic_pair(2, 5) == (Seq("", "01010"), Seq("", "01001"))
    assert characteristic_pair(1, 2) == (Seq("", "10"), Seq("", "01"))
    assert characteristic_pair(3, 8) == (Seq("", "01001010"), Seq("", "01001001"))


# -- continued fractions ------------------------------------------------------

def cf_value(digits):
    """The rational [0; a1, ..., an]."""
    x = F(0)
    for a in reversed(digits):
        x = 1 / (a + x)
    return x


def alternate(digits):
    """The other spelling of [0; digits]: [..., an - 1, 1] for an >= 2,
    else [..., a(n-1) + 1]."""
    if len(digits) > 1 and digits[-1] == 1:
        return (*digits[:-2], digits[-2] + 1)
    return (*digits[:-1], digits[-1] - 1, 1)


def test_cf_examples():
    assert cf_of_rational(2, 5) == (2, 2)
    assert cf_of_rational(1, 2) == (2,)
    assert cf_of_rational(3, 8) == (2, 1, 2)


def test_cf_alternate_form():
    # both spellings of a slope give it one directive
    for q in range(2, 40):
        for p in range(1, q):
            if gcd(p, q) == 1:
                cf = cf_of_rational(p, q)
                other = alternate(cf)
                assert other[-1] == 1 and alternate(other) == cf
                assert cf_value(other) == F(p, q)
                assert directive_from_cf(other) == directive_from_cf(cf)


def test_cf_refuses_a_slope_outside_the_unit_interval():
    with pytest.raises(DomainError, match="0 < p < q"):
        cf_of_rational(3, 2)
    with pytest.raises(DomainError, match="not coprime"):
        cf_of_rational(2, 6)
    with pytest.raises(DomainError, match="binary digits"):
        cf_of_rational(2, 2 * 10 ** 5000)


@pytest.mark.parametrize("digits,message", [
    ((), "positive"), ((0, 2), "positive"), ((2, 0), "positive"),
    ((1,), "not in"),
])
def test_directive_from_cf_refuses_a_non_slope(digits, message):
    with pytest.raises(DomainError, match=message):
        directive_from_cf(digits)


def test_cf_value_round_trip():
    for q in range(2, 40):
        for p in range(1, q):
            if gcd(p, q) == 1:
                assert cf_value(cf_of_rational(p, q)) == F(p, q)


@pytest.mark.parametrize("digits,expected", [
    ((2, 2), "01"),
    ((2, 1, 2), "010"),
    ((2,), ""),
    ((2, 1, 1), "01"),    # same rational, same directive
    ((1, 1, 2), "10"),    # slope 3/5
])
def test_directive_from_cf_examples(digits, expected):
    assert directive_from_cf(digits) == expected


def test_directive_word_reproduces_central_word():
    for q in range(2, 31):
        for p in range(1, q):
            if gcd(p, q) == 1:
                v = directive_from_cf(cf_of_rational(p, q))
                assert pal(v) == central_from_slope(p, q).word


# -- closure route for the periodic characteristic pair ------------------------

def reference_characteristic_periodic_via_pal(p, q, variant):
    """Intercept-equals-slope sequence of slope p/q via palindromic closure.

    With directive blocks d1..dn and x the letter of the n-th block, the
    closure of 0^d1 1^d2 ... x^(dn+1) y^oo is (w x y)^oo and the closure of
    0^d1 1^d2 ... x^dn y x^oo is (w y x)^oo; ``variant`` picks "xy" or
    "yx".  A route to ``characteristic_pair`` that does not go
    through ``central_from_slope``; the period's last two letters tell which of
    (w10)^oo and (w01)^oo it must equal.
    """
    directive = directive_from_cf(cf_of_rational(p, q))
    x = directive[-1:] or "0"
    y = "1" if x == "0" else "0"
    head = directive + (x if variant == "xy" else y)
    tail = y if variant == "xy" else x
    w = pal_prefix(Seq(head, tail), 2 * q + 2)
    result = Seq("", w[:q])
    assert result.prefix(len(w)) == w, (p, q, variant)
    assert result.per.endswith(x + y if variant == "xy" else y + x)
    return result


def test_via_pal_examples():
    via_pal = reference_characteristic_periodic_via_pal
    assert via_pal(2, 5, "xy") == Seq("", "01010")
    assert via_pal(2, 5, "yx") == Seq("", "01001")
    # for slope 1/2 the final directive letter is 0, so "xy" means "01"
    assert via_pal(1, 2, "xy") == Seq("", "01")
    assert via_pal(1, 2, "yx") == Seq("", "10")


def test_via_pal_agrees_with_pair_everywhere():
    for q in range(2, 16):
        for p in range(1, q):
            if gcd(p, q) == 1:
                ten, oh_one = characteristic_pair(p, q)
                got = {reference_characteristic_periodic_via_pal(p, q, "xy"),
                       reference_characteristic_periodic_via_pal(p, q, "yx")}
                assert got == {ten, oh_one}


# -- aperiodic characteristic prefixes -----------------------------------------

def test_fibonacci_prefix_sixteen():
    assert characteristic_sturmian_prefix(FIB, 16) == "0100101001001010"


def test_fibonacci_prefix_seven():
    assert characteristic_sturmian_prefix(FIB, 7) == "0100101"


def test_prefix_length_one_is_first_directive_letter():
    assert characteristic_sturmian_prefix(FIB, 1) == "0"
    assert characteristic_sturmian_prefix(Seq("", "10"), 1) == "1"


def test_rejects_eventually_constant_directive():
    with pytest.raises(DomainError):
        characteristic_sturmian_prefix(Seq("", "1"), 5)
    with pytest.raises(DomainError):
        characteristic_sturmian_prefix(Seq("01", "0"), 5)


# -- structural identities up to q = 30 ----------------------------------------

def coprime_pairs(limit):
    for q in range(2, limit + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def test_period_words_bound_the_central_word():
    for p, q in coprime_pairs(30):
        w = central_from_slope(p, q).word
        lower = mech_periodic(p, q, F(0), upper=False)
        upper = mech_periodic(p, q, F(0), upper=True)
        assert lower.prefix(q) == "0" + w + "1"
        assert upper.prefix(q) == "1" + w + "0"
        assert lower.prefix(q).count("1") == p
        assert len(lower.per) == q  # primitive, full period


def test_shift_of_zero_intercept_is_characteristic():
    for p, q in coprime_pairs(30):
        pair = characteristic_pair(p, q)
        assert mech_periodic(p, q, F(0), upper=False).shift(1) in pair
        assert mech_periodic(p, q, F(0), upper=True).shift(1) in pair


def test_period_words_are_balanced():
    for p, q in coprime_pairs(24):
        for upper in (False, True):
            word = mech_periodic(p, q, F(0), upper).per
            assert is_balanced(word * 2)


def test_long_period_words_are_balanced():
    # doubled-period windows up to length 200
    for p, q in ((13, 50), (29, 97), (43, 100), (30, 97)):
        word = mech_periodic(p, q).per
        assert len(word) == q
        assert is_balanced(word * 2)


def test_sturmian_strictness_window_decided():
    # every decided comparison of a shifted prefix of the binary
    # golden-ratio sequence against its own 0/1-prefixed copies is strict
    u = characteristic_sturmian_prefix(FIB, 200)
    zero_u, one_u = "0" + u, "1" + u
    decided = 0
    for k in range(150):
        t = u[k:]
        for bound, expected_high in ((zero_u, True), (one_u, False)):
            n = min(len(t), len(bound))
            diff = next((i for i in range(n) if t[i] != bound[i]), None)
            if diff is not None:
                decided += 1
                assert (t[diff] == "1") is expected_high
    assert decided > 100
