import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexworld import lexmap
from lexworld.central import (central_from_slope, is_central,
                              palindromic_closure)
from lexworld.errors import DomainError, InvariantError
from lexworld.lexmap import (Case, F, FResult, PhiResult, SturmianPhi,
                             VerifyReport, classify,
                             lex_world_member, phi, phi_prefix, phi_sturmian,
                             phi_zero_u, sigma_member, verify_phi, KIND_ALL_ONE,
                             KIND_ALL_ZERO, KIND_CPB, KIND_GENERIC,
                             _case, _longest_central_prefix, _sandwiching)
from lexworld.mechanical import mech_periodic
from lexworld.oracle import brute_verify_phi
from lexworld.words import LT, EQ, ONE, ZERO, Seq, expansion

Fr = Fraction


def all_canonical_seqs(max_pre, max_per):
    seen = set()
    pres = [""] + ["".join(b) for n in range(1, max_pre + 1)
                   for b in product("01", repeat=n)]
    pers = ["".join(b) for n in range(1, max_per + 1)
            for b in product("01", repeat=n)]
    for pre in pres:
        for per in pers:
            s = Seq(pre, per)
            if s not in seen:
                seen.add(s)
                yield s


# -- classification -----------------------------------------------------------

def test_classify_characteristic_ends01():
    c = classify(Seq("", "01001"))
    assert (c.kind, c.p, c.q, c.variant) == (KIND_CPB, 2, 5, "ends01")


def test_classify_characteristic_ends10():
    c = classify(Seq("", "01010"))
    assert (c.kind, c.p, c.q, c.variant) == (KIND_CPB, 2, 5, "ends10")


def test_classify_constants():
    assert classify(ZERO).kind == KIND_ALL_ZERO
    assert classify(ONE).kind == KIND_ALL_ONE


def test_classify_generic():
    assert classify(Seq("", "1100")).kind == KIND_GENERIC
    assert classify(Seq("0", "1")).kind == KIND_GENERIC


def test_classify_catches_aliases():
    # 0.(10)^oo is (01)^oo, characteristic of slope 1/2
    assert classify(Seq("0", "10")).kind == KIND_CPB


# -- phi on eventually periodic input ------------------------------------------

def test_phi_all_ones_prefix_case():
    res = phi_zero_u(Seq("", "1100"))
    assert res.phi == Seq("", "110")
    assert res.case is Case.I
    assert res.central.word == "1"
    assert res.longest_central_prefix == "11"


def test_phi_worked_example_slope_three_eighths():
    res = phi_zero_u(Seq("", "010010011"))
    assert res.phi == Seq("", "10100100")
    assert res.case is Case.V_A
    assert res.central.word == "010010"


def test_characteristic_inputs_share_the_slope_certificate():
    # case iv certifies u.per less its last two letters; both ends of the
    # slope's plateau get the certificate that central_from_slope builds
    for q in range(2, 41):
        for p in range(1, q):
            if gcd(p, q) == 1:
                cert = central_from_slope(p, q)
                for tail in ("01", "10"):
                    res = phi_zero_u(Seq("", cert.word + tail))
                    assert (res.case, res.central) == (Case.IV, cert), (p, q)


def test_phi_characteristic_input():
    res = phi_zero_u(Seq("", "10"))
    assert res.phi == Seq("", "10")
    assert res.case is Case.IV
    assert res.central.word == ""


def test_phi_constants():
    assert phi_zero_u(ZERO).phi == ZERO
    assert phi_zero_u(ONE).phi == ONE
    assert phi_zero_u(ZERO).case is Case.II


def test_phi_zero_k_prefix_case():
    res = phi_zero_u(Seq("0", "1"))  # 0111...
    assert res.phi == Seq("", "10")
    assert res.case is Case.II
    assert res.longest_central_prefix == "0"


def test_phi_trace_is_replayable_narrative():
    res = phi_zero_u(Seq("", "1100"))
    assert any("longest central prefix" in line for line in res.trace)
    assert any("verified" in line for line in res.trace)


def test_phi_wrapper_one_headed():
    res = phi(Seq("1", "01"))
    assert res.phi == ONE
    assert res.case is Case.I


def test_phi_wrapper_zero_headed():
    assert phi(Seq("0", "1100")).phi == Seq("", "110")


def test_phi_wrapper_matches_random_one_heads():
    rng = random.Random(7)
    for _ in range(50):
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, 4)))
        per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        assert phi(Seq("1" + pre, per)).phi == ONE


def test_results_are_immutable_values():
    u = Seq("", "1100")
    res, again = phi_zero_u(u), phi_zero_u(u)
    assert res == again and hash(res) == hash(again)
    assert F(Fraction(2, 5)) == F(Fraction(2, 5))
    assert phi_sturmian(Seq("", "01")) == phi_sturmian(Seq("", "01"))
    assert classify(u).kind == KIND_GENERIC and classify(u).p is None
    for record, field in [(res, "phi"), (F(Fraction(2, 5)), "F"),
                          (verify_phi(u, res.phi), "passed"),
                          (phi_prefix("0"), "decided"),
                          (phi_sturmian(Seq("", "01")), "case")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert not hasattr(record, "__dict__")


# -- answer guards -------------------------------------------------------------

def test_an_answer_failing_verification_is_refused(monkeypatch):
    monkeypatch.setattr(lexmap, "verify_phi",
                        lambda u, b: VerifyReport(False, 1, ("shift 0 fails",)))
    with pytest.raises(InvariantError, match="failed verification: shift 0 fails"):
        phi_zero_u(Seq("", "1100"))


def test_characteristic_input_without_a_central_certificate_is_refused(
        monkeypatch):
    # classify finds (01001) characteristic by its periods; is_central
    # must then certify w = 010
    assert classify(Seq("", "01001")).kind == KIND_CPB
    monkeypatch.setattr(lexmap, "is_central", lambda w: None)
    with pytest.raises(InvariantError, match="is_central refuses w = '010'"):
        phi_zero_u(Seq("", "01001"))


@pytest.mark.parametrize("case,v,message", [
    (Case.IV, None, "exceeds x \\+ 1/2 in the characteristic case"),
    (Case.V_A, "0", "fails the strict bound below x \\+ 1/2"),
], ids=["case-iv", "longest-central-prefix"])
def test_f_refuses_an_answer_past_its_bound(monkeypatch, case, v, message):
    monkeypatch.setattr(lexmap, "phi",
                        lambda a: PhiResult(ONE, case, None, v, ()))
    with pytest.raises(InvariantError, match=message):
        F(Fr(2, 5))


# -- verification reports -------------------------------------------------------

def test_verify_phi_passes_on_correct_answer():
    assert verify_phi(Seq("", "1100"), Seq("", "110")).passed


def test_verify_phi_fails_on_wrong_answer():
    report = verify_phi(Seq("", "1100"), Seq("", "10"))
    assert not report.passed
    assert any("below the lower bound" in f for f in report.failures)


def test_verify_phi_trivial_constants():
    assert verify_phi(ZERO, ZERO).passed


@pytest.mark.parametrize("u,b,failure", [
    (ZERO, ONE, "above the upper bound"),
    (ONE, Seq("0", "1"), "exceeds the sequence itself"),
    (ZERO, Seq("", "1100"), "not balanced"),
])
def test_verify_phi_reports_each_failure(u, b, failure):
    report = verify_phi(u, b)
    assert not report.passed
    assert any(failure in f for f in report.failures), report.failures


def assert_matches_reference(u, b):
    # verify_phi and sigma_member decide what the per-shift reference
    # decides; verify_phi makes 3|pre| + 4 checks and reports a subset of
    # the reference's failure lines
    report, ref = verify_phi(u, b), brute_verify_phi(u, b)
    assert report.passed == ref.passed, (u, b)
    assert report.checks == 3 * len(b.pre) + 4
    assert set(report.failures) <= set(ref.failures), (u, b)
    assert bool(report.failures) == bool(ref.failures)
    zero_u, one_u = u.prepend("0"), u.prepend("1")
    assert sigma_member(b, zero_u, one_u) == (
        not any("bound" in f for f in ref.failures)), (u, b)
    assert sigma_member(b, zero_u, b) == (
        not any("below" in f or "exceeds" in f for f in ref.failures)), (u, b)


def test_verify_phi_checks_every_shift_in_order():
    seqs = list(all_canonical_seqs(2, 3))
    for u in seqs:
        for b in seqs:
            assert_matches_reference(u, b)


def test_reference_verifier_checks_every_shift_in_order():
    # the reference reports each failing shift in order; verify_phi names
    # the period's greatest rotation (110) for all three rotations
    u, b = ZERO, Seq("0", "011")
    ref, report = brute_verify_phi(u, b), verify_phi(u, b)
    assert ref.checks == 3 * len(b.shifts()) + 1 == 13
    assert ref.failures == (
        "shift (011) exceeds the sequence itself",
        "shift (110) is above the upper bound 1u = 1(0)",
        "shift (110) exceeds the sequence itself",
        "shift (101) is above the upper bound 1u = 1(0)",
        "shift (101) exceeds the sequence itself",
        "sequence is not balanced on its doubled period")
    assert report.checks == 7
    assert report.failures == ref.failures[1:3] + ref.failures[-1:]


def floor_central_word(p, q):
    return "".join(str((n + 1) * p // q - n * p // q) for n in range(1, q - 1))


def known_answer(rng, q):
    # u strictly between (w01)^oo and (w10)^oo: a prefix of one of them past
    # one period, one letter flipped towards the other, a random tail and
    # period; or one of the two ends itself.  Then phi(0u) = (1w0)^oo.
    p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
    w = floor_central_word(p, q)
    low = rng.random() < 0.5
    base = w + ("01" if low else "10")
    if rng.random() < 0.2:
        return p, w, Seq("", base)
    flip = rng.randint(q, q + q // 4 + 2)
    while base[flip % q] != ("0" if low else "1"):
        flip += 1
    pre = ((base * (flip // q + 1))[:flip] + ("1" if low else "0")
           + "".join(rng.choice("01") for _ in range(rng.randint(0, 8))))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
    return p, w, Seq(pre, per)


def test_verify_phi_matches_reference_on_known_answers_and_mutations():
    # each known answer (1w0)^oo, then three non-answers: one period letter
    # flipped, the answer of a neighbouring slope, and (w10)^oo
    rng = random.Random(1300)
    failed = 0
    for q in [3, 4, 5, 7, 12, 30, 31, 100, 101, 317, 1000]:
        p, w, u = known_answer(rng, q)
        b = Seq("", "1" + w + "0")
        assert phi_zero_u(u).phi == b
        i = rng.randrange(q)
        flipped = Seq("", b.per[:i] + "10"[int(b.per[i])] + b.per[i + 1:])
        q2 = pow(p, -1, q)  # a Farey parent p2/q2 of p/q, left if p2 > 0
        p2 = (p * q2 - 1) // q
        if p2 == 0:
            q2 = q - q2
            p2 = (p * q2 + 1) // q
        neighbour = Seq("", "1" + central_from_slope(p2, q2).word + "0")
        for c in (b, flipped, neighbour, Seq("", w + "10")):
            assert_matches_reference(u, c)
            failed += not verify_phi(u, c).passed
    assert failed >= 2 * 11  # most non-answers break a bound or balance


@given(st.text("01", max_size=12), st.text("01", min_size=1, max_size=12),
       st.text("01", max_size=12), st.text("01", min_size=1, max_size=12))
def test_verify_phi_matches_reference_on_drawn_pairs(u_pre, u_per, b_pre, b_per):
    assert_matches_reference(Seq(u_pre, u_per), Seq(b_pre, b_per))


def test_verify_phi_memory_is_linear_in_the_period():
    # the period is read through its two extremal rotations, so the peak is
    # linear in q
    p, q = 191, 500
    w = central_from_slope(p, q).word
    u, b = Seq("", w + "10"), Seq("", "1" + w + "0")
    assert verify_phi(u, b).passed  # warm-up
    tracemalloc.start()
    try:
        report = verify_phi(u, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.checks == 4
    assert peak < 128 * q, peak


def test_verify_phi_failures_take_linear_memory():
    # a wrong answer reports at most 3|pre| + 4 failures, each of O(q)
    # letters, not one per failing shift
    p, q = 249, 500
    w = central_from_slope(p, q).word
    u, b = Seq("", w + "10"), Seq("", "0" + w + "1")
    assert not verify_phi(u, b).passed  # warm-up
    tracemalloc.start()
    try:
        report = verify_phi(u, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.passed and 0 < len(report.failures) <= 4
    assert peak < 128 * q, peak


def test_sigma_member_examples():
    assert sigma_member(Seq("", "10"), Seq("", "01"), Seq("", "10"))
    assert sigma_member(ONE, Seq("0", "1"), ONE)
    assert not sigma_member(Seq("", "1100"), Seq("0", "1100"), Seq("", "110"))


def test_lex_world_membership_against_feasibility_search():
    # y admits a solution iff y >= phi(x): cross-check on a small family
    from lexworld.oracle import SweepConfig, brute_phi
    xs = [Seq("", "1100"), Seq("0", "1"), Seq("", "01001"), ZERO]
    ys = [ZERO, Seq("", "10"), Seq("", "110"), Seq("", "1110"), ONE]
    for x in xs:
        least = brute_phi(x.shift(1), SweepConfig(max_period=6)) \
            if x.digit(0) == "0" else ONE
        for y in ys:
            assert lex_world_member(x, y) == (y >= least)


# -- finite-prefix decisions ----------------------------------------------------

@pytest.mark.parametrize("prefix,phi_word", [
    ("010010011", "10100100"),
    ("010010101", "10100"),
    ("0110100110010110", "10"),    # 0.u with u the Thue-Morse shift
    ("110100110010110", "110"),
    ("1010010100100101", "10"),    # one-prefixed golden-ratio sequence
    ("100", "10"),
    ("011", "10"),
])
def test_phi_prefix_decides_worked_examples(prefix, phi_word):
    decision = phi_prefix(prefix)
    assert decision.decided, decision.reason
    assert decision.result.phi == Seq("", phi_word)


def test_phi_prefix_insufficient_on_single_letter():
    decision = phi_prefix("0")
    assert not decision.decided
    assert "undecided" in decision.reason


def test_phi_prefix_insufficient_on_central_only_prefix():
    assert not phi_prefix("010").decided
    assert not phi_prefix("01001010010010").decided  # golden-ratio prefix


def test_phi_prefix_rejects_empty():
    with pytest.raises(DomainError):
        phi_prefix("")


def test_phi_prefix_decisions_survive_extensions():
    suffixes = ["0", "1", "01", "10", "0011", "110"]
    for prefix in ["010010011", "010010101", "110100", "1100", "011"]:
        decision = phi_prefix(prefix)
        assert decision.decided
        for per in suffixes:
            extended = phi_zero_u(Seq(prefix, per))
            assert extended.phi == decision.result.phi, (prefix, per)


def test_phi_prefix_sweep_is_extension_independent():
    periods = ["010101010101", "101010101010", "001100110011", "110011001100"]
    decided = 0
    for n in range(1, 11):
        for i in range(1 << n):
            prefix = format(i, f"0{n}b")
            decision = phi_prefix(prefix)
            if not decision.decided:
                continue
            decided += 1
            for per in periods:
                assert phi_zero_u(Seq(prefix, per)).phi == decision.result.phi, \
                    (prefix, per)
    assert decided > 200


def test_phi_prefix_and_phi_zero_u_share_the_case_table():
    # Both label their answers through one case table; a decided prefix and
    # any extension of it must agree on the case as well as on phi.
    decided = 0
    for n in range(1, 13):
        for i in range(1 << n):
            prefix = format(i, f"0{n}b")
            decision = phi_prefix(prefix)
            if not decision.decided:
                continue
            decided += 1
            want = decision.result
            for tail in ("0", "1", "01"):
                got = phi_zero_u(Seq(prefix, tail))
                assert (got.phi, got.case) == (want.phi, want.case), \
                    (prefix, tail)
    assert decided > 2000


def reference_letter_rule(u, v):
    """The sandwiching word read off the letters after the longest central
    prefix v: for v in 0* or 1*, v less a letter; else, with
    v = w1 01 w2 = w2 10 w1, the two letters x, y after v and, when x != y,
    the next |v| + 2 letters z against vxy.  Returns (w, branch)."""
    if len(set(v)) == 1:
        return v[:-1], "one-letter v"
    cert = is_central(v)
    x, y = u.digit(len(v)), u.digit(len(v) + 1)
    other = cert.w2 if x == "0" else cert.w1
    if x == y:
        return other, "x = y"
    z = u.prefix(2 * len(v) + 4)[len(v) + 2:]
    assert z != v + x + y, u  # would contradict the maximality of v
    high = z > v + x + y
    # xy = 01 keeps v when z > v01; xy = 10 keeps it when z < v10
    return (v if high == (x == "0") else other), f"z {'>' if high else '<'} vxy"


def generic_inputs():
    rng = random.Random(1400)
    known = [known_answer(rng, rng.randrange(3, 120))[2] for _ in range(300)]
    return [u for u in [*all_canonical_seqs(3, 8), *known]
            if classify(u).kind == KIND_GENERIC]


def test_sandwich_selection_matches_the_letter_rule_on_every_branch():
    branches = {}
    for u in generic_inputs():
        res = phi_zero_u(u)
        w, branch = reference_letter_rule(u, res.longest_central_prefix)
        assert res.central.word == w, u
        branches[branch] = branches.get(branch, 0) + 1
    assert set(branches) == {"one-letter v", "x = y", "z > vxy", "z < vxy"}
    assert min(branches.values()) >= 50, branches


def test_sandwiching_picks_the_one_strictly_sandwiching_word():
    x = "010010011"  # strictly between (010010 01)^oo and (010010 10)^oo
    assert _sandwiching(("", "0", "010", "010010"), x) == "010010"
    assert _sandwiching(("", "0"), x) is None
    assert _sandwiching(("010010",), "01001001") is None  # x is the lower end
    with pytest.raises(InvariantError, match="two central words"):
        _sandwiching(("010010", "010010"), x)


def test_case_table_refuses_a_word_outside_the_analysis():
    v = "010010"  # = w1 01 w2 = w2 10 w1 with w1 = "010", w2 = "0"
    cert = is_central(v)
    assert (cert.w1, cert.w2) == ("010", "0")
    assert [_case(v, w) for w in (v, "0", "010")] == \
        [Case.V_A, Case.V_B, Case.V_C]
    assert (_case("111", "11"), _case("00", "0")) == (Case.I, Case.II)
    for w in ("", "01", "0100", "010010010"):
        with pytest.raises(InvariantError):
            _case(v, w)


# -- symbolic aperiodic results ---------------------------------------------------

def test_phi_sturmian_golden_ratio_directive():
    sym = phi_sturmian(Seq("", "01"))
    assert sym.symbolic == "1*Pal((01))"
    assert sym.phi_value_prefix(14) == "10100101001001"
    assert sym.slope_cf(6) == (2, 1, 1, 1, 1, 1)
    assert sym.case is SturmianPhi.case is Case.III_STURMIAN
    # the case is a class constant: fields, repr and pickle carry only the
    # directive
    assert sym.__reduce__() == (SturmianPhi, (Seq("", "01"),))
    assert repr(sym) == "SturmianPhi(directive=Seq(pre='', per='01'))"


def test_phi_sturmian_swapped_directive():
    sym = phi_sturmian(Seq("", "10"))
    assert sym.phi_value_prefix(5) == "1" + "1011"
    assert sym.slope_cf(3) == (1, 1, 1)


def test_phi_sturmian_rejects_eventually_constant():
    with pytest.raises(DomainError):
        phi_sturmian(Seq("", "1"))
    with pytest.raises(DomainError):
        phi_sturmian(Seq("10", "0"))
    # Built directly, these used to be accepted, and slope_cf looped forever
    # waiting for the next block of the other letter.
    for directive, count in ((Seq("", "0"), 2), (Seq("01", "1"), 3)):
        with pytest.raises(DomainError):
            SturmianPhi(directive).slope_cf(count)
        with pytest.raises(DomainError):
            phi_sturmian(directive)


def test_slope_cf_needs_a_quotient():
    with pytest.raises(DomainError, match="at least one quotient"):
        SturmianPhi(Seq("", "01")).slope_cf(0)


def reference_slope_cf(directive, count):
    """The partial quotients by walking the directive a letter at a time:
    the library's original block loop."""
    quotients = []
    letter, run, i = "0", 0, 0
    while len(quotients) < count:
        c = directive.digit(i)
        if c == letter:
            run += 1
            i += 1
        else:
            quotients.append(run)
            letter, run = c, 0
    quotients[0] += 1
    return tuple(quotients[:count])


def test_slope_cf_matches_the_letter_loop():
    # Every non-constant period of <= 6 letters after every preperiod of
    # <= 4 letters, at every count up to 8.
    words = [["".join(b) for b in product("01", repeat=n)] for n in range(7)]
    pres = [w for n in range(5) for w in words[n]]
    pers = [w for n in range(1, 7) for w in words[n] if "0" in w and "1" in w]
    checked = 0
    for pre in pres:
        for per in pers:
            directive = Seq(pre, per)
            sym = SturmianPhi(directive)
            for count in range(1, 9):
                assert sym.slope_cf(count) == \
                    reference_slope_cf(directive, count), (pre, per, count)
                checked += 1
    assert checked == 28272


# -- the endpoint function F ------------------------------------------------------

@pytest.mark.parametrize("x,expected", [
    (Fr(3, 4), Fr(1)),
    (Fr(2, 3), Fr(1)),
    (Fr(1), Fr(1)),
    (Fr(0), Fr(0)),
    (Fr(1, 3), Fr(2, 3)),
    (Fr(1, 4), Fr(2, 3)),
    (Fr(2, 5), Fr(6, 7)),
    (Fr(1, 2), Fr(1)),
])
def test_f_values(x, expected):
    assert F(x).F == expected


def test_f_rejects_outside_unit_interval():
    with pytest.raises(DomainError):
        F(Fr(-1, 2))
    with pytest.raises(DomainError):
        F(Fr(5, 4))
    # numerals past the interpreter's int-string limit
    with pytest.raises(DomainError, match="binary digits"):
        F(3 + Fr(1, 2 ** 20000))


def test_f_boundary_cases_and_tags():
    assert F(Fr(3, 4)).case is Case.BOUNDARY_X_GT_HALF
    assert F(Fr(0)).case is Case.BOUNDARY_X_ZERO
    assert F(Fr(1, 3)).case is Case.IV
    assert F(Fr(2, 5)).case is Case.I
    assert F(Fr(1, 4)).case is Case.II


def test_f_reports_exact_comparison_to_x_plus_half():
    assert F(Fr(1, 2)).cmp_x_plus_half == EQ
    assert F(Fr(2, 5)).cmp_x_plus_half == LT
    assert F(Fr(1, 3)).cmp_x_plus_half == LT
    assert F(Fr(3, 4)).cmp_x_plus_half is None


def test_f_characteristic_case_meets_the_half_bound():
    # x = r(0u) for characteristic periodic u: F(x) = value((1w0)^oo)
    x = Seq("0", "01001").value()   # 0.(01001)... wait: 0 then (01001)
    res = F(x)
    assert res.case is Case.IV
    assert res.F <= x + Fr(1, 2)


def test_f_is_monotone_on_a_grid():
    grid = sorted({Fr(k, b) for b in (59, 61, 63, 64) for k in range(b + 1)})
    assert len(grid) >= 200
    values = [F(x).F for x in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_f_long_period_within_time_bound():
    # x = 1/1000003 has a binary period of 1000002 digits
    t0 = time.perf_counter()
    res = F(Fraction(1, 1000003))
    assert time.perf_counter() - t0 < 10
    assert res.phi_expansion == Seq("", "1" + "0" * 18)
    assert res.F == Fraction(2 ** 18, 2 ** 19 - 1)
    assert res.verified


def test_f_above_half_is_one_without_expanding_x():
    # Above 1/2 the expansion of x begins with 1, so phi of it is 1^oo, the
    # greatest sequence; F answers 1 without expanding x.
    xs = {Fr(a, b) for b in range(1, 200) for a in range(b // 2 + 1, b + 1)}
    for x in xs:
        res = F(x)
        assert (res.F, res.case) == (1, Case.BOUNDARY_X_GT_HALF), x
        assert phi(expansion(x)).phi == ONE, x
    past_budget = 1 - Fr(354224848179261915075, 927372692193078999176)
    with pytest.raises(DomainError, match="digits"):
        expansion(past_budget)
    res = F(past_budget)
    assert (res.F, res.case) == (1, Case.BOUNDARY_X_GT_HALF)


def test_f_verified_flag_always_true():
    for x in (Fr(0), Fr(1, 7), Fr(1, 2), Fr(9, 10)):
        assert F(x).verified is True
    # a class constant, not a field: every returned result was verified
    assert "verified" not in FResult._fields


def test_f_plateaus_of_every_slope_up_to_sixty():
    # F = 0.(1w0)^oo on the plateau [0.0(w01)^oo, 0.0(w10)^oo], of length
    # 1/(2(2^q - 1)) as w01 and w10 differ by one in their last two
    # digits.  Summed over the phi(q) slopes of each q, the lengths make
    # half a partial sum of the Lambert series sum phi(q)/(2^q - 1) = 1
    # (q >= 2), so they tend to 1/2.
    total, totients = Fr(0), {}
    for q in range(2, 61):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            totients[q] = totients.get(q, 0) + 1
            w = central_from_slope(p, q).word
            lo, hi = Seq("0", w + "01").value(), Seq("0", w + "10").value()
            answer = Seq("", "1" + w + "0").value()
            for x in (lo, hi, (lo + hi) / 2):
                assert F(x).F == answer, (p, q, x)
            assert hi - lo == Fr(1, 2 * (2 ** q - 1)), (p, q)
            total += hi - lo
    assert sum(totients.values()) == 1101
    assert total == Fr(1, 2) * sum(Fr(t, 2 ** q - 1)
                                   for q, t in totients.items())
    assert 0 < Fr(1, 2) - total < Fr(1, 2 ** 50)


# -- exhaustive self-consistency sweep --------------------------------------------

def test_phi_self_consistent_on_small_eventually_periodic_family():
    checked = 0
    for u in all_canonical_seqs(3, 8):
        res = phi_zero_u(u)
        b = res.phi
        assert verify_phi(u, b).passed, u
        assert b == max(b.shifts())
        checked += 1
    assert checked > 1000


# -- the longest central prefix ----------------------------------------------------

def reference_longest_central_prefix(u):
    """The original loop: one palindromic closure per step, each checked
    against a prefix of u."""
    v, dirv = "", ""
    while True:
        c = u.digit(len(v))
        nxt = palindromic_closure(v + c)
        if u.prefix(len(nxt)) != nxt:
            return v, dirv
        v, dirv = nxt, dirv + c


def test_longest_central_prefix_matches_reference_on_small_family():
    checked = 0
    for u in all_canonical_seqs(3, 8):
        if classify(u).kind != KIND_GENERIC:
            continue
        trace = []
        v = _longest_central_prefix(u, trace)
        ref_v, ref_directive = reference_longest_central_prefix(u)
        assert (v, is_central(v).directive) == (ref_v, ref_directive), u
        assert "longest central prefix" in trace[0]
        assert len(v) < 2 * (len(u.pre) + len(u.per)), u
        checked += 1
    assert checked > 1000


def test_longest_central_prefix_matches_reference_past_the_window():
    # Perturbed characteristic words carry central prefixes of hundreds of
    # letters, so the walk's window has to double several times.
    rng = random.Random(20261018)
    longest = 0
    for _ in range(60):
        q = rng.randrange(20, 400)
        p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
        j = rng.randrange(1, 3 * q)
        c = mech_periodic(p, q).shift(1).prefix(j + 1)
        pre = c[:j] + ("1" if c[j] == "0" else "0")
        u = Seq(pre, rng.choice(["0", "1", "01", "110"]))
        if classify(u).kind != KIND_GENERIC:
            continue
        v = _longest_central_prefix(u, [])
        ref_v, ref_directive = reference_longest_central_prefix(u)
        assert (v, is_central(v).directive) == (ref_v, ref_directive), u
        assert len(v) < 2 * (len(u.pre) + len(u.per)), u
        longest = max(longest, len(v))
    assert longest > 256


def test_longest_central_prefix_bound_is_nearly_tight():
    # u = 0^k 1 (0): v = 0^k 1 0^k, so |v| / 2(|pre| + |per|) = (2k + 1)/(2k + 4)
    k = 40
    u = Seq("0" * k + "1", "0")
    v = _longest_central_prefix(u, [])
    assert v == "0" * k + "1" + "0" * k
    assert len(v) / (2 * (len(u.pre) + len(u.per))) > 0.95


@pytest.mark.parametrize("u", [Seq("", "01001"), Seq("", "10"),
                               Seq("", "0010010"), ZERO, ONE])
def test_longest_central_prefix_refuses_characteristic_input(u):
    # a characteristic or constant u has infinitely many central prefixes,
    # so the walk passes the bound 2(|pre| + |per|) and raises
    assert classify(u).kind != KIND_GENERIC
    with pytest.raises(InvariantError, match="characteristic, not generic"):
        _longest_central_prefix(u, [])
