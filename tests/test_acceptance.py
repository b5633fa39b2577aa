"""Acceptance suite: one test per criterion, one printed verdict line each.

Every comparison here is exact (integers, strings, Fractions); there are
no tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import time
from fractions import Fraction
from itertools import product
from math import gcd

from lexworld.cf import cf_of_rational, directive_from_cf
from lexworld.central import (central_from_slope, is_central, pal,
                              palindromic_closure)
from lexworld.lexmap import Case, F, phi_prefix, phi_zero_u, verify_phi
from lexworld.mechanical import (characteristic_pair,
                                 characteristic_sturmian_prefix, mech_periodic)
from lexworld.oracle import (SweepConfig, brute_F, brute_phi,
                             enumerate_central, sandwich_census)
from lexworld.words import Seq

Fr = Fraction
FIB_DIRECTIVE = Seq("", "01")


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: PASS{suffix}")


def canonical_sweep(max_pre, max_per):
    seen = set()
    for plen in range(1, max_per + 1):
        for per in product("01", repeat=plen):
            for prelen in range(0, max_pre + 1):
                for pre in product("01", repeat=prelen):
                    u = Seq("".join(pre), "".join(per))
                    if u not in seen:
                        seen.add(u)
                        yield u


def central_words_upto(max_len):
    out, stack = [], [""]
    while stack:
        w = stack.pop()
        out.append(w)
        for c in "01":
            nxt = palindromic_closure(w + c)
            if len(nxt) <= max_len:
                stack.append(nxt)
    return out


# ---------------------------------------------------------------------------

def test_criterion_1_worked_examples():
    start = time.monotonic()
    assert central_from_slope(2, 5).word == "010"
    assert characteristic_pair(2, 5) == (Seq("", "01010"), Seq("", "01001"))
    assert pal("011") == "01010"
    assert palindromic_closure("011") == "0110"
    assert characteristic_sturmian_prefix(FIB_DIRECTIVE, 28) == \
        "0100101001001010010100100101"
    assert cf_of_rational(2, 5) == (2, 2)
    assert pal(directive_from_cf((2, 2))) == "010"
    assert directive_from_cf((2, 1, 1)) == directive_from_cf((2, 2))

    d = phi_prefix("010010011")
    assert d.decided and d.result.phi == Seq("", "10100100")
    d = phi_prefix("010010101")
    assert d.decided and d.result.phi == Seq("", "10100")

    thue_morse = "0110100110010110"
    d = phi_prefix(thue_morse)             # phi(0 t): bound tail is t itself
    assert d.decided and d.result.phi == Seq("", "10")
    d = phi_prefix(thue_morse[1:])         # phi(t) = phi(0 . shifted t)
    assert d.decided and d.result.phi == Seq("", "110")

    one_f = "1" + characteristic_sturmian_prefix(FIB_DIRECTIVE, 15)
    assert len(one_f) == 16
    d = phi_prefix(one_f)
    assert d.decided and d.result.phi == Seq("", "10")

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, "worked examples", f"{elapsed:.2f}s")


def test_criterion_2_oracle_equivalence_sweep():
    start = time.monotonic()
    cfg = SweepConfig(max_period=8)
    count = 0
    for u in canonical_sweep(2, 6):
        assert phi_zero_u(u).phi == brute_phi(u, cfg), u
        count += 1
    elapsed = time.monotonic() - start
    assert count >= 400
    assert elapsed < 120
    report(2, "oracle equivalence", f"{count} inputs, {elapsed:.1f}s")


def test_criterion_3_central_word_triple_equivalence():
    start = time.monotonic()
    by_pal = set(central_words_upto(14))
    by_balance = set(enumerate_central(14))
    count = 0
    for n in range(0, 15):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            period_test = is_central(w) is not None
            assert period_test == (w in by_balance) == (w in by_pal), w
            count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(3, "central triple equivalence", f"{count} words, {elapsed:.1f}s")


def test_criterion_4_mechanical_identities():
    start = time.monotonic()
    pairs = [(p, q) for q in range(2, 31) for p in range(1, q) if gcd(p, q) == 1]
    for p, q in pairs:
        w = central_from_slope(p, q).word
        lower = mech_periodic(p, q)
        upper = mech_periodic(p, q, upper=True)
        assert lower.prefix(q) == "0" + w + "1"
        assert upper.prefix(q) == "1" + w + "0"
        assert len(lower.per) == q and len(upper.per) == q
        assert lower.per.count("1") == p == upper.per.count("1")
        pair = characteristic_pair(p, q)
        assert lower.shift(1) in pair and upper.shift(1) in pair
        # w01 and w10 are conjugate; 0w1 / 1w0 are the extremal rotations
        assert w + "10" in (w + "01") * 2
        all_rots = [(w + "10")[i:] + (w + "10")[:i] for i in range(q)]
        assert min(all_rots) == "0" + w + "1"
        assert max(all_rots) == "1" + w + "0"
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(4, "mechanical identities", f"{len(pairs)} slopes, {elapsed:.1f}s")


def test_criterion_5_f_spot_checks():
    start = time.monotonic()
    assert F(Fr(0)).F == 0
    for x in (Fr(3, 4), Fr(2, 3), Fr(1)):
        assert F(x).F == 1
    cfg = SweepConfig(max_period=10)
    xs = sorted({Fr(a, b) for b in range(1, 17) for a in range(1, b + 1)
                 if 0 < Fr(a, b) <= Fr(1, 2)})
    from lexworld.words import LT
    for x in xs:
        res = F(x)
        assert brute_F(x, cfg) == res.F, x
        bound = x + Fr(1, 2)
        if res.case is Case.IV:
            assert res.F <= bound
        elif res.case is Case.II and x == Fr(1, 2):
            assert res.F == bound      # the one constant-tail input
        else:
            # every other non-boundary case comes from the generic analysis
            assert res.F < bound and res.cmp_x_plus_half == LT, x
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(5, "F spot checks", f"{len(xs)} rationals, {elapsed:.1f}s")


def test_criterion_6_verification_suite():
    start = time.monotonic()
    census_len = 12
    checked = 0
    # phi results from the worked prefix examples, made eventually periodic
    prefix_inputs = []
    for p_word in ("010010011", "010010101", "0110100110010110",
                   "110100110010110"):
        for per in ("01", "10", "0011"):
            prefix_inputs.append((Seq(p_word, per), phi_prefix(p_word).result.phi))
    for u, expected in prefix_inputs:
        res = phi_zero_u(u)
        assert res.phi == expected
        assert verify_phi(u, res.phi).passed
        assert sandwich_census(u, census_len) == [res.central.word]
        checked += 1
    # the exhaustive sweep of criterion 2
    for u in canonical_sweep(2, 6):
        res = phi_zero_u(u)
        assert verify_phi(u, res.phi).passed, u
        if res.central is not None and len(res.central.word) <= census_len - 2:
            assert sandwich_census(u, census_len) == [res.central.word], u
        checked += 1
    elapsed = time.monotonic() - start
    report(6, "verification suite", f"{checked} results, {elapsed:.1f}s")


def test_criterion_7_prefix_property_of_factor_parts():
    start = time.monotonic()
    count = 0
    for v in central_words_upto(20):
        if "0" in v and "1" in v:
            cert = is_central(v)
            v1, v2 = cert.w1, cert.w2
            for head, per in ((v + "01" + v2, v2 + "10"),
                              (v + "10" + v1, v1 + "01")):
                assert Seq("", per).prefix(len(head)) == head, v
            count += 1
    elapsed = time.monotonic() - start
    report(7, "factor-part prefix property", f"{count} words, {elapsed:.1f}s")


def test_criterion_8_strict_inequalities_at_scale():
    start = time.monotonic()
    u = characteristic_sturmian_prefix(FIB_DIRECTIVE, 500)
    zero_u, one_u = "0" + u, "1" + u
    decided = violations = 0
    for k in range(401):
        t = u[k:]
        for bound, must_be_high in ((zero_u, True), (one_u, False)):
            overlap = min(len(t), len(bound))
            diff = next((i for i in range(overlap) if t[i] != bound[i]), None)
            if diff is None:
                continue
            decided += 1
            if (t[diff] == "1") is not must_be_high:
                violations += 1
    assert violations == 0
    assert decided > 300
    elapsed = time.monotonic() - start
    report(8, "strict shift inequalities", f"{decided} decided comparisons, "
                                           f"0 violations, {elapsed:.1f}s")
