"""The benchmark's generators and checker against lexworld's oracle.

Run with ``python -m pytest -q bench/tests`` from the repository root.
"""

import random
from fractions import Fraction

import check
import gen
from lexworld import F, Seq, SweepConfig, brute_phi, phi_sturmian, phi_zero_u


def test_known_answers_agree_with_the_oracle_and_reach_every_case():
    rng = random.Random(7)
    cases = set()
    for _ in range(240):
        k = gen.known_phi(rng, 2, 12)
        u = Seq(k.pre, k.per)
        want = Seq("", "1" + k.w + "0")
        assert brute_phi(u, SweepConfig(max_period=len(k.w) + 2)) == want
        res = phi_zero_u(u)
        assert res.phi == want
        assert check.check_phi((k.pre, k.per), (res.phi.pre, res.phi.per), k.w) is None
        cases.add(res.case.value)
    assert cases >= {"i", "ii", "iv", "v_a", "v_b", "v_c"}


def test_checker_rejects_wrong_answers():
    rng = random.Random(8)
    for _ in range(100):
        k = gen.known_phi(rng, 5, 40)
        p, q = gen.coprime_slope(rng, 5, 40)
        other = gen.central_word(p, q)
        if other != k.w:
            assert check.check_phi((k.pre, k.per), ("", f"1{other}0")) is not None
        assert check.check_phi((k.pre, k.per), ("", f"0{k.w}1")) is not None


def test_known_prefixes_are_witnessed():
    rng = random.Random(9)
    for n in (12, 40, 100):
        for _ in range(20):
            word, w = gen.known_prefix(rng, n)
            assert len(word) == n
            assert check.check_prefix(word, True, ("", f"1{w}0"), w) is None


def test_sturmian_prefix_matches_the_closure_limit():
    rng = random.Random(10)
    for _ in range(100):
        pre, per = gen.random_directive(rng)
        n = rng.randint(1, 200)
        out = phi_sturmian(Seq(pre, per)).phi_value_prefix(n)
        assert check.check_sturmian((pre, per), n, out) is None


def test_F_check_on_value_inputs_and_dyadics():
    rng = random.Random(11)
    for _ in range(60):
        k = gen.known_phi(rng, 3, 30)
        x = Fraction(*gen.seq_value("0" + k.pre, k.per))
        r = F(x)
        answer = (r.phi_expansion.pre, r.phi_expansion.per)
        assert check.check_F(x.numerator, x.denominator, r.F, answer, k.w) is None
        assert check.check_F(x.numerator, x.denominator, r.F + 1, answer) is not None
        d = Fraction(2 * rng.randrange(1 << 20) + 1, 1 << 22)
        r = F(d)
        answer = (r.phi_expansion.pre, r.phi_expansion.per)
        assert check.check_F(d.numerator, d.denominator, r.F, answer) is None


def test_full_period_prime():
    for target in (100, 1000, 5000):
        b = gen.full_period_prime(target)
        order = next(k for k in range(1, b) if pow(2, k, b) == 1)
        assert b >= target and order == b - 1 and gen.is_prime(b)
