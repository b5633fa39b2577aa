import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from lexworld.central import is_balanced
from lexworld.errors import DomainError
from lexworld.mechanical import mech_periodic
from lexworld.oracle import (SweepConfig, brute_F, brute_phi,
                             _necklace_candidates)
from lexworld.words import Seq, ZERO
from reference import (enumerate_central, naive_balance, sandwich_census,
                       spread_balance)

Fr = Fraction


PUBLIC = {
    "cf": "cf_of_rational directive_from_cf",
    "central": "CentralCertificate central_from_slope closure_chain "
               "extremal_rotations is_balanced is_central pal "
               "palindromic_closure",
    "errors": "DomainError InvariantError ParseError",
    "lexmap": "Case Classification F FResult PhiResult PrefixDecision "
              "SturmianPhi VerifyReport classify phi phi_prefix "
              "phi_sturmian phi_zero_u verify_phi",
    "mechanical": "characteristic_sturmian_prefix mech_periodic",
    "oracle": "SweepConfig brute_F brute_phi",
    "words": "EQ GT LT ONE ZERO Seq check_word expansion minimal_period "
             "parse_rational parse_seq",
}


def test_package_resolves_oracle_names_on_first_use():
    # the package imports each public name, and each submodule, on first
    # use, and then keeps the name in its own namespace
    import importlib
    import lexworld
    assert sorted(lexworld.__all__) == sorted(
        name for names in PUBLIC.values() for name in names.split())
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"lexworld.{module}")
        assert getattr(lexworld, module) is mod
        for name in names.split():
            assert getattr(lexworld, name) is getattr(mod, name)
            assert vars(lexworld)[name] is getattr(mod, name)
    with pytest.raises(AttributeError):
        lexworld.no_such_name
    # from a fresh `import lexworld`, which loads no submodule
    src = os.path.dirname(os.path.dirname(lexworld.__file__))
    modules = list(PUBLIC)
    code = ("import sys, lexworld; "
            f"print([m for m in {modules!r} if 'lexworld.' + m in sys.modules], "
            "all(getattr(lexworld, m) is sys.modules['lexworld.' + m] "
            f"for m in {modules!r}))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "[] True\n", proc.stderr


def test_config_guards_exponential_search():
    with pytest.raises(DomainError):
        SweepConfig(max_period=17)
    with pytest.raises(DomainError):
        SweepConfig(0)


def test_config_is_an_immutable_value():
    cfg = SweepConfig(max_period=6)
    assert cfg.max_period == 6
    with pytest.raises(AttributeError):
        cfg.max_period = 17
    assert SweepConfig(6) == cfg and hash(SweepConfig(6)) == hash(cfg)
    assert cfg != SweepConfig(7)


def test_necklace_counts_match_lyndon_numbers():
    per_length = {}
    for w in _necklace_candidates(8):
        per_length[len(w)] = per_length.get(len(w), 0) + 1
    assert [per_length[n] for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]


def test_brute_phi_examples():
    assert brute_phi(Seq("", "1100"), SweepConfig(max_period=6)) == Seq("", "110")
    assert brute_phi(ZERO, SweepConfig(max_period=2)) == ZERO
    assert brute_phi(Seq("", "10"), SweepConfig(max_period=4)) == Seq("", "10")


def test_brute_phi_falls_back_to_all_ones():
    # the all-ones sequence is feasible for every bound, so a tight period
    # budget degrades to it rather than failing
    assert brute_phi(Seq("", "110"), SweepConfig(max_period=2)) == Seq("", "1")
    # with enough budget the true answer (the input's own orbit top) appears
    assert brute_phi(Seq("", "110"), SweepConfig(max_period=3)) == Seq("", "110")


def test_brute_f_examples():
    assert brute_F(Fr(1, 3), SweepConfig(max_period=8)) == Fr(2, 3)
    assert brute_F(Fr(0), SweepConfig(max_period=2)) == Fr(0)
    assert brute_F(Fr(2, 5), SweepConfig(max_period=8)) == Fr(6, 7)


def test_brute_f_boundaries_via_direct_search():
    assert brute_F(Fr(3, 4), SweepConfig(max_period=4)) == Fr(1)
    assert brute_F(Fr(1), SweepConfig(max_period=4)) == Fr(1)


def test_enumerate_central_small():
    assert enumerate_central(1) == ("", "0", "1")
    words3 = enumerate_central(3)
    assert "010" in words3 and "101" in words3 and "110" not in words3
    assert "010010" in enumerate_central(6)


def test_brute_f_rejects_outside_unit_interval():
    with pytest.raises(DomainError):
        brute_F(Fr(5, 4))
    # numerals past the interpreter's int-string limit
    with pytest.raises(DomainError, match="binary digits"):
        brute_F(Fr(-1, 2 ** 20000))


def test_enumerate_central_guard():
    with pytest.raises(DomainError):
        enumerate_central(21)


def test_sandwich_census_examples():
    # (101)^oo <= (1100)^oo <= (110)^oo pins the central word "1"
    # (the longest central prefix of the input, "11", is not sandwiched:
    # (1101)^oo already exceeds the input)
    assert sandwich_census(Seq("", "1100"), 10) == ["1"]
    assert sandwich_census(Seq("", "01001"), 10) == ["010"]


def test_sandwich_census_is_a_singleton_for_generic_inputs():
    for u in (Seq("", "010010011"), Seq("0", "1"), Seq("", "0111"),
              Seq("10", "0110")):
        assert len(sandwich_census(u, 12)) == 1


@pytest.mark.parametrize("w,expected", [
    ("0011", False),
    ("01001010", True),
    ("", True),
])
def test_naive_balance_examples(w, expected):
    assert naive_balance(w) is expected


def test_naive_balance_guard():
    with pytest.raises(DomainError):
        naive_balance("0" * 501)


def test_naive_balance_agrees_with_fast_balance_on_random_words():
    rng = random.Random(20260810)
    for _ in range(1000):
        n = rng.randrange(0, 201)
        w = "".join(rng.choice("01") for _ in range(n))
        assert naive_balance(w) == is_balanced(w) == spread_balance(w)


def test_naive_balance_agrees_on_structured_balanced_words():
    for p, q in ((5, 12), (7, 18), (13, 30)):
        w = mech_periodic(p, q).prefix(60)
        assert naive_balance(w) and is_balanced(w) and spread_balance(w)
