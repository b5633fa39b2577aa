import random
import time
import tracemalloc
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexworld import central
from lexworld.central import (CentralCertificate, _central_periods,
                              central_from_slope, closure_chain,
                              extremal_rotations, is_balanced, is_central,
                              pal, palindromic_closure)
from lexworld.cf import cf_of_rational, directive_from_cf
from lexworld.errors import DomainError, InvariantError
from lexworld.mechanical import mech_periodic
from lexworld.words import EXPANSION_BUDGET, is_period, minimal_period
from reference import central_words_upto, enumerate_central, floor_word


# -- balance ----------------------------------------------------------------

@pytest.mark.parametrize("w,expected", [
    ("0011", False),
    ("01010", True),
    ("", True),
    ("01001010", True),
    ("1100", False),
])
def test_is_balanced_examples(w, expected):
    assert is_balanced(w) is expected


# -- palindromic closure ------------------------------------------------------

@pytest.mark.parametrize("w,expected", [
    ("011", "0110"),
    ("0101", "01010"),
    ("", ""),
    ("1011", "101101"),
])
def test_palindromic_closure_examples(w, expected):
    assert palindromic_closure(w) == expected


def reference_palindromic_closure(w):
    """The closure by testing every suffix for a palindrome, longest
    first: the library's original loop, quadratic in len(w)."""
    for i in range(len(w)):
        suffix = w[i:]
        if suffix == suffix[::-1]:
            return w + w[:i][::-1]
    return w


def test_closure_matches_the_suffix_loop_up_to_fourteen():
    for n in range(15):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            assert palindromic_closure(w) == reference_palindromic_closure(w), w


def test_closure_of_a_long_word_is_linear():
    # The suffix loop tests 2**16 suffixes of about 10**5 letters before
    # it reaches the longest palindromic suffix, 0 1 0^(2**15) 1 0.
    k = 2 ** 16
    w = "0" * k + "1" + "0" * (k // 2) + "10"
    assert len(w) == 98307
    t0 = time.perf_counter()
    c = palindromic_closure(w)
    assert time.perf_counter() - t0 < 1
    assert c == w + "0" * (k - 1)


@given(st.text(alphabet="01", max_size=10))
def test_closure_is_a_minimal_palindrome_extension(w):
    c = palindromic_closure(w)
    assert c.startswith(w)
    assert c == c[::-1]
    # no shorter palindrome extends w
    for k in range(len(w), len(c)):
        ext = c[:k]
        assert ext != ext[::-1] or k < len(w)


@pytest.mark.parametrize("v,expected", [
    ("011", "01010"),
    ("010", "010010"),
    ("", ""),
    ("10", "101"),
])
def test_pal_examples(v, expected):
    assert pal(v) == expected


def test_pal_refuses_an_output_past_the_budget():
    # |pal((01)^15)| = 3,524,576 <= 2**22 < |pal((01)^15 0)| = 5,702,885;
    # a run past the budget is refused before it is built.
    v = "01" * 15
    assert len(pal(v)) == 3524576 <= EXPANSION_BUDGET
    for longer in (v + "0", "01" * 20, "0" * (EXPANSION_BUDGET + 1)):
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="budget"):
            pal(longer)
        assert time.perf_counter() - t0 < 0.5


def test_pal_prefix_monotone():
    # Every closure_chain step equals one palindromic_closure step, on all
    # 8,191 directives of <= 12 letters fed as one-letter runs, so
    # pal(v[:k]) is a prefix of pal(v).
    for v in central_directives_upto(12):
        w = ""
        steps = list(closure_chain((x, 1) for x in v))
        assert [(x, k) for _, x, k in steps] == [(x, 1) for x in v]
        for piece, x, _ in steps:
            nxt = palindromic_closure(w + x)
            assert nxt == w + piece, (v, x)
            w = nxt
        assert pal(v) == w


def test_pal_by_runs_matches_its_definition_up_to_fourteen():
    # pal(v x) = palindromic_closure(pal(v) + x), depth-first over all
    # 32,767 directives of <= 14 letters.
    stack = [("", "")]
    count = 0
    while stack:
        v, w = stack.pop()
        assert pal(v) == w, v
        count += 1
        if len(v) < 14:
            stack.extend((v + x, palindromic_closure(w + x)) for x in "01")
    assert count == 2 ** 15 - 1


def test_run_steps_repeat_one_piece():
    # pal(v x^k) = pal(v) piece^k: one yield per run, each run's piece the
    # piece of its first letter.
    v = "0001100000101"
    runs = [("0", 3), ("1", 2), ("0", 5), ("1", 1), ("0", 1), ("1", 1)]
    steps = list(closure_chain(runs))
    letters = list(closure_chain((x, 1) for x in v))
    assert [(x, k) for _, x, k in steps] == runs
    firsts = [0, 3, 5, 10, 11, 12]
    assert [piece for piece, _, _ in steps] == [letters[i][0] for i in firsts]
    assert "".join(piece * k for piece, _, k in steps) == pal(v)


def large_quotient_slopes():
    # 1/q has the directive 0^(q-2), 2/(2k+1) the directive 0^(k-1) 1.
    rng = random.Random(20261020)
    out = []
    for _ in range(20):
        q = rng.randrange(3, 20001)
        k = rng.randrange(1, 10001)
        out += [(1, q), (q - 1, q), (2, 2 * k + 1), (2 * k - 1, 2 * k + 1)]
    return out


def test_pal_of_directives_with_long_runs_is_the_floor_word():
    # central_from_slope reads its directive off Euclid's quotients; the
    # cf module spells the same one
    for p, q in large_quotient_slopes():
        word = floor_word(p, q)
        directive = directive_from_cf(cf_of_rational(p, q))
        assert pal(directive) == word, (p, q)
        cert = central_from_slope(p, q)
        assert (cert.word, cert.directive) == (word, directive), (p, q)


def central_directives_upto(max_len):
    """Directives v with |v| <= max_len (image length unbounded)."""
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [v + c for v in frontier for c in "01"]
        out.extend(frontier)
    return out


def test_pal_injective_up_to_ten():
    seen = {}
    for v in central_directives_upto(10):
        w = pal(v)
        assert w not in seen, f"pal({v}) == pal({seen[w]})"
        seen[w] = v


def test_pal_chain_needs_exactly_one_source():
    with pytest.raises(DomainError):
        list(closure_chain())
    with pytest.raises(DomainError):
        list(closure_chain("01", prefixes_of="010"))


def walked_prefixes(word):
    out, n = [], 0
    for piece, _, _ in closure_chain(prefixes_of=word):
        n += len(piece)
        out.append(word[:n])
    return out


def scanned_prefixes(word):
    return [word[:k] for k in range(1, len(word) + 1)
            if _central_periods(word[:k]) is not None]


def test_pal_chain_walk_matches_period_scan_up_to_fourteen():
    # Depth-first over all words of <= 14 letters: a word's central
    # prefixes are its parent's plus, if central, the word itself.
    stack = [("", [])]
    count = 0
    while stack:
        w, central = stack.pop()
        assert walked_prefixes(w) == central, w
        count += 1
        if len(w) < 14:
            for c in "01":
                nxt = w + c
                hit = _central_periods(nxt) is not None
                stack.append((nxt, central + [nxt] if hit else central))
    assert count == 2 ** 15 - 1


def test_pal_chain_walk_matches_period_scan_on_long_words():
    rng = random.Random(20261018)
    words = []
    for _ in range(8):
        n = rng.randrange(100, 2001)
        words.append("".join(rng.choice("01") for _ in range(n)))
    for _ in range(8):
        q = rng.randrange(100, 2001)
        p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
        n = rng.randrange(100, 2001)
        w = list(mech_periodic(p, q).shift(1).prefix(n))
        j = rng.randrange(n)
        w[j] = "1" if w[j] == "0" else "0"
        words.append("".join(w))
    for w in words:
        assert walked_prefixes(w) == scanned_prefixes(w), w


# -- recognition --------------------------------------------------------------

def test_is_central_certificate_for_010():
    cert = is_central("010")
    assert cert is not None
    assert (cert.p, cert.q) == (2, 5)
    assert (cert.ell1, cert.ell2) == (2, 3)
    assert (cert.w1, cert.w2) == ("", "0")
    assert cert.directive == "01"


def test_is_central_rejects_110():
    assert is_central("110") is None
    # the balance characterization agrees: the 1w0 side fails
    assert is_balanced("0" + "110" + "1")
    assert not is_balanced("1" + "110" + "0")


def test_is_central_empty_word():
    cert = is_central("")
    assert cert is not None
    assert (cert.p, cert.q) == (1, 2)
    assert (cert.ell1, cert.ell2) == (1, 1)


def test_certificate_rejects_inconsistent_fields():
    cert = CentralCertificate("010", "01")
    assert cert == is_central("010") and hash(cert) == hash(is_central("010"))
    for word, directive in [
        ("010", "10"),    # central, but pal("10") = "101"
        ("0110", "01"),   # gcd(p, q) = gcd(3, 6) = 3
        ("0101", "01"),   # gcd(p, q) = gcd(3, 6) = 3
        ("011", "01"),    # gcd(3, 5) = 1, but 2 is no period
        ("0a0", "01"),    # not a binary word
        ("010", "0x"),    # nor a binary directive
        (None, "01"),
    ]:
        with pytest.raises(InvariantError):
            CentralCertificate(word, directive)


def test_certificate_carries_only_word_and_directive():
    cert = is_central("010010")
    assert CentralCertificate.__slots__ == ("word", "directive")
    assert repr(cert) == "CentralCertificate(word='010010', directive='010')"
    assert cert.__reduce__() == (CentralCertificate, ("010010", "010"))
    assert (cert.p, cert.q, cert.ell1, cert.ell2) == (3, 8, 5, 3)
    assert (cert.w1, cert.w2) == ("010", "0")


def assert_read_off_fields_hold(cert):
    """What the certificate reads off its word without checking it."""
    w, p, q, ell1, ell2 = cert.word, cert.p, cert.q, cert.ell1, cert.ell2
    assert (len(w), w.count("1")) == (q - 2, p - 1)
    assert ell1 + ell2 == q and ell2 * p % q == 1
    if w:
        assert is_period(w, ell1) and is_period(w, ell2)
        assert min(ell1, ell2) == minimal_period(w)
    if len(set(w)) < 2:
        assert cert.w1 is None and cert.w2 is None
    else:
        assert (len(cert.w1), len(cert.w2)) == (ell1 - 2, ell2 - 2)


def seeded_slopes(count=200, max_q=2000):
    rng = random.Random(20261018)
    out = []
    for _ in range(count):
        q = rng.randrange(3, max_q + 1)
        out.append((rng.choice([p for p in range(1, q) if gcd(p, q) == 1]), q))
    return out


def test_certificate_fields_hold_by_construction_up_to_fourteen():
    found = []
    for n in range(15):
        for bits in product("01", repeat=n):
            cert = is_central("".join(bits))
            if cert is not None:
                assert_read_off_fields_hold(cert)
                found.append(cert.word)
    assert sorted(found) == sorted(enumerate_central(14))


def test_two_period_check_is_the_minimal_period_check_up_to_fourteen():
    # With gcd(p, q) = 1 the certificate asks that both read-off periods
    # hold; on every word of <= 14 letters that is exactly the recognition
    # by the minimal period and its complement.
    for n in range(15):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            p, q = w.count("1") + 1, n + 2
            if gcd(p, q) != 1:
                continue
            ell2 = pow(p, -1, q)
            pair = tuple(sorted((q - ell2, ell2)))
            assert (is_period(w, q - ell2) and is_period(w, ell2)) == (
                _central_periods(w) == pair), w


def test_certificate_is_immutable():
    cert = is_central("010")
    with pytest.raises(AttributeError):
        cert.word = "000"
    with pytest.raises(AttributeError):
        del cert.directive
    assert not hasattr(cert, "__dict__")


def test_certificate_period_congruence():
    # ell2 * p = 1 (mod q) for every certificate
    for w in central_words_upto(12):
        cert = is_central(w)
        assert cert.ell2 * cert.p % cert.q == 1


def test_three_characterizations_agree_up_to_ten():
    by_pal = set(central_words_upto(10))
    for n in range(0, 11):
        for i in range(1 << n):
            w = format(i, f"0{n}b") if n else ""
            period_test = is_central(w) is not None
            balance_test = is_balanced("0" + w + "1") and is_balanced("1" + w + "0")
            assert period_test == balance_test == (w in by_pal), w


def test_palindrome_splitting_characterization_up_to_twelve():
    # central <=> in 0* + 1* + (palindromes meeting P10P)
    def splits(w):
        if w != w[::-1]:
            return False
        for i in range(len(w) - 1):
            if w[i:i + 2] == "10":
                a, b = w[:i], w[i + 2:]
                if a == a[::-1] and b == b[::-1]:
                    return True
        return False

    central = set(central_words_upto(12))
    for n in range(0, 13):
        for i in range(1 << n):
            w = format(i, f"0{n}b") if n else ""
            alt = set(w) in ({"0"}, {"1"}, set()) or splits(w)
            assert alt == (w in central), w


# -- slope construction -------------------------------------------------------

@pytest.mark.parametrize("p,q,expected", [
    (2, 5, "010"),
    (3, 8, "010010"),
    (1, 2, ""),
    (1, 7, "00000"),
    (3, 5, "101"),
    (3, 4, "11"),
])
def test_central_from_slope_examples(p, q, expected):
    assert central_from_slope(p, q).word == expected


def test_central_from_slope_rejects_bad_input():
    with pytest.raises(DomainError):
        central_from_slope(2, 4)
    with pytest.raises(DomainError):
        central_from_slope(5, 3)
    with pytest.raises(DomainError):
        central_from_slope(0, 3)
    with pytest.raises(DomainError, match="budget"):
        central_from_slope(1, EXPANSION_BUDGET + 1)
    # integers past the interpreter's int-string limit
    with pytest.raises(DomainError, match="binary digits"):
        central_from_slope(2, 2 * 10 ** 5000)
    with pytest.raises(DomainError, match="binary digits"):
        central_from_slope(10 ** 5000, 3)


@pytest.mark.parametrize("p,q,limit,directive", [
    (6765, 10946, 5, "10" * 9),
    (1, 2 ** 22, 1, "0" * (2 ** 22 - 2)),
], ids=["fibonacci", "one-over-2**22"])
def test_central_from_slope_within_time_bound(p, q, limit, directive):
    t0 = time.perf_counter()
    cert = central_from_slope(p, q)
    assert time.perf_counter() - t0 < limit
    assert len(cert.word) == q - 2 and cert.directive == directive


def test_central_from_slope_matches_the_floor_word_up_to_150_and_seeded():
    # the floor differences of the mechanical sequence, the library's
    # original route (a), spell the central word of every slope, and the
    # directive read off Euclid's quotients is the cf module's
    slopes = [(p, q) for q in range(2, 151) for p in range(1, q)
              if gcd(p, q) == 1]
    assert len(slopes) == 6857
    for p, q in slopes + seeded_slopes():
        cert = central_from_slope(p, q)
        assert cert.word == floor_word(p, q), (p, q)
        assert cert.directive == directive_from_cf(cf_of_rational(p, q)), \
            (p, q)
        assert (cert.p, cert.q) == (p, q)
        assert_read_off_fields_hold(cert)


def swap_one_pair(w):
    i = w.index("01")
    return w[:i] + "10" + w[i + 2:]


ANOTHER_SLOPE = "constructed word has another slope"
INCONSISTENT = "inconsistent central certificate"


@pytest.mark.parametrize("p,q,wrong,message", [
    (3, 8, lambda p, q: central_from_slope(5, q).word, ANOTHER_SLOPE),
    (2, 7, lambda p, q: central_from_slope(3, q).word, ANOTHER_SLOPE),
    (3, 8, lambda p, q: swap_one_pair(central_from_slope(p, q).word),
     INCONSISTENT),
    (8, 13, lambda p, q: swap_one_pair(central_from_slope(p, q).word),
     INCONSISTENT),
], ids=["other-slope-3/8", "other-slope-2/7", "swapped-3/8", "swapped-8/13"])
def test_the_certificate_alone_refuses_a_wrong_construction(
        monkeypatch, p, q, wrong, message):
    # The certificate's periods come from p and q alone, so a wrong pal,
    # patched in for both the construction and the certificate's own
    # check, is still refused: the central word of another slope with the
    # same q by the slope check, the right word with one 01 swapped by
    # the period checks.
    bad = wrong(p, q)
    assert len(bad) == q - 2 and bad != floor_word(p, q)
    monkeypatch.setattr(central, "pal", lambda v: bad)
    with pytest.raises(InvariantError, match=message):
        central_from_slope(p, q)


def reference_word_from_periods(p, q):
    """The central word of slope p/q by merging, in a union-find, the
    positions its two periods force equal: the library's original route
    (c), kept as a reference independent of pal."""
    n = q - 2
    if n == 0:
        return ""
    m = pow(p, -1, q)
    ell = q - m
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for step in (ell, m):
        for i in range(n - step):
            a, b = find(i), find(i + step)
            if a != b:
                parent[a] = b
    classes = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    if len(classes) == 1:
        assert p in (1, q - 1)
        return "0" * n if p == 1 else "1" * n
    assert len(classes) == 2
    ones = [members for members in classes.values() if len(members) == p - 1]
    assert len(ones) == 1
    letters = ["0"] * n
    for i in ones[0]:
        letters[i] = "1"
    return "".join(letters)


def test_central_from_slope_matches_union_find_up_to_150_and_seeded():
    slopes = [(p, q) for q in range(2, 151) for p in range(1, q)
              if gcd(p, q) == 1]
    assert len(slopes) == 6857
    for p, q in slopes + seeded_slopes():
        assert central_from_slope(p, q).word == \
            reference_word_from_periods(p, q), (p, q)


@pytest.mark.parametrize("build,limit", [
    (lambda n: central_from_slope(1, n), 5),
    (lambda n: is_central("0" * n), 6),
    (lambda n: pal("0" * n), 5),
], ids=["central_from_slope", "is_central", "pal"])
def test_central_words_take_a_few_bytes_per_letter(build, limit):
    # Bytes per letter of a 2**16-letter word.  The closure chain and its
    # callers build strings with O(1) state beside them, and the
    # certificate compares slices: a list of ints per letter (a
    # union-find, a border table) or of one slot per closure step costs 8
    # to 40 bytes per letter.
    n = 2 ** 16
    tracemalloc.start()
    try:
        build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit * n, peak / n


def test_slope_recovery_round_trip():
    for q in range(2, 21):
        for p in range(1, q):
            if gcd(p, q) == 1:
                cert = central_from_slope(p, q)
                assert (cert.p, cert.q) == (p, q)
                assert len(cert.word) == q - 2
                assert cert.word.count("1") == p - 1


# -- factorization and directive ----------------------------------------------

def test_standard_factorization_010():
    cert = is_central("010")
    assert (cert.w1, cert.w2) == ("", "0")


def test_standard_factorization_010010():
    cert = is_central("010010")
    assert (cert.w1, cert.w2) == ("010", "0")


def test_standard_factorization_rejects_constants():
    # words in 0* or 1* have no standard factorisation
    for w in ("", "00"):
        cert = is_central(w)
        assert cert.w1 is None and cert.w2 is None


def test_factorization_equations_hold():
    for w in central_words_upto(14):
        if "0" in w and "1" in w:
            cert = is_central(w)
            w1, w2 = cert.w1, cert.w2
            assert w == w1 + "01" + w2 == w2 + "10" + w1


@pytest.mark.parametrize("w,expected", [
    ("010010", "010"),
    ("01010", "011"),
    ("", ""),
])
def test_directive_of_central_examples(w, expected):
    assert is_central(w).directive == expected


def test_directive_of_central_rejects_non_central():
    assert is_central("110") is None


def test_directive_round_trip():
    for w in central_words_upto(12):
        assert pal(is_central(w).directive) == w


def assert_recognised_within_a_quarter_second(word, directive):
    # the word is read by two slice comparisons and rebuilt by pal a run
    # at a time, with no letter walk along it
    t0 = time.perf_counter()
    assert is_central(word).directive == directive
    assert time.perf_counter() - t0 < 0.25


def test_directive_of_long_constant_word_within_time_bound():
    assert_recognised_within_a_quarter_second("0" * 2 ** 20, "0" * 2 ** 20)


def test_directive_of_long_fibonacci_word_within_time_bound():
    cert = central_from_slope(832040, 1346269)
    assert cert.directive == "10" * 14
    assert_recognised_within_a_quarter_second(cert.word, cert.directive)


def walked_directive(word):
    """The letters of the closure chain walked along ``word``, or None if
    the walk stops short of its end: the reference recogniser."""
    n, directive = 0, ""
    for piece, x, _ in closure_chain(prefixes_of=word):
        n += len(piece)
        directive += x
    return directive if n == len(word) else None


def certified_directive(word):
    cert = is_central(word)
    if cert is None:
        return None
    assert cert.word == word
    return cert.directive


def test_is_central_is_the_chain_walk_up_to_sixteen():
    count = 0
    for n in range(17):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            assert certified_directive(w) == walked_directive(w), w
            count += 1
    assert count == 2 ** 17 - 1


def test_is_central_is_the_chain_walk_on_seeded_long_words():
    # central words of seeded slopes with q < 2 * 10**5, each with five
    # one-letter flips, both one-letter extensions and its last letter cut
    rng = random.Random(20261021)
    for _ in range(100):
        q = rng.randrange(3, 2 * 10 ** 5)
        p = rng.randrange(1, q)
        while gcd(p, q) != 1:
            p = rng.randrange(1, q)
        w = central_from_slope(p, q).word
        words = [w, w + "0", w + "1", w[:-1]]
        for j in (rng.randrange(len(w)) for _ in range(5 if w else 0)):
            words.append(w[:j] + "10"[int(w[j])] + w[j + 1:])
        for x in words:
            assert certified_directive(x) == walked_directive(x), (p, q)


def test_recognition_and_construction_need_no_walk(monkeypatch):
    # closure_chain's walk mode serves only the longest central prefix;
    # is_central and central_from_slope answer with it made to fail
    chain = central.closure_chain

    def directive_only(directive=None, *, prefixes_of=None):
        if prefixes_of is not None:
            raise AssertionError("closure_chain walked a word")
        return chain(directive)

    monkeypatch.setattr(central, "closure_chain", directive_only)
    with pytest.raises(AssertionError):
        list(central.closure_chain(prefixes_of="010"))
    assert is_central("010010").directive == "010"
    assert is_central("0" * 1000).directive == "0" * 1000
    assert is_central("0110") is None
    assert central_from_slope(5, 13).word == "01001010010"
    assert is_central(central_from_slope(5, 13).word).directive == "0101"


# -- rotations ---------------------------------------------------------------

def test_extremal_rotations_example():
    assert extremal_rotations("00101") == ("00101", "10100")


def test_extremal_rotations_single_letter():
    assert extremal_rotations("1") == ("1", "1")


def test_extremal_rotations_rejects_empty():
    with pytest.raises(DomainError):
        extremal_rotations("")


def test_extremal_rotations_match_all_rotations_up_to_fourteen():
    for n in range(1, 15):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            rots = [w[i:] + w[:i] for i in range(n)]
            assert extremal_rotations(w) == (min(rots), max(rots)), w


def test_christoffel_words_are_extremal_up_to_twelve():
    for w in central_words_upto(12):
        assert extremal_rotations("0" + w + "1") == ("0" + w + "1", "1" + w + "0")


def test_circular_shift_characterization_up_to_ten():
    # w central <=> w01 is a circular shift of w10
    def conjugate(a, b):
        return len(a) == len(b) and b in a + a

    central = set(central_words_upto(10))
    for n in range(0, 11):
        for i in range(1 << n):
            w = format(i, f"0{n}b") if n else ""
            assert conjugate(w + "01", w + "10") == (w in central), w


# -- extension ---------------------------------------------------------------

def reference_pal_extension(cert, x):
    """pal(directive + x) from the standard factorisation: extending by 0
    gives w2 10 w1 01 w2 and extending by 1 gives w1 01 w2 10 w1."""
    w1, w2 = cert.w1, cert.w2
    return w2 + "10" + w1 + "01" + w2 if x == "0" else w1 + "01" + w2 + "10" + w1


def test_pal_extension_zero():
    assert reference_pal_extension(is_central("010"), "0") == "010010"
    assert pal(is_central("010").directive + "0") == "010010"


def test_pal_extension_one():
    assert reference_pal_extension(is_central("010"), "1") == "01010"
    assert pal(is_central("010").directive + "1") == "01010"


def test_pal_extension_rejects_a_non_binary_letter():
    with pytest.raises(DomainError):
        pal(is_central("010").directive + "2")


def test_pal_extension_matches_directive_route():
    for w in central_words_upto(10):
        if "0" in w and "1" in w:
            cert = is_central(w)
            for x in "01":
                ext = reference_pal_extension(cert, x)
                assert ext == pal(cert.directive + x)
                assert ext == palindromic_closure(w + x)


def test_characteristic_prefix_property_up_to_twelve():
    # v01v2 begins (v2 10)^oo and v10v1 begins (v1 01)^oo
    from lexworld.words import Seq
    for v in central_words_upto(12):
        if "0" in v and "1" in v:
            cert = is_central(v)
            v1, v2 = cert.w1, cert.w2
            for head, per in ((v + "01" + v2, v2 + "10"),
                              (v + "10" + v1, v1 + "01")):
                assert Seq("", per).prefix(len(head)) == head
