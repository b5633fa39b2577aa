"""Exact combinatorics of binary sequences under the shift map.

Computes, in exact rational arithmetic, the least right endpoint F(x) of
an interval [x, y] that can trap every fractional part {ksi 2^n} of some
positive real ksi, together with the word-combinatorial machinery behind
it: balanced and central words, palindromic closure, mechanical sequences,
and the least-upper-bound map phi on the lexicographic world.
"""

from .cf import ContinuedFraction, cf_of_rational, directive_from_cf
from .central import (CentralCertificate, central_from_slope, closure_chain,
                      directive_of_central, extremal_rotations, is_balanced,
                      is_central, pal, pal_extension, palindromic_closure,
                      standard_factorization)
from .errors import DomainError, InvariantError, ParseError
from .lexmap import (Case, Classification, F, FResult, PhiResult,
                     PrefixDecision, SturmianPhi, VerifyReport, classify,
                     lex_world_member, phi, phi_prefix, phi_sturmian,
                     phi_zero_u, sigma_member, verify_phi)
from .mechanical import (characteristic_pair, characteristic_periodic_via_pal,
                         characteristic_sturmian_prefix, mech_lower,
                         mech_periodic, mech_upper)
from .words import (EQ, GT, LT, ONE, ZERO, Seq, check_word, expansion,
                    minimal_period, parse_rational, parse_seq)

__version__ = "0.1.0"

# The brute-force oracle serves tests and the CLI's --check; it is imported
# on first use of one of its names, not on every start.
_ORACLE_NAMES = frozenset({"SweepConfig", "brute_F", "brute_phi",
                           "enumerate_central", "naive_balance",
                           "sandwich_census"})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
