"""Exact combinatorics of binary sequences under the shift map.

Computes, in exact rational arithmetic, the least right endpoint F(x) of
an interval [x, y] that can trap every fractional part {ksi 2^n} of some
positive real ksi, together with the word-combinatorial machinery behind
it: balanced and central words, palindromic closure, mechanical sequences,
and the least-upper-bound map phi on the lexicographic world.
"""

__version__ = "0.1.0"

# Every public name, by the module that defines it.  A name (or a module
# named here) is imported on first use and the name is then kept in the
# package namespace, so `import lexworld`, and with it every
# `python -m lexworld` start, loads only the modules the caller uses.
_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
