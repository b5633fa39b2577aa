"""Command-line interface.

Sequences are written ``pre(per)`` for pre . per^oo (a bare word w means
w . 0^oo), rationals as ``a/b`` or ``a``.  Results are printed one
``key = value`` line per fact, or as a single JSON object with --emit
json.  Exit codes: 0 success, 1 malformed input or domain error, 2 a
phi-prefix query that the given prefix does not decide.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import lexmap, mechanical
from .central import (central_from_slope, is_central, pal,
                      palindromic_closure)
from .errors import DomainError
from .words import Seq, parse_rational, parse_seq

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No option starts with '-' and a digit, so such an argument is a
        # value ("F -1/3" or "--rho -1/3") that the library judges, not an
        # unknown option.
        self._negative_number_matcher = re.compile(r"-[0-9]")

    def error(self, message):  # keep exit codes under our control
        raise DomainError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


def _emit(lines: list[tuple[str, object]], as_json: bool) -> None:
    if as_json:
        import json  # only --emit json pays for it at start-up
        payload = {k: (v if isinstance(v, (bool, int)) or v is None else str(v))
                   for k, v in lines}
        print(json.dumps(payload))
    else:
        for key, val in lines:
            print(f"{key} = {_fmt(val)}")


def _cert_lines(cert, factors: bool = False) -> list[tuple[str, object]]:
    lines: list[tuple[str, object]] = [
        ("p", cert.p),
        ("q", cert.q),
        ("periods", f"{cert.ell1},{cert.ell2}"),
        ("directive", cert.directive),
    ]
    if factors and cert.w1 is not None:
        lines.append(("w1", cert.w1))
        lines.append(("w2", cert.w2))
    return lines


def _phi_lines(res, check: int | None, u: Seq | None) -> tuple[list, int]:
    lines = [
        ("phi", res.phi),
        ("case", res.case.value),
        ("central", res.central.word if res.central else None),
        ("verified", True),
    ]
    code = EXIT_OK
    if check is not None and u is not None:
        from . import oracle  # only --check and the oracle command use it
        agreed = oracle.brute_phi(u, oracle.SweepConfig(max_period=check)) == res.phi
        lines.append(("oracle_agrees", agreed))
        if not agreed:
            code = EXIT_ERROR
    return lines, code


def run(argv: list[str]) -> int:
    parser = _Parser(prog="lexworld", description=__doc__)
    parser.add_argument("--emit", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pal", help="iterated palindromic closure of a word")
    sp.add_argument("word")

    sp = sub.add_parser("closure", help="palindromic closure of a word")
    sp.add_argument("word")

    sp = sub.add_parser("central-check", help="recognise a central word")
    sp.add_argument("word")

    sp = sub.add_parser("central-make", help="central word of a slope p/q")
    sp.add_argument("slope")

    sp = sub.add_parser("mech", help="digits of a mechanical sequence")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--rho", default="0")
    sp.add_argument("--upper", action="store_true")
    sp.add_argument("-n", type=int, required=True)

    sp = sub.add_parser("sturmian-prefix",
                        help="prefix of the closure limit of a directive")
    sp.add_argument("--directive", required=True)
    sp.add_argument("-n", type=int, required=True)

    sp = sub.add_parser("classify", help="classify an eventually periodic sequence")
    sp.add_argument("seq")

    sp = sub.add_parser("phi", help="least upper sequence for the bound 0.U")
    sp.add_argument("seq", nargs="?")
    sp.add_argument("--check", type=int, metavar="Q")
    sp.add_argument("--directive", help="aperiodic characteristic input (symbolic)")
    sp.add_argument("-n", type=int, default=32, help="prefix length for symbolic output")

    sp = sub.add_parser("phi-prefix", help="decide phi from a finite prefix of U")
    sp.add_argument("word")

    sp = sub.add_parser("F", help="least right endpoint trapping {ksi 2^n}")
    sp.add_argument("x")
    sp.add_argument("--check", type=int, metavar="Q")

    sp = sub.add_parser("verify", help="check the shift inequalities for (U, B)")
    sp.add_argument("seq")
    sp.add_argument("bound")

    sp = sub.add_parser("oracle", help="brute-force reference computations")
    osub = sp.add_subparsers(dest="oracle_command", required=True)
    op = osub.add_parser("phi")
    op.add_argument("seq")
    op.add_argument("--max-period", type=int, default=8)

    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _dispatch(args) -> int:
    as_json = args.emit == "json"
    cmd = args.command

    if cmd == "pal":
        _emit([("pal", pal(args.word))], as_json)
    elif cmd == "closure":
        _emit([("closure", palindromic_closure(args.word))], as_json)
    elif cmd == "central-check":
        cert = is_central(args.word)
        lines: list[tuple[str, object]] = [("central", cert is not None)]
        if cert is not None:
            lines += _cert_lines(cert, factors=True)
        _emit(lines, as_json)
    elif cmd == "central-make":
        x = parse_rational(args.slope)
        cert = central_from_slope(x.numerator, x.denominator)
        _emit([("w", cert.word)] + _cert_lines(cert), as_json)
    elif cmd == "mech":
        alpha, rho = parse_rational(args.alpha), parse_rational(args.rho)
        if args.n < 0:
            raise DomainError("-n must be nonnegative")
        digit = mechanical.mech_upper if args.upper else mechanical.mech_lower
        digits = "".join(str(digit(alpha, rho, n)) for n in range(args.n))
        seq = mechanical.mech_periodic(alpha.numerator, alpha.denominator,
                                       rho, args.upper)
        _emit([("digits", digits), ("sequence", seq)], as_json)
    elif cmd == "sturmian-prefix":
        delta = parse_seq(args.directive)
        prefix = mechanical.characteristic_sturmian_prefix(delta, args.n)
        _emit([("prefix", prefix)], as_json)
    elif cmd == "classify":
        cls = lexmap.classify(parse_seq(args.seq))
        lines = [("class", cls.kind)]
        if cls.kind == lexmap.KIND_CPB:
            lines += [("p", cls.p), ("q", cls.q), ("variant", cls.variant)]
        _emit(lines, as_json)
    elif cmd == "phi":
        return _run_phi(args, as_json)
    elif cmd == "phi-prefix":
        decision = lexmap.phi_prefix(args.word)
        if not decision.decided:
            _emit([("decided", False), ("reason", decision.reason)], as_json)
            return EXIT_UNDECIDED
        res = decision.result
        _emit([("decided", True), ("phi", res.phi), ("case", res.case.value),
               ("central", res.central.word if res.central else None)], as_json)
    elif cmd == "F":
        return _run_f(args, as_json)
    elif cmd == "verify":
        report = lexmap.verify_phi(parse_seq(args.seq), parse_seq(args.bound))
        lines = [("verified", report.passed)]
        if not report.passed:
            lines.append(("failure", report.failures[0]))
        _emit(lines, as_json)
    elif cmd == "oracle":
        from . import oracle
        cfg = oracle.SweepConfig(max_period=args.max_period)
        _emit([("phi", oracle.brute_phi(parse_seq(args.seq), cfg))], as_json)
    return EXIT_OK


def _run_phi(args, as_json: bool) -> int:
    if (args.seq is None) == (args.directive is None):
        raise DomainError("phi takes either a sequence or --directive")
    if args.directive is not None:
        sym = lexmap.phi_sturmian(parse_seq(args.directive))
        cf = sym.slope_cf(8)
        _emit([
            ("symbolic", sym.symbolic),
            ("case", sym.case.value),
            ("prefix", sym.phi_value_prefix(args.n)),
            ("slope_cf", "[0;" + ",".join(map(str, cf)) + ",...]"),
        ], as_json)
        return EXIT_OK
    u = parse_seq(args.seq)
    res = lexmap.phi_zero_u(u)
    lines, code = _phi_lines(res, args.check, u)
    _emit(lines, as_json)
    return code


def _run_f(args, as_json: bool) -> int:
    x = parse_rational(args.x)
    res = lexmap.F(x)
    lines: list[tuple[str, object]] = [("F", res.F), ("case", res.case.value)]
    code = EXIT_OK
    if res.case not in (lexmap.Case.BOUNDARY_X_GT_HALF, lexmap.Case.BOUNDARY_X_ZERO):
        lines += [
            ("phi", res.phi_expansion),
            ("verified", res.verified),
            ("cmp_x_plus_half", "lt" if res.cmp_x_plus_half == -1 else "eq"),
        ]
        if args.check is not None:
            from . import oracle
            cfg = oracle.SweepConfig(max_period=args.check)
            agreed = oracle.brute_F(x, cfg) == res.F
            lines.append(("oracle_agrees", agreed))
            if not agreed:
                code = EXIT_ERROR
    _emit(lines, as_json)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
