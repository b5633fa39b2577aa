"""Command-line interface.

Sequences are written ``pre(per)`` for pre . per^oo (a bare word w means
w . 0^oo), rationals as ``a/b`` or ``a``.  Results are printed one
``key = value`` line per fact, or as a single JSON object with --emit
json.  Exit codes: 0 success, 1 malformed input or domain error, 2 a
phi-prefix query that the given prefix does not decide.
"""

from __future__ import annotations

import os
import sys

from .errors import DomainError
from .words import EXPANSION_BUDGET, parse_rational, parse_seq

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


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


def _oracle_agrees(answer, check: int, found, fast) -> bool:
    """Whether the oracle's answer ``found`` bears out the ``fast`` one.

    The oracle returns the least answer among the purely periodic
    sequences of period at most ``check``; the fast answer is the least of
    all.  So the two are equal when the fast answer's sequence ``answer``
    is one of those, and the oracle's lies strictly above it otherwise.
    """
    if not answer.pre and len(answer.per) <= check:
        return found == fast
    return found > fast


def _exit_code(lines: list[tuple[str, object]]) -> int:
    """1 when the oracle disagreed with an answer, 2 when phi-prefix could
    not decide, 0 otherwise."""
    facts = dict(lines)
    if facts.get("oracle_agrees") is False:
        return EXIT_ERROR
    if facts.get("decided") is False:
        return EXIT_UNDECIDED
    return EXIT_OK


def _cert_lines(cert) -> list[tuple[str, object]]:
    return [("p", cert.p), ("q", cert.q),
            ("periods", f"{cert.ell1},{cert.ell2}"),
            ("directive", cert.directive)]


# -- handlers: each imports the modules it runs and returns the facts -------

def _pal(word):
    from .central import pal
    return [("pal", pal(word))]


def _closure(word):
    from .central import palindromic_closure
    return [("closure", palindromic_closure(word))]


def _central_check(word):
    from .central import is_central
    cert = is_central(word)
    lines: list[tuple[str, object]] = [("central", cert is not None)]
    if cert is not None:
        lines += _cert_lines(cert)
        if cert.w1 is not None:
            lines += [("w1", cert.w1), ("w2", cert.w2)]
    return lines


def _central_make(slope):
    from .central import central_from_slope
    x = parse_rational(slope)
    cert = central_from_slope(x.numerator, x.denominator)
    return [("w", cert.word)] + _cert_lines(cert)


def _mech(alpha, rho, upper, n):
    from . import mechanical
    alpha, rho = parse_rational(alpha), parse_rational(rho)
    if n < 0:
        raise DomainError("-n must be nonnegative")
    if n > EXPANSION_BUDGET:
        raise DomainError(f"-n exceeds the budget of {EXPANSION_BUDGET} digits")
    seq = mechanical.mech_periodic(alpha.numerator, alpha.denominator, rho, upper)
    return [("digits", seq.prefix(n)), ("sequence", seq)]


def _sturmian_prefix(directive, n):
    from .mechanical import characteristic_sturmian_prefix
    return [("prefix", characteristic_sturmian_prefix(parse_seq(directive), n))]


def _classify(seq):
    from . import lexmap
    cls = lexmap.classify(parse_seq(seq))
    lines = [("class", cls.kind)]
    if cls.kind == lexmap.KIND_CPB:
        lines += [("p", cls.p), ("q", cls.q), ("variant", cls.variant)]
    return lines


def _phi(seq, check, directive, n):
    from . import lexmap
    if (seq is None) == (directive is None):
        raise DomainError("phi takes either a sequence or --directive")
    if directive is not None:
        if check is not None:
            raise DomainError("--check needs a sequence; the oracle has no "
                              "--directive mode")
        sym = lexmap.phi_sturmian(parse_seq(directive))
        cf = sym.slope_cf(8)
        return [
            ("symbolic", sym.symbolic),
            ("case", sym.case.value),
            ("prefix", sym.phi_value_prefix(32 if n is None else n)),
            ("slope_cf", "[0;" + ",".join(map(str, cf)) + ",...]"),
        ]
    if n is not None:
        raise DomainError("-n needs --directive; phi of a sequence is "
                          "printed whole")
    u = parse_seq(seq)
    res = lexmap.phi_zero_u(u)
    lines = [
        ("phi", res.phi),
        ("case", res.case.value),
        ("central", res.central.word if res.central else None),
        ("verified", True),
    ]
    if check is not None:
        from . import oracle  # only --check and the oracle command use it
        found = oracle.brute_phi(u, oracle.SweepConfig(check))
        lines.append(("oracle_agrees",
                      _oracle_agrees(res.phi, check, found, res.phi)))
    return lines


def _phi_prefix(word):
    from .lexmap import phi_prefix
    decision = phi_prefix(word)
    if not decision.decided:
        return [("decided", False), ("reason", decision.reason)]
    res = decision.result
    return [("decided", True), ("phi", res.phi), ("case", res.case.value),
            ("central", res.central.word if res.central else None)]


def _f(x, check):
    from .lexmap import F, Case
    x = parse_rational(x)
    res = F(x)
    lines: list[tuple[str, object]] = [("F", res.F), ("case", res.case.value)]
    if res.case not in (Case.BOUNDARY_X_GT_HALF, Case.BOUNDARY_X_ZERO):
        lines += [
            ("phi", res.phi_expansion),
            ("verified", res.verified),
            ("cmp_x_plus_half", "lt" if res.cmp_x_plus_half == -1 else "eq"),
        ]
    if check is not None:
        from . import oracle
        found = oracle.brute_F(x, oracle.SweepConfig(check))
        lines.append(("oracle_agrees",
                      _oracle_agrees(res.phi_expansion, check, found, res.F)))
    return lines


def _verify(seq, bound):
    from .lexmap import verify_phi
    report = verify_phi(parse_seq(seq), parse_seq(bound))
    lines = [("verified", report.passed)]
    if not report.passed:
        lines.append(("failure", report.failures[0]))
    return lines


def _oracle_phi(seq, max_period):
    from . import oracle
    return [("phi", oracle.brute_phi(parse_seq(seq),
                                     oracle.SweepConfig(max_period)))]


# -- the command table ------------------------------------------------------

# Each command: (one-line help, positional names, options, handler).  A
# positional name ending in "?" may be left out and is then None.  Each
# option maps its spelling to (kind, default, required); the kind is int,
# str, or bool for a flag that takes no value.  The handler takes the
# positionals and options as keyword arguments, an option named by its
# spelling without dashes ("--max-period" is max_period), and returns the
# facts to print.
COMMANDS = {
    "pal": ("iterated palindromic closure of a word", ("word",), {}, _pal),
    "closure": ("palindromic closure of a word", ("word",), {}, _closure),
    "central-check": ("recognise a central word", ("word",), {},
                      _central_check),
    "central-make": ("central word of a slope p/q", ("slope",), {},
                     _central_make),
    "mech": ("digits of a mechanical sequence", (), {
        "--alpha": (str, None, True), "--rho": (str, "0", False),
        "--upper": (bool, False, False), "-n": (int, None, True)}, _mech),
    "sturmian-prefix": ("prefix of the closure limit of a directive", (), {
        "--directive": (str, None, True), "-n": (int, None, True)},
        _sturmian_prefix),
    "classify": ("classify an eventually periodic sequence", ("seq",), {},
                 _classify),
    "phi": ("least upper sequence for the bound 0.U; -n, the letters "
            "printed with --directive, defaults to 32", ("seq?",), {
        "--check": (int, None, False), "--directive": (str, None, False),
        "-n": (int, None, False)}, _phi),
    "phi-prefix": ("decide phi from a finite prefix of U", ("word",), {},
                   _phi_prefix),
    "F": ("least right endpoint trapping {ksi 2^n}", ("x",),
          {"--check": (int, None, False)}, _f),
    "verify": ("check the shift inequalities for (U, B)", ("seq", "bound"),
               {}, _verify),
    "oracle phi": ("brute-force phi by exhaustive search", ("seq",),
                   {"--max-period": (int, 8, False)}, _oracle_phi),
}
HELP = ("-h", "--help")
# The one option that comes before the command.
EMIT = {"--emit": (str, "text", False)}


def _dest(option: str) -> str:
    return option.lstrip("-").replace("-", "_")


def _is_option(token: str) -> bool:
    """True for ``-x`` and ``--name``.  No option starts with "-" and a
    digit, so such a token is a value ("F -1/3" or "--rho -1/3") that the
    library judges, and so is a lone "-"."""
    return len(token) > 1 and token[0] == "-" and token[1] not in "0123456789"


def _read_option(token: str, options: dict, rest: list[str], args: dict,
                 where: str) -> None:
    """Read the option ``NAME``, ``NAME VALUE`` or ``NAME=VALUE`` that
    starts at token into args, taking a separate VALUE from rest."""
    option, eq, value = token.partition("=")
    if option not in options:
        raise DomainError(f"{where} has no option {option}")
    kind = options[option][0]
    if kind is bool:
        if eq:
            raise DomainError(f"{option} takes no value")
        value = True
    elif not eq:
        if not rest or _is_option(rest[0]):
            raise DomainError(f"{option} expects a value")
        value = rest.pop(0)
    if kind is int:
        if not (value.isascii() and value.removeprefix("-").isdigit()):
            raise DomainError(f"{option} takes an integer -?[0-9]+, "
                              f"not {value!r}")
        try:
            value = int(value)
        except ValueError as exc:  # past the interpreter's int-string limit
            raise DomainError(f"{option} is too long: {exc}") from None
    args[_dest(option)] = value


def parse(argv: list[str]) -> dict:
    """Read a command line against the command table.

    Returns the values by name, with "emit" and "command", or
    ``{"help": command}`` (command None before one is named) when -h or
    --help asks for help.  Any other input raises DomainError.
    """
    rest = list(argv)
    args: dict = {"emit": "text"}
    while rest and _is_option(rest[0]):
        token = rest.pop(0)
        if token in HELP:
            return {"help": None}
        _read_option(token, EMIT, rest, args, "lexworld (before the command)")
    if args["emit"] not in ("text", "json"):
        raise DomainError(f"--emit takes text or json, not {args['emit']!r}")
    if not rest:
        raise DomainError("no command given; lexworld -h lists them")
    name = rest.pop(0)
    if rest and any(c.startswith(name + " ") for c in COMMANDS):  # oracle phi
        if rest[0] in HELP:
            return {"help": None}
        name += " " + rest.pop(0)
    if name not in COMMANDS:
        raise DomainError(f"unknown command {name!r}; lexworld -h lists them")
    args["command"] = name
    _, positionals, options, _ = COMMANDS[name]
    values = []
    while rest:
        token = rest.pop(0)
        if token in HELP:
            return {"help": name}
        if _is_option(token):
            _read_option(token, options, rest, args, name)
        else:
            values.append(token)

    required = [p for p in positionals if not p.endswith("?")]
    if not len(required) <= len(values) <= len(positionals):
        raise DomainError(f"usage: lexworld {_usage(name)}")
    for k, p in enumerate(positionals):
        args[p.rstrip("?")] = values[k] if k < len(values) else None
    for option, (_, default, needed) in options.items():
        if _dest(option) not in args:
            if needed:
                raise DomainError(f"{name} needs {option}")
            args[_dest(option)] = default
    return args


def _spelling(option: str, kind: type) -> str:
    return option if kind is bool else f"{option} {_dest(option).upper()}"


def _usage(name: str) -> str:
    _, positionals, options, _ = COMMANDS[name]
    parts = [name] + [f"[{p[:-1].upper()}]" if p.endswith("?") else p.upper()
                      for p in positionals]
    for option, (kind, _, needed) in options.items():
        part = _spelling(option, kind)
        parts.append(part if needed else f"[{part}]")
    return " ".join(parts)


def _help(name: str | None) -> str:
    if name is None:
        lines = ["usage: lexworld [-h] [--emit text|json] COMMAND ...", "",
                 __doc__.partition("\n\n")[2].strip(), "", "commands:"]
        for command, (text, *_) in COMMANDS.items():
            lines += [f"  {_usage(command)}", f"      {text}"]
        return "\n".join(lines)
    text, _, options, _ = COMMANDS[name]
    lines = [f"usage: lexworld [--emit text|json] {_usage(name)}", "", text]
    if options:
        lines += ["", "options:"]
    for option, (kind, default, needed) in options.items():
        note = ("required" if needed else "" if default is None or kind is bool
                else f"default {default}")
        lines.append(f"  {_spelling(option, kind):<26} {note}".rstrip())
    return "\n".join(lines)


def run(argv: list[str]) -> int:
    try:
        args = parse(argv)
        if "help" not in args:
            as_json = args.pop("emit") == "json"
            lines = COMMANDS[args.pop("command")][3](**args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if sys.stdout is None:  # started with fd 1 closed: nowhere to write
        return EXIT_ERROR
    try:
        if "help" in args:
            print(_help(args["help"]))
        else:
            _emit(lines, as_json)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point fd 1 at devnull so that
        # a later flush of what the buffer still holds cannot raise again:
        # main's, or the interpreter's at exit after an in-process caller.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    return EXIT_OK if "help" in args else _exit_code(lines)


def main() -> None:
    """Run the command line, flush its output and end the process.

    ``os._exit`` skips the interpreter's teardown, which would only free
    what the command built.  ``atexit`` handlers do not run either, so
    code that embeds the CLI calls ``run``.  An exception that escapes
    ``run`` is reported and exits as usual.
    """
    code = run(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when its fd was closed at the start
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
