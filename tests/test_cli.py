import argparse
import json
import os
import re
import subprocess
import sys
import time

import pytest

from lexworld import cli
from lexworld.cli import run
from lexworld.errors import DomainError


def invoke(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- golden outputs -------------------------------------------------------

def test_phi_golden(capsys):
    code, out, err = invoke(capsys, "phi", "(1100)")
    assert code == 0
    # the central word is the sandwiched one, phi = (1 central 0)^oo
    assert out == "phi = (110)\ncase = i\ncentral = 1\nverified = true\n"


def test_phi_constant_golden(capsys):
    # a constant bound answers itself, with no central word
    code, out, _ = invoke(capsys, "phi", "(1)")
    assert code == 0
    assert out == "phi = (1)\ncase = ii\ncentral = none\nverified = true\n"


def test_f_boundary_golden(capsys):
    code, out, _ = invoke(capsys, "F", "3/4")
    assert code == 0
    assert out == "F = 1\ncase = boundary_x_gt_half\n"


def test_central_make_golden(capsys):
    code, out, _ = invoke(capsys, "central-make", "2/5")
    assert code == 0
    assert out == "w = 010\np = 2\nq = 5\nperiods = 2,3\ndirective = 01\n"


def test_f_generic_output(capsys):
    code, out, _ = invoke(capsys, "F", "2/5")
    assert code == 0
    lines = out.splitlines()
    assert "F = 6/7" in lines
    assert "case = i" in lines
    assert "phi = (110)" in lines
    assert "cmp_x_plus_half = lt" in lines


def test_pal_and_closure(capsys):
    assert invoke(capsys, "pal", "011")[1] == "pal = 01010\n"
    assert invoke(capsys, "closure", "011")[1] == "closure = 0110\n"


def test_central_check_positive(capsys):
    _, out, _ = invoke(capsys, "central-check", "010010")
    lines = out.splitlines()
    assert lines[0] == "central = true"
    assert "p = 3" in lines and "q = 8" in lines
    assert "w1 = 010" in lines and "w2 = 0" in lines


def test_central_check_negative(capsys):
    code, out, _ = invoke(capsys, "central-check", "110")
    assert code == 0
    assert out == "central = false\n"


def test_mech_digits(capsys):
    _, out, _ = invoke(capsys, "mech", "--alpha", "2/5", "-n", "10")
    assert out == "digits = 0010100101\nsequence = (00101)\n"


def test_mech_upper(capsys):
    _, out, _ = invoke(capsys, "mech", "--alpha", "2/5", "--rho", "2/5",
                       "--upper", "-n", "5")
    assert out.splitlines()[0] == "digits = 01001"


def test_integer_options_name_their_grammar(capsys):
    code, out, err = invoke(capsys, "F", "1/3", "--check", "+8")
    assert (code, out) == (1, "")
    assert err == "error: --check takes an integer -?[0-9]+, not '+8'\n"
    code, _, err = invoke(capsys, "mech", "--alpha", "1/3", "-n", "9" * 5000)
    assert code == 1 and err.startswith("error: -n is too long")


@pytest.mark.parametrize("alpha,n,digits", [
    ("1/3", "1000000", "001" * 333333 + "0"),
    ("1/100003", "5", "00000"),
], ids=["long-prefix", "long-period"])
def test_mech_finishes_quickly(alpha, n, digits):
    # the digits are a prefix of the periodic sequence, whose q digits are
    # written by integer floor division
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lexworld", "mech", "--alpha", alpha, "-n", n],
        capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - t0 < 5
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == f"digits = {digits}"


PAST_BUDGET = str((1 << 22) + 1)  # one past EXPANSION_BUDGET


@pytest.mark.parametrize("argv", [
    ["mech", "--alpha", "1/3", "-n", PAST_BUDGET],
    ["sturmian-prefix", "--directive", "(01)", "-n", PAST_BUDGET],
    ["phi", "--directive", "(01)", "-n", PAST_BUDGET],
    ["mech", "--alpha", f"1/{PAST_BUDGET}", "-n", "5"],
    ["central-make", f"1/{PAST_BUDGET}"],
    ["pal", "01" * 20],
], ids=["mech-n", "sturmian-prefix-n", "phi-directive-n", "mech-alpha",
        "central-make", "pal"])
def test_words_past_the_budget_are_refused_quickly(argv):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "lexworld", *argv],
                          capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - t0 < 1
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "budget" in proc.stderr


# Spawns argv, reads its peak RSS with os.wait4 and prints it in bytes
# (ru_maxrss counts KB on Linux, bytes on macOS).  The kernel carries the
# high-water RSS of the image a process replaces into its own, so the
# child starts from this small process, not from the test process.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
scale = 1 if sys.platform == "darwin" else 1024
print(proc.returncode, usage.ru_maxrss * scale)
"""


def test_mech_on_a_long_period_keeps_only_the_word():
    # the 2**20-digit period is built one byte per digit
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "lexworld",
         "mech", "--alpha", "1/1048576", "-n", "5"],
        capture_output=True, text=True, timeout=60)
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak < 40 << 20, peak


def test_central_make_on_a_long_period_keeps_only_the_words():
    # route (c) walks the period cycle in one bytearray and the
    # certificate compares slices, so the 2**20-letter word costs a few
    # copies of itself, not an int or a list slot per letter
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "lexworld",
         "central-make", "1/1048576"],
        capture_output=True, text=True, timeout=60)
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak < 50 << 20, peak


def test_sturmian_prefix(capsys):
    _, out, _ = invoke(capsys, "sturmian-prefix", "--directive", "(01)",
                       "-n", "28")
    assert out == "prefix = 0100101001001010010100100101\n"


def test_classify_output(capsys):
    _, out, _ = invoke(capsys, "classify", "(01001)")
    assert out == ("class = characteristic_periodic_balanced\n"
                   "p = 2\nq = 5\nvariant = ends01\n")
    _, out, _ = invoke(capsys, "classify", "(1100)")
    assert out == "class = generic\n"


def test_phi_prefix_decided(capsys):
    code, out, _ = invoke(capsys, "phi-prefix", "010010011")
    assert code == 0
    assert "decided = true" in out and "phi = (10100100)" in out


def test_phi_prefix_insufficient_exit_code(capsys):
    code, out, _ = invoke(capsys, "phi-prefix", "0")
    assert code == 2
    assert "decided = false" in out
    assert "reason = " in out


def test_phi_oracle_check_agrees(capsys):
    code, out, _ = invoke(capsys, "phi", "(1100)", "--check", "6")
    assert code == 0
    assert out.endswith("oracle_agrees = true\n")


@pytest.mark.parametrize("x", ["2/5", "2/3", "1", "0"])
def test_f_oracle_check_agrees(capsys, x):
    # the oracle also checks the boundary answers F = 1 and F = 0
    code, out, _ = invoke(capsys, "F", x, "--check", "8")
    assert code == 0
    assert out.endswith("oracle_agrees = true\n")


def test_f_oracle_check_accepts_an_answer_past_its_period_bound(capsys):
    # F(1/3) = 0.(10)^oo has period 2; the oracle, seeing period 1 only,
    # returns (1), which lies strictly above it as it must
    code, out, _ = invoke(capsys, "F", "1/3", "--check", "1")
    assert code == 0
    assert "F = 2/3\n" in out
    assert out.endswith("oracle_agrees = true\n")


def test_phi_oracle_check_accepts_an_answer_past_its_period_bound(capsys):
    code, out, _ = invoke(capsys, "phi", "(1100)", "--check", "2")
    assert code == 0
    assert out.startswith("phi = (110)\n")
    assert out.endswith("oracle_agrees = true\n")


@pytest.mark.parametrize("check,found", [("6", "1"), ("2", "10"), ("2", "110")],
                         ids=["above-a-fitting-answer", "below-the-answer",
                              "equal-past-the-bound"])
def test_phi_oracle_check_disagreement_exits_1(capsys, monkeypatch, check,
                                               found):
    # phi((1100)) = (110): within the bound the oracle must return it, past
    # the bound something strictly above it
    from lexworld import oracle
    from lexworld.words import Seq
    monkeypatch.setattr(oracle, "brute_phi", lambda u, cfg: Seq("", found))
    code, out, _ = invoke(capsys, "phi", "(1100)", "--check", check)
    assert code == 1
    assert out.endswith("oracle_agrees = false\n")


def test_phi_symbolic_directive(capsys):
    code, out, _ = invoke(capsys, "phi", "--directive", "(01)", "-n", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "symbolic = 1*Pal((01))"
    assert "case = iii_sturmian" in lines
    assert "prefix = 101001010010" in lines
    assert any(line.startswith("slope_cf = [0;2,1,1") for line in lines)


def test_phi_directive_prints_32_letters_without_n(capsys):
    code, out, _ = invoke(capsys, "phi", "--directive", "(01)")
    assert code == 0
    assert out == ("symbolic = 1*Pal((01))\ncase = iii_sturmian\n"
                   "prefix = 10100101001001010010100100101001\n"
                   "slope_cf = [0;2,1,1,1,1,1,1,1,...]\n")


@pytest.mark.parametrize("n", ["0", "5"])
def test_phi_of_a_sequence_refuses_n(capsys, n):
    # -n sets the letters printed with --directive; phi of a sequence is
    # printed whole, so -n would go unused
    code, out, err = invoke(capsys, "phi", "(1100)", "-n", n)
    assert (code, out) == (1, "")
    assert err == "error: -n needs --directive; phi of a sequence is printed whole\n"


def test_phi_requires_exactly_one_input_mode(capsys):
    assert invoke(capsys, "phi")[0] == 1
    assert invoke(capsys, "phi", "(01)", "--directive", "(01)")[0] == 1


def test_phi_directive_refuses_check(capsys):
    # the oracle checks eventually periodic answers only, so --check would
    # go unused with --directive
    code, out, err = invoke(capsys, "phi", "--directive", "(01)", "--check", "8")
    assert (code, out) == (1, "")
    assert "--check" in err


@pytest.mark.parametrize("command", ["phi", "sturmian-prefix"])
def test_directive_prefix_length_must_be_positive(capsys, command):
    code, out, err = invoke(capsys, command, "--directive", "(01)", "-n", "0")
    assert (code, out) == (1, "")
    assert err == "error: prefix length must be positive\n"


def test_verify_command(capsys):
    code, out, _ = invoke(capsys, "verify", "(1100)", "(110)")
    assert code == 0 and out == "verified = true\n"
    code, out, _ = invoke(capsys, "verify", "(1100)", "(10)")
    assert code == 0
    assert out.splitlines()[0] == "verified = false"


def test_oracle_subcommand(capsys):
    _, out, _ = invoke(capsys, "oracle", "phi", "(1100)", "--max-period", "6")
    assert out == "phi = (110)\n"


def test_parse_error_is_position_annotated(capsys):
    code, out, err = invoke(capsys, "phi", "01a01")
    assert code == 1
    assert out == ""
    assert "position 2" in err


def test_bad_rational_rejected(capsys):
    code, _, err = invoke(capsys, "F", "2/0")
    assert code == 1
    assert "denominator" in err


@pytest.mark.parametrize("text,position", [
    ("1_000/3001", 1), ("\u0661/\u0663", 0), (" 1/3 ", 0), ("1/3 ", 3)])
def test_rational_outside_grammar_refused_with_position(capsys, text, position):
    code, out, err = invoke(capsys, "F", text)
    assert code == 1
    assert out == ""
    assert f"position {position}" in err


def test_rational_past_the_int_string_limit_is_refused(capsys):
    code, out, err = invoke(capsys, "F", "1/" + "9" * 5000)
    assert (code, out) == (1, "")
    assert err.startswith("error: rational too long")


def test_negative_rational_reaches_the_domain_check(capsys):
    code, out, err = invoke(capsys, "F", "-1/3")
    assert code == 1
    assert out == ""
    assert err == "error: F is defined on [0, 1], got -1/3\n"


def test_f_past_the_digit_budget_exits_quickly():
    # the binary period of x is longer than the digit budget
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lexworld", "F",
         "354224848179261915075/927372692193078999176"],
        capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "digits" in proc.stderr


def test_domain_error_exit_code(capsys):
    code, _, err = invoke(capsys, "F", "5/4")
    assert code == 1
    assert "error:" in err
    # F answers an x above 1/2 without expanding it, but the oracle behind
    # --check expands x and refuses it past the digit budget
    code, out, err = invoke(capsys, "F", "573147844013817084101/927372692193078999176",
                            "--check", "8")
    assert (code, out) == (1, "")
    assert "digits" in err


@pytest.mark.parametrize("argv", [
    ["phi", "0(1101)", "--check", "17"],
    ["F", "1/3", "--check", "0"],
    ["oracle", "phi", "(1100)", "--max-period", "17"],
], ids=["phi-check", "F-check", "oracle-max-period"])
def test_search_bound_outside_1_to_16_is_refused(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: max_period must lie in 1..16 (exponential search)\n"


def test_a_reader_closing_stdout_early_gets_no_traceback():
    # the 262,144-letter word fills the pipe, so the write after the
    # reader has gone fails with a broken pipe
    with subprocess.Popen(
            [sys.executable, "-m", "lexworld", "central-make", "1/262144"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == b"w"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=30), err) == (1, b"")


def _python(*args, stdout=subprocess.PIPE, command=(sys.executable,)):
    """A child interpreter that imports this lexworld, with stdout
    block-buffered as it is wherever PYTHONUNBUFFERED is unset; a shell
    ``command`` may start it."""
    import lexworld
    src = os.path.dirname(os.path.dirname(lexworld.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([*command, *args], stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60,
                          env={**env, "PYTHONPATH": src})


@pytest.mark.parametrize("to_file", [False, True], ids=["pipe", "file"])
@pytest.mark.parametrize("argv", [
    ["central-make", "1/262144"],
    ["--emit", "json", "F", "2/5"],
], ids=["central-make", "json-F"])
def test_block_buffered_output_is_flushed_before_the_process_ends(
        capsys, tmp_path, argv, to_file):
    # the process ends with os._exit, which skips the interpreter's own
    # flush of a block-buffered stdout; main flushes it first
    _, expected, _ = invoke(capsys, *argv)
    if to_file:
        with open(tmp_path / "out", "wb") as out:
            proc = _python("-m", "lexworld", *argv, stdout=out)
        proc.stdout = (tmp_path / "out").read_bytes()
    else:
        proc = _python("-m", "lexworld", *argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected.encode()
    if argv[0] == "central-make":  # "w = ", the 262,142 letters, "\n"
        assert proc.stdout.index(b"\n") + 1 == 262147


@pytest.mark.parametrize("argv,code,err", [
    (["F", "2/5"], 0, b""),
    (["F", "3/2"], 1, b"error: F is defined on [0, 1], got 3/2\n"),
    (["phi-prefix", "0000"], 2, b""),
], ids=["ok", "error", "undecided"])
def test_the_process_exits_with_the_code_run_returns(capsys, argv, code, err):
    in_process, expected, _ = invoke(capsys, *argv)
    proc = _python("-m", "lexworld", *argv)
    assert in_process == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, expected.encode(), err)


def test_an_exception_escaping_run_is_reported():
    # the hard exit follows only a code that run returns
    code = ("import lexworld.cli as cli\n"
            "from lexworld.errors import InvariantError\n"
            "def fail(word):\n"
            "    raise InvariantError('planted')\n"
            "cli.COMMANDS['pal'] = (*cli.COMMANDS['pal'][:3], fail)\n"
            "cli.main()\n")
    proc = _python("-c", code, "pal", "011")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(b"Traceback")
    assert b"InvariantError: planted" in proc.stderr


def test_the_process_ends_without_running_atexit_handlers():
    code = ("import atexit, sys, lexworld.cli\n"
            "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
            "lexworld.cli.main()\n")
    proc = _python("-c", code, "pal", "011")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, b"pal = 01010\n", b"")


@pytest.mark.parametrize("argv", [["-h"], ["F", "2/5"]], ids=["help", "F"])
def test_a_stdout_closed_before_the_start_gets_no_traceback(argv):
    # run's flush fails and leaves the output in the buffer, and main
    # flushes it again before os._exit; run has pointed fd 1 at devnull
    # by then, so that second flush cannot fail
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python("-m", "lexworld", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("argv,err", [
    (["F", "2/5"], b""),
    (["F", "3/2"], b"error: F is defined on [0, 1], got 3/2\n"),
], ids=["answer", "error"])
def test_a_process_started_with_fd_1_closed_exits_quietly(argv, err):
    # with fd 1 closed the interpreter sets sys.stdout to None: run has
    # nowhere to write the answer, and main flushes only stderr
    shell = ("sh", "-c", 'exec "$0" -m lexworld "$@" >&-', sys.executable)
    proc = _python(*argv, command=shell)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", err)


def test_json_emission(capsys):
    code, out, _ = invoke(capsys, "--emit", "json", "phi", "(1100)")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"phi": "(110)", "case": "i", "central": "1",
                       "verified": True}


def test_json_none_is_null(capsys):
    _, out, _ = invoke(capsys, "--emit", "json", "phi", "(0)")
    assert json.loads(out)["central"] is None


def test_output_is_deterministic(capsys):
    a = invoke(capsys, "phi", "(010010011)")
    b = invoke(capsys, "phi", "(010010011)")
    assert a == b


def test_printed_sequences_reparse_to_same_object(capsys):
    from lexworld.words import parse_seq
    for args in (("phi", "(1100)"), ("classify", "(01001)"),
                 ("oracle", "phi", "(0110)")):
        _, out, _ = invoke(capsys, *args)
        for line in out.splitlines():
            key, _, val = line.partition(" = ")
            if val.startswith("(") or "(" in val and key in ("phi", "sequence"):
                assert str(parse_seq(val)) == val


# -- the parser against the argparse construction it replaced ---------------

class _ReferenceParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[0-9]")

    def error(self, message):
        raise DomainError(message)


def reference_parse(argv):
    """The argparse parser that the command table replaced, as a drop-in
    for ``cli.parse``: its namespace as a dict, "oracle phi" one command."""
    parser = _ReferenceParser(prog="lexworld")
    parser.add_argument("--emit", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, arg in (("pal", "word"), ("closure", "word"),
                      ("central-check", "word"), ("central-make", "slope"),
                      ("classify", "seq"), ("phi-prefix", "word")):
        sub.add_parser(name).add_argument(arg)
    sp = sub.add_parser("mech")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--rho", default="0")
    sp.add_argument("--upper", action="store_true")
    sp.add_argument("-n", type=int, required=True)
    sp = sub.add_parser("sturmian-prefix")
    sp.add_argument("--directive", required=True)
    sp.add_argument("-n", type=int, required=True)
    sp = sub.add_parser("phi")
    sp.add_argument("seq", nargs="?")
    sp.add_argument("--check", type=int)
    sp.add_argument("--directive")
    # unset by default, as in the table, so that phi can refuse -n with a
    # sequence; phi itself prints 32 letters when --directive comes alone
    sp.add_argument("-n", type=int)
    sp = sub.add_parser("F")
    sp.add_argument("x")
    sp.add_argument("--check", type=int)
    sp = sub.add_parser("verify")
    sp.add_argument("seq")
    sp.add_argument("bound")
    osub = sub.add_parser("oracle").add_subparsers(dest="oracle_command",
                                                   required=True)
    op = osub.add_parser("phi")
    op.add_argument("seq")
    op.add_argument("--max-period", type=int, default=8)
    args = vars(parser.parse_args(argv))
    if "oracle_command" in args:
        args["command"] += " " + args.pop("oracle_command")
    return args


def _spellings(head, positionals, options):
    """The argv with its options after and before the positionals, each
    written NAME VALUE and NAME=VALUE; a flag's value is None."""
    spaced = [t for name, value in options
              for t in ((name,) if value is None else (name, value))]
    joined = [name if value is None else f"{name}={value}"
              for name, value in options]
    argvs = [head + positionals + spaced, head + spaced + positionals,
             head + positionals + joined, head + joined + positionals]
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


BUDGET_X = "354224848179261915075/927372692193078999176"
VALID = [argv for case in [
    # the README examples
    (["pal"], ["011"], []),
    (["closure"], ["011"], []),
    (["central-check"], ["010010"], []),
    (["central-make"], ["2/5"], []),
    (["mech"], [], [("--alpha", "2/5"), ("--rho", "0"), ("-n", "10")]),
    (["sturmian-prefix"], [], [("--directive", "(01)"), ("-n", "28")]),
    (["classify"], ["(01001)"], []),
    (["phi"], ["(1100)"], [("--check", "8")]),
    (["phi"], [], [("--directive", "(01)")]),
    (["phi-prefix"], ["010010011"], []),
    (["F"], ["2/5"], [("--check", "10")]),
    (["verify"], ["(1100)", "(110)"], []),
    (["oracle", "phi"], ["(1100)"], [("--max-period", "6")]),
    # the shapes of the benchmark's CLI calls, refusals included
    (["F"], ["4/11"], []),
    (["--emit", "json", "F"], ["4/11"], []),
    (["--emit=json", "phi"], ["0(1101)"], [("--check", "8")]),
    (["phi"], ["01(10100)"], []),
    (["phi"], [], [("--directive", "1(0110)"), ("-n", "30")]),
    (["phi-prefix"], ["0100100"], []),
    (["phi-prefix"], [""], []),
    (["central-make"], ["5/13"], []),
    (["classify"], ["0(10100)"], []),
    (["verify"], ["0(1101)", "(10)"], []),
    (["mech"], [], [("--alpha", "3/7"), ("-n", "30")]),
    (["mech"], [], [("--alpha", "2/5"), ("--rho", "2/5"), ("--upper", None),
                    ("-n", "5")]),
    (["sturmian-prefix"], [], [("--directive", "0(01)"), ("-n", "100")]),
    (["pal"], ["01001"], []),
    (["F"], ["3/2"], []),
    (["phi"], ["01(10"], []),
    (["phi"], ["0(1)1"], []),
    (["F"], ["1_000/3001"], []),
    (["F"], ["\u0661/\u0663"], []),
    (["F"], [" 1/3 "], []),
    (["F"], [BUDGET_X], []),
    # negative values, and values int() reads
    (["F"], ["-1/3"], []),
    (["F"], ["1/3"], [("--check", "-3")]),
    (["mech"], [], [("--alpha", "2/5"), ("--rho", "-1/3"), ("-n", "6")]),
    (["mech"], [], [("--alpha", "-2/5"), ("-n", "-1")]),
] for argv in _spellings(*case)]

MALFORMED = [
    [], ["--emit", "json"], ["frob"], ["pal"], ["pal", "011", "10"],
    ["verify", "(1100)"], ["phi", "(01)", "(10)"], ["F", "1/3", "--frob", "1"],
    ["--frob", "F", "1/3"], ["F", "1/3", "--check"], ["--emit"],
    ["mech", "--alpha", "2/5", "-n", "x"], ["mech", "--alpha", "2/5", "-n"],
    ["--emit", "xml", "F", "1/3"], ["F", "1/3", "--emit", "json"],
    ["oracle", "foo", "(01)"], ["oracle"], ["oracle", "phi"],
    ["mech", "-n", "4"], ["mech", "--alpha", "2/5"],
    ["mech", "--alpha", "2/5", "-n", "4", "--upper=yes"],
    ["sturmian-prefix", "-n", "4"],
]

# Spellings that argparse accepted and the table's parser refuses: long
# option abbreviations, an option's value attached to its short name, "--"
# before the positionals, and integers outside -?[0-9]+ that int() reads
# (a sign, "_" separators, spaces, non-ASCII digits).
REFUSED_NOW = [
    ["phi", "--dir", "(01)"], ["--em", "json", "F", "1/3"],
    ["mech", "--alpha", "2/5", "--up", "-n", "3"],
    ["mech", "--alpha", "2/5", "-n5"], ["F", "--", "1/3"],
    ["sturmian-prefix", "--directive", "(01)", "-n", "+7"],
    ["sturmian-prefix", "--directive", "(01)", "-n", "1_0"],
    ["sturmian-prefix", "--directive", "(01)", "-n", " \u0661\u0662 "],
    ["F", "1/3", "--check", "\u0668"],
]


@pytest.mark.parametrize("argv", VALID, ids=map(repr, VALID))
def test_parser_matches_argparse_on_valid_input(capsys, monkeypatch, argv):
    assert cli.parse(argv) == reference_parse(argv)
    ours = invoke(capsys, *argv)
    monkeypatch.setattr(cli, "parse", reference_parse)
    assert invoke(capsys, *argv) == ours


@pytest.mark.parametrize("argv", MALFORMED, ids=map(repr, MALFORMED))
def test_parser_refuses_what_argparse_refused(capsys, monkeypatch, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error: ")
    monkeypatch.setattr(cli, "parse", reference_parse)
    assert invoke(capsys, *argv)[:2] == (1, "")


@pytest.mark.parametrize("argv", REFUSED_NOW, ids=map(repr, REFUSED_NOW))
def test_argparse_spellings_now_refused(capsys, argv):
    reference_parse(argv)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error: ")


def test_help_names_every_command(capsys):
    for argv in (["-h"], ["--help"], ["--emit", "json", "-h"], ["oracle", "-h"]):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert all(f"  {name}" in out for name in cli.COMMANDS)


def test_command_help_lists_its_options(capsys):
    code, out, err = invoke(capsys, "mech", "-h")
    assert (code, err) == (0, "")
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("  ")]
    assert listed == ["--alpha", "--rho", "--upper", "-n"]


# fractions brings decimal; only commands that build a Fraction load it
_NO_FRACTIONS = ("fractions", "decimal", "lexworld.cf")
_NO_MECHANICAL = (*_NO_FRACTIONS, "lexworld.mechanical")


@pytest.mark.parametrize("argv,unused", [
    (["F", "1/3"], ("lexworld.cf", "lexworld.mechanical")),
    (["pal", "011"], ("lexworld.lexmap", *_NO_MECHANICAL)),
    (["mech", "--alpha", "2/5", "-n", "4"], ("lexworld.lexmap",)),
    (["closure", "011"], _NO_FRACTIONS),
    (["central-check", "010010"], _NO_FRACTIONS),
    (["phi", "0(1101)"], _NO_MECHANICAL),
    (["classify", "0(1101)"], _NO_MECHANICAL),
    (["verify", "(1100)", "(10)"], _NO_MECHANICAL),
    (["phi-prefix", "0100101"], _NO_MECHANICAL),
    (["phi", "--directive", "(01)", "-n", "8"], ("fractions", "lexworld.cf")),
    (["central-make", "5/13"], ("lexworld.cf", "lexworld.lexmap",
                                "lexworld.mechanical")),
], ids=["F", "pal", "mech", "closure", "central-check", "phi", "classify",
        "verify", "phi-prefix", "phi-directive", "central-make"])
def test_import_loads_neither_dataclasses_nor_inspect(argv, unused):
    # Every CLI call pays for the import, and these modules (with the ast,
    # dis and tokenize modules that inspect pulls in) are slow to load; the
    # oracle serves only --check and the oracle command, and each command
    # imports only the modules it runs.  -S keeps the interpreter's site
    # hooks out of the checked set.
    import lexworld
    src = os.path.dirname(os.path.dirname(lexworld.__file__))
    banned = {"argparse", "dataclasses", "inspect", "lexworld.oracle", *unused}
    code = (f"import sys, lexworld.cli; lexworld.cli.run({argv!r}); "
            f"print(sorted({banned!r} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_oracle_phi_loads_only_the_search():
    # the brute-force search compares Seqs and nothing else of the library
    import lexworld
    src = os.path.dirname(os.path.dirname(lexworld.__file__))
    code = ("import sys, lexworld.cli; "
            "lexworld.cli.run(['oracle', 'phi', '(1100)']); "
            "print(sorted(m for m in sys.modules if 'lexworld' in m "
            "or m in ('fractions', 'decimal')))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([
        "lexworld", "lexworld.cli", "lexworld.errors", "lexworld.oracle",
        "lexworld.words"])


def test_first_library_calls_leave_cf_unloaded():
    # `import lexworld` and one call of each of phi_zero_u, phi,
    # phi_prefix, F, central_from_slope and phi_sturmian: the continued
    # fraction module is never compiled on the way, as central_from_slope
    # reads its directive off Euclid's algorithm itself.
    import lexworld
    src = os.path.dirname(os.path.dirname(lexworld.__file__))
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "import lexworld as lw\n"
            "lw.phi_zero_u(lw.Seq('', '010010011'))\n"
            "lw.phi(lw.Seq('0', '1100'))\n"
            "lw.phi_prefix('010010101')\n"
            "lw.F(Fraction(2, 5))\n"
            "lw.central_from_slope(5, 13)\n"
            "lw.phi_sturmian(lw.Seq('', '01')).phi_value_prefix(32)\n"
            "print('lexworld.cf' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lexworld", "F", "1/3", "--check", "8"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "F = 2/3" in proc.stdout
    # --check imports the oracle, which the start-up path leaves out
    assert "oracle_agrees = true" in proc.stdout
