"""The command-line interface: output shapes, determinism, exit codes."""

import contextlib
import functools
import gc
import importlib
import io
import itertools
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from pureoctic import cli
from pureoctic.cli import main, rational_parts

# stdout of `pureoctic ARGV`, pinned byte for byte; regenerate a file with
# `python -m pureoctic ARGV > tests/golden/NAME` only for an intended change
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = [
    (("lattice", "3"), "lattice_3.txt"),
    (("lattice", "3", "--format", "json"), "lattice_3.json"),
    (("lattice", "3", "--format", "dot"), "lattice_3.dot"),
    (("lattice", "5/3"), "lattice_5_3.txt"),
    (("lattice", "5/3", "--format", "json"), "lattice_5_3.json"),
    (("lattice", "5/3", "--format", "dot"), "lattice_5_3.dot"),
    (("lattice", "12"), "lattice_12.txt"),
    (("lattice", "12", "--format", "json"), "lattice_12.json"),
    (("lattice", "12", "--format", "dot"), "lattice_12.dot"),
    (("lattice", "3/4", "--format", "json"), "lattice_3_4.json"),
    # 990051 = 3 * 330017: k with a six-digit prime factor
    (("lattice", "990051", "--format", "json"), "lattice_990051.json"),
    # a benchmark-shaped k: a denominator and a prime factor near 3e5
    (("lattice", "1618980/289", "--format", "json"), "lattice_1618980_289.json"),
    (("witt-verify", "3"), "witt_verify_3.txt"),
    (("witt-verify", "3", "--format", "json"), "witt_verify_3.json"),
    # a fractional rho, and the k of the lattice goldens above
    (("witt-verify", "5/3"), "witt_verify_5_3.txt"),
    (("witt-verify", "5/3", "--format", "json"), "witt_verify_5_3.json"),
    (("witt-verify", "12"), "witt_verify_12.txt"),
    (("witt-verify", "3/4", "--format", "json"), "witt_verify_3_4.json"),
    (("witt-verify", "990051", "--format", "json"), "witt_verify_990051.json"),
    (("witt-verify", "27175/54", "--format", "json"), "witt_verify_27175_54.json"),
]
# one value per oracle outcome: K8, D16, QD16, Pauli, B32; then a B32 c with
# denominator 3^8 * 5^2, whose bad primes divide both its numerator and its
# denominator
ORACLE_VALUES = ["16", "2", "-2", "9", "3", "-6826150911957955064/164025"]
for _c in ORACLE_VALUES:
    _name = "oracle_" + _c.replace("-", "m").replace("/", "_")
    GOLDEN_CASES += [
        (("oracle", _c, "--primes", "20000"), f"{_name}.txt"),
        (("oracle", _c, "--primes", "20000", "--format", "json"), f"{_name}.json"),
    ]
# the acceptance-1 vector, then values with a fractional d or k
CLASSIFY_VALUES = ["9", "25", "36", "16", "2", "-2", "3", "4", "-1", "64",
                   "81/16", "2/9", "9/4"]
for _c in CLASSIFY_VALUES:
    _name = "classify_" + _c.replace("-", "m").replace("/", "_")
    GOLDEN_CASES += [(("classify", _c), f"{_name}.txt"),
                     (("classify", _c, "--format", "json"), f"{_name}.json")]
# small, typical and large coldbench-sized triples for `embed --compare` and
# `sl-search`, in text and JSON
EMBED_TRIPLES = [(("2", "3", "-2"), "2_3_m2"),
                 (("-1187/7", "-34119", "2176"), "m1187_7_m34119_2176"),
                 (("66", "77650", "66536/9"), "66_77650_66536_9")]
for _triple, _name in EMBED_TRIPLES:
    for _fmt, _ext in (((), "txt"), (("--format", "json"), "json")):
        GOLDEN_CASES += [
            (("embed", *_triple, "--compare", *_fmt), f"embed_compare_{_name}.{_ext}"),
            (("sl-search", *_triple, *_fmt), f"sl_search_{_name}.{_ext}"),
        ]
# every name `group-identify` accepts, in the order of its choices list
GROUP_NAMES = ["B32", "C16", "C2^2:C4", "C4:C4", "C4xC2xC2", "C4xC4", "C8xC2",
               "D16", "D8", "D8xC2", "E16", "K8", "M4(2)", "Pauli", "Q16", "Q8",
               "Q8xC2", "QD16", "d8", "hol-c8", "pauli-affine", "pauli-matrices", "q8"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, **kwargs):
    """A fresh interpreter with the package sources first on its path."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    kwargs.setdefault("text", True)
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def test_classify_pauli(capsys):
    code, out, _ = run(capsys, "classify", "9")
    assert code == 0
    assert "Pauli" in out and "order 16" in out and "degree 16" in out
    assert "k = 3" in out


def test_classify_reducible(capsys):
    code, out, _ = run(capsys, "classify", "4")
    assert code == 0
    assert "Reducible" in out and "lambda = 1" in out


def test_classify_b32(capsys):
    code, out, _ = run(capsys, "classify", "3")
    assert code == 0
    assert "B32" in out and "Hol(C8)" in out


def test_classify_negative_fraction_argument(capsys):
    code, out, _ = run(capsys, "classify", "-2/9")
    assert code == 0
    assert "QD16" in out  # -2/9 = -2 * (1/3)^2


@pytest.mark.parametrize("argv", [("classify", "-1_000"), ("classify", "-1_2/3_0"),
                                  ("embed", "-1_0", "3", "5")])
def test_negative_underscored_literals_parse(capsys, argv):
    # a negative literal with underscore groups is a positional, as after --
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert (code, out) == run(capsys, argv[0], "--", *argv[1:])[:2]


def test_malformed_negative_literal_is_not_a_positional(capsys):
    # a doubled underscore is no literal: argparse reads an option and no c
    with pytest.raises(SystemExit) as exc:
        main(["classify", "-1__0"])
    assert exc.value.code == 2
    assert "required: c" in capsys.readouterr().err


def test_rational_parts():
    assert rational_parts("-3/4") == (-3, 4)
    assert rational_parts("17") == (17, 1)
    with pytest.raises(ValueError):
        rational_parts("x")
    with pytest.raises(ValueError):
        rational_parts("1/0")
    for literal in ("1e3", "0.5", "1."):
        with pytest.raises(ValueError):
            rational_parts(literal)
    assert rational_parts("1_000") == (1000, 1)
    assert rational_parts("-1_2/3_0") == (-2, 5)
    for literal in ("1__0", "_1"):
        with pytest.raises(ValueError, match="not a rational number"):
            rational_parts(literal)


def test_classify_invalid(capsys):
    code, _, err = run(capsys, "classify", "0")
    assert code == 2 and "nonzero" in err
    code, _, err = run(capsys, "classify", "zebra")
    assert code == 2


def test_classify_rejects_decimal_literals(capsys):
    for literal in ("1e3", "0.5", "1."):
        code, out, err = run(capsys, "classify", literal)
        assert code == 2 and not out and "not a rational number" in err


def test_classify_huge_height(capsys):
    code, out, _ = run(capsys, "classify", str(10 ** 400 + 1))
    assert code == 0
    assert "B32" in out


def test_classify_json_deterministic(capsys):
    code, out1, _ = run(capsys, "classify", "9", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "classify", "9", "--format", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["tag"] == "Pauli"
    assert payload["splitting_degree"] == 16


def test_classify_fractional_square_witness(capsys):
    code, out, _ = run(capsys, "classify", "-9/4")
    assert code == 0
    assert "irreducible: no (-c = (3/2)^2 is a square)\n" in out
    assert "branch: -c = (3/2)^2 is a square (criterion a)\n" in out


@pytest.mark.parametrize("argv, err", [
    (("lattice", "9/4"),
     "error: k = 9/4 is a rational square ((3/2)^2)\n"),
    (("lattice", "9/2"),
     "error: k = 9/2 is twice a rational square (2*(3/2)^2)\n"),
    (("witt-verify", "9/2"),
     "error: k = 9/2 is twice a rational square (2*(3/2)^2)\n"),
    # an integer witness prints without parentheses
    (("lattice", "8"),
     "error: k = 8 is twice a rational square (2*2^2)\n"),
    # both subcommands word a nonpositive k alike
    (("lattice", "-3"), "error: k must be positive\n"),
    (("lattice", "0"), "error: k must be positive\n"),
    (("witt-verify", "-3"), "error: k must be positive\n"),
])
def test_pauli_violation_witness(capsys, argv, err):
    code, out, got = run(capsys, *argv)
    assert (code, out, got) == (2, "", err)


# k = 3 * 2^7150 has 2153 digits and factors at once, but k^2 has more
# digits than the interpreter converts to a string; a 4400-digit literal is
# past the same limit on input
_HUGE_K = str(3 * 2 ** 7150)


@pytest.mark.parametrize("argv, code", [
    (("lattice", _HUGE_K), 2),
    (("lattice", _HUGE_K, "--format", "json"), 2),
    (("witt-verify", _HUGE_K), 2),
    (("witt-verify", _HUGE_K, "--format", "json"), 2),
    (("lattice", _HUGE_K, "--format", "dot"), 0),
    (("classify", "7" * 4400), 2),
], ids=["lattice", "lattice-json", "witt-verify", "witt-verify-json", "lattice-dot",
        "classify-4400-digits"])
def test_unprintable_output_exits_2(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 2:
        # the digit limit is named, not the interpreter's advice to call Python
        assert out == "" and err.startswith("error: ")
        assert "digit limit" in err and "sys." not in err
    else:
        assert out.startswith("digraph") and err == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lattice_unprintable_square_fails_before_factoring(capsys, monkeypatch, fmt):
    # a 2200-digit k reads, but its 4400-digit square cannot be printed: the
    # request is refused before the field is built and k factored
    from pureoctic import arith

    def refuse(n):
        raise AssertionError("k was factored")

    monkeypatch.setattr(arith, "factor", refuse)
    code, out, err = run(capsys, "lattice", "7" * 2200, "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("error: a number exceeds the digit limit")


def _odd_primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    for i in range(3, math.isqrt(n) + 1, 2):
        if sieve[i]:
            sieve[i * i::2 * i] = bytes(len(range(i * i, n, 2 * i)))
    return [i for i in range(3, n, 2) if sieve[i]]


# many small primes in the literals of `embed` and `sl-search`: A, B and C
# are products of consecutive odd primes from 3 up, each just under 4250
# digits, and a, b, c split the odd primes below 11,000 into three runs.
# Each literal factors at once; the pair words, read straight off the
# representatives, keep the rest of the request within seconds (a table of
# symbols per place cost 40 s for `sl-search A B C` and 4.7 s for
# `embed A 3 5`, and 6.6 s before `embed a b c` reached the digit limit)
_SIEVED = _odd_primes_below(30000)
_A, _B, _C = (str(math.prod(_SIEVED[i:j])) for i, j in ((0, 1215), (1215, 2236), (2236, 3204)))
_a, _b, _c = (str(math.prod(_SIEVED[i:j])) for i, j in ((0, 444), (444, 888), (888, 1334)))


@pytest.mark.parametrize("argv, golden", [
    (("sl-search", _A, _B, _C), "sl_search_sieve_A_B_C.txt"),
    (("embed", _A, "3", "5"), "embed_sieve_A_3_5.txt"),
], ids=["sl-search-A-B-C", "embed-A-3-5"])
def test_many_small_primes_keep_their_output_in_seconds(capsys, argv, golden):
    assert [len(x) for x in (_A, _B, _C)] == [4246, 4249, 4248]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 3
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_many_small_primes_reach_the_digit_limit_in_seconds(capsys):
    assert _SIEVED[1333] < 11000 < _SIEVED[1334]
    start = time.perf_counter()
    code, out, err = run(capsys, "embed", _a, _b, _c)
    assert time.perf_counter() - start < 3
    assert (code, out) == (2, "")
    assert err.startswith("error: a number exceeds the digit limit")


def test_classify_takes_each_root_once(capsys, monkeypatch):
    from pureoctic import arith

    # two irreducibility clauses, then one root per K8/D16/QD16/Pauli branch
    calls = []
    nth_root = arith.nth_root

    def counting(q, n):
        calls.append((q, n))
        return nth_root(q, n)

    monkeypatch.setattr(arith, "nth_root", counting)
    code, out, _ = run(capsys, "classify", "3")
    assert code == 0 and "B32" in out
    assert len(calls) == len(set(calls)) == 6


def test_lattice_text(capsys):
    code, out, _ = run(capsys, "lattice", "3")
    assert code == 0
    assert "21 proper nontrivial" in out
    assert out.count("[order") == 23
    assert "Q(sqrt(-2))" in out and "Q(a)" in out


def test_lattice_rejects_bad_k(capsys):
    code, _, err = run(capsys, "lattice", "4")
    assert code == 2 and "square" in err
    code, _, err = run(capsys, "lattice", "8")
    assert code == 2 and "twice" in err


def test_lattice_dot(capsys):
    code, out, _ = run(capsys, "lattice", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("label=") == 23
    code, out2, _ = run(capsys, "lattice", "3", "--format", "dot")
    assert out == out2  # byte-for-byte deterministic


def test_lattice_json(capsys):
    code, out, _ = run(capsys, "lattice", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["subgroup_count"] == 23


@pytest.mark.parametrize("argv, golden", GOLDEN_CASES,
                         ids=[name for _, name in GOLDEN_CASES])
def test_golden_output(capsys, argv, golden):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


# the request shapes the benchmark sends
COLDBENCH_ARGV = [
    ("classify", "9", "--format", "json"),
    ("lattice", "3", "--format", "json"),
    ("witt-verify", "3", "--format", "json"),
    ("embed", "2", "3", "-2", "--compare", "--format", "json"),
    ("sl-search", "2", "3", "-2", "--format", "json"),
    ("oracle", "9", "--primes", "20000", "--format", "json"),
    ("group-identify", "QD16"),
]


@pytest.mark.parametrize("argv", [argv for argv, _ in GOLDEN_CASES] + COLDBENCH_ARGV,
                         ids=" ".join)
def test_well_formed_requests_skip_argparse(argv):
    # every golden request and every benchmark request is canonical, so it is
    # parsed without argparse, into the namespace argparse would give it
    args = cli.parse_canonical(list(argv))
    assert args is not None
    assert vars(args) == vars(cli.build_parser().parse_args(list(argv)))


def _argparse_quotes_choices() -> bool:
    # whether argparse lists the choices of an invalid-choice message by repr,
    # as up to 3.13.0 does; a later patch release (3.13.13 among them) lists
    # them by str
    import argparse
    parser = argparse.ArgumentParser(prog="probe", exit_on_error=False)
    parser.add_argument("x", choices=["a"])
    with pytest.raises(argparse.ArgumentError) as exc:
        parser.parse_args(["b"])
    return "'a'" in str(exc.value)


def _argparse_golden(name: str) -> bytes:
    """The golden `name` as this Python's argparse words it.  From 3.13 the
    top-level usage line keeps `...` beside the choices, so the four goldens
    that print it have a copy recorded verbatim from 3.13.0 in `py313/`; an
    argparse that lists choices by str prints the same choices unquoted."""
    path = GOLDEN / "py313" / name
    if sys.version_info < (3, 13) or not path.exists():
        path = GOLDEN / name
    text = path.read_bytes()
    if _argparse_quotes_choices():
        return text
    return re.sub(rb"\(choose from [^)]*\)", lambda m: m.group().replace(b"'", b""), text)


@pytest.mark.parametrize("argv, golden", [((), "help.txt"),
                                          (("oracle",), "help_oracle.txt")])
def test_help_golden(capsys, monkeypatch, argv, golden):
    # argparse wraps help text to $COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.encode() == _argparse_golden(golden)


@pytest.mark.parametrize("argv, golden", [
    ((), "usage_no_command.err"),
    (("nope",), "usage_unknown_command.err"),
    (("embed", "1", "2", "3", "extra"), "usage_embed_extra_argument.err"),
    (("lattice",), "usage_lattice_missing_k.err"),
], ids=["no-command", "unknown-command", "extra-argument", "missing-argument"])
def test_usage_error_golden(capsys, monkeypatch, argv, golden):
    # the top-level usage line and the argument names argparse puts in each
    # message, whichever subparsers `main` builds
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode() == _argparse_golden(golden)


@pytest.mark.parametrize("argv", [
    *([name, flag] for name in cli._SUBCOMMANDS for flag in ("--help", "-h")),
    *([name, "--format", "xml"] for name in cli._SUBCOMMANDS),
    *([name, "1", "2", "3", "4"] for name in cli._SUBCOMMANDS),
    ["--help"], [], ["nope"], ["--format", "json", "lattice", "3"],
], ids=" ".join)
def test_parser_of_the_named_subcommands_writes_what_the_full_parser_writes(
        capsys, monkeypatch, argv):
    # `main` builds only the subparsers that argv names; the full parser
    # gives the same bytes and exit code for each help and usage error
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = []
    for parser in (cli.build_parser(argv), cli.build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        outcomes.append((exc.value.code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, capsys.readouterr()) == outcomes[1]


def test_request_paths_identify_no_group(capsys, monkeypatch):
    # the group models are proved in the tests; a request only uses them
    from pureoctic import groups, oracle

    def refuse(*_):
        raise AssertionError("a request path identified a group")

    oracle.stock_models.cache_clear()
    monkeypatch.setattr(groups, "identify", refuse)
    monkeypatch.setattr(groups, "fingerprint", refuse)
    for argv, golden in [(("oracle", "9", "--primes", "20000"), "oracle_9.txt"),
                         (("lattice", "3"), "lattice_3.txt"),
                         (("witt-verify", "3"), "witt_verify_3.txt")]:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()


def _traced_cli():
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "coldbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def _traced_callables():
    """(module, attribute path, callable) for every entry of the benchmark's
    traced_cli.TRACED, the callable read as its `install` reads it."""
    for module, attr_path, _ in _traced_cli().TRACED:
        owner = importlib.import_module(f"pureoctic.{module}")
        *cls_path, attr = attr_path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        yield module, attr_path, owner.__dict__.get(attr)


def test_coldbench_traced_names_resolve():
    # coldbench/traced_cli.py wraps these package attributes by name and
    # reads cache_info() off the cached ones; a name that is gone would crash
    # the benchmark's traced requests
    import inspect

    for module, attr_path, fn in _traced_callables():
        assert fn is not None and inspect.isfunction(inspect.unwrap(fn)), \
            (module, attr_path)
    for module, attr in _traced_cli().CACHED:
        fn = getattr(importlib.import_module(f"pureoctic.{module}"), attr)
        assert hasattr(fn, "cache_info"), (module, attr)


def test_coldbench_traced_names_live_where_they_are_traced():
    # a span named module.attr counts the work of code defined in that
    # module, not of a re-export of another module's function
    import inspect

    for module, attr_path, fn in _traced_callables():
        assert inspect.unwrap(fn).__module__ == f"pureoctic.{module}", \
            (module, attr_path)


# every subcommand in each of its formats and one error path each, with an
# `embed` value whose square class needs rho (1000003 * 1000033), and the
# exit code of each
COVERAGE_ARGV = [
    (("--help",), 0),
    ((), 2),
    (("classify", "9"), 0),
    (("classify", "9", "--format", "json"), 0),
    (("classify", "0"), 2),
    (("lattice", "3"), 0),
    (("lattice", "3", "--format", "json"), 0),
    (("lattice", "3", "--format", "dot"), 0),
    (("lattice", "2"), 2),
    (("witt-verify", "3"), 0),
    (("witt-verify", "3", "--format", "json"), 0),
    (("witt-verify", "2"), 2),
    (("embed", "2", "3", "-2", "--compare"), 0),
    (("embed", "2", "3", "-2", "--compare", "--format", "json"), 0),
    (("embed", "1000036000099", "3", "5"), 0),
    (("embed", "2", "3", "6"), 2),
    (("sl-search", "2", "3", "-2"), 0),
    (("sl-search", "2", "3", "-2", "--format", "json"), 0),
    (("sl-search", "1", "2", "3"), 2),
    (("oracle", "9", "--primes", "5000"), 0),
    (("oracle", "9", "--primes", "5000", "--format", "json"), 0),
    (("oracle", "9", "--primes", "5000", "--tolerance", "1/1000"), 1),
    (("oracle", "4"), 2),
    (("group-identify", "QD16"), 0),
    (("group-identify", "QD16", "--format", "json"), 0),
    (("group-identify", "--gens", "1 2 3 0; 3 2 1 0"), 0),
    (("group-identify", "--gens", "1 2 0"), 0),
    (("group-identify", "--gens", "1 0 2 3; 1 2 3 0"), 2),
    (("group-identify", "nope"), 2),
]

TRACED, ACCEPTANCE, IMPORT = "coldbench TRACED", "tests/test_acceptance.py", "module import"

# the functions that neither a module's import nor a request of COVERAGE_ARGV
# enters, each with what holds it: an entry of coldbench's traced_cli.TRACED,
# a call in tests/test_acceptance.py, or its module's own code, run by
# `python -m pureoctic`; "via f" holds a function that only f calls
NOT_ENTERED = {
    "__main__.run": (IMPORT,),
    "cli.exit_code": (f"{IMPORT} via __main__.run",),
    "groups.FinGroup.__len__": (ACCEPTANCE,),
    "groups.Perm.__call__": (f"{ACCEPTANCE} via reference.affine_pair",),
    "groups.order16_stock_models": (TRACED, ACCEPTANCE),
    "groups.pauli_matrix_group": (ACCEPTANCE,),
    "linalg.in_span": (TRACED, ACCEPTANCE),
    "linalg.nullspace": (TRACED,),
    "linalg.rank": (f"{ACCEPTANCE} via linalg.in_span",),
    "linalg.rref": (TRACED,),
    "oracle.factor_mod_p": (TRACED,),
    "oracle.group_cycle_types": (ACCEPTANCE,),
    "oracle.stock_models": (TRACED, ACCEPTANCE),
    "qforms.Place._unchecked": (f"{ACCEPTANCE} via qforms.relevant_places",),
    "qforms.Place.is_real": (f"{ACCEPTANCE} via qforms.hilbert",),
    "qforms._square_class_int": (f"{ACCEPTANCE} via qforms.hilbert",),
    "qforms.hilbert": (TRACED, ACCEPTANCE),
    "qforms.pauli_embeddable": (ACCEPTANCE,),
    "qforms.relevant_places": (TRACED, ACCEPTANCE),
    "splitting.FieldElt.coeffs": (ACCEPTANCE,),
    "splitting.FieldElt.inverse": (TRACED,),
    "splitting.FieldElt.is_rational": (f"{TRACED} via splitting.FieldElt.inverse",),
    "splitting.SplittingField._labels":
        (f"{ACCEPTANCE} via splitting.SplittingField.fixed_field",),
    "splitting.SplittingField.fixed_field": (TRACED, ACCEPTANCE),
    "splitting.SplittingField.lattice_report": (TRACED, ACCEPTANCE),
    "splitting.SplittingField.orbit": (TRACED,),
}


# run in a fresh interpreter, so that no cache an earlier test filled hides
# a function's body: one profile records every function entered while each
# module of the package is imported and then while `main` serves each argv of
# argv[1]; prints the exit codes and the functions never entered, as JSON.
# A function is keyed by its file, first line and name, and its dotted name
# is built by walking the nested code objects, as `co_qualname` (Python
# 3.11) would give it: a class body adds its name, a function adds <locals>
_PROFILED_REQUESTS = """
import contextlib, importlib, inspect, json, os, pkgutil, sys
def key(code):
    return code.co_filename, code.co_firstlineno, code.co_name
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add(key(frame.f_code))
sys.setprofile(profile)
import pureoctic
modules = [importlib.import_module("pureoctic." + info.name)
           for info in pkgutil.iter_modules(pureoctic.__path__)]
from pureoctic.cli import main
codes = []
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for argv in json.loads(sys.argv[1]):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
def functions(code, prefix):
    # every def: lambdas, comprehensions and class bodies are not counted
    for const in code.co_consts:
        if inspect.iscode(const):
            qualname = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:
                if const.co_name[0] != "<":
                    yield key(const), qualname
                yield from functions(const, qualname + ".<locals>.")
            else:
                yield from functions(const, qualname + ".")
defined = {}
for module in modules:
    with open(module.__file__) as f:
        code = compile(f.read(), module.__file__, "exec")
    defined.update(functions(code, module.__name__.partition(".")[2] + "."))
print(json.dumps([codes, sorted(defined[k] for k in defined.keys() - entered)]))
"""


def _source_of(name):
    """The source of a package function or a `reference` helper, by name."""
    import inspect

    import reference
    first, *path = name.split(".")
    obj = reference if first == "reference" else importlib.import_module(f"pureoctic.{first}")
    for part in path:
        obj = getattr(obj, part)
    return inspect.getsource(obj)


def test_every_function_is_entered_or_held():
    proc = run_python("-c", _PROFILED_REQUESTS,
                      json.dumps([list(argv) for argv, _ in COVERAGE_ARGV]))
    assert proc.returncode == 0, proc.stderr
    codes, not_entered = json.loads(proc.stdout)
    assert codes == [code for _, code in COVERAGE_ARGV]
    assert sorted(set(not_entered) - NOT_ENTERED.keys()) == [], "held by nothing"
    assert sorted(NOT_ENTERED.keys() - set(not_entered)) == [], \
        "gone, or a request enters it"
    # each holder holds: a TRACED name is traced, and a name the acceptance
    # tests, a module body or a "via" function calls occurs in its source;
    # a dunder method is reached by syntax, not by name
    traced = {f"{module}.{attr}" for module, attr, _ in _traced_cli().TRACED}
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()
    for name, holders in NOT_ENTERED.items():
        module, _, qualname = name.partition(".")
        short = qualname.rpartition(".")[2]
        for holder in holders:
            kind, _, via = holder.partition(" via ")
            if via:
                assert via in acceptance if via.startswith("reference.") else any(
                    h.partition(" via ")[0] == kind for h in NOT_ENTERED[via]), holder
                text = _source_of(via)
            elif kind == TRACED:
                assert name in traced, name
                continue
            elif kind == ACCEPTANCE:
                text = acceptance
            else:
                assert kind == IMPORT, holder
                # the module's own code, the function's definition left out
                text = _source_of(module).replace(_source_of(name), "")
            assert short.startswith("__") or short in text, (name, holder)


def test_witt_verify(capsys):
    code, out, _ = run(capsys, "witt-verify", "3")
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out
    code, out, _ = run(capsys, "witt-verify", "5")
    assert code == 0
    code, _, err = run(capsys, "witt-verify", "4")
    assert code == 2


def test_witt_verify_checks_pauli_and_builds_T_once(capsys, monkeypatch):
    from pureoctic import lattice, splitting

    calls = []
    for module, name in ((lattice, "pauli_condition_violation"),
                         (splitting, "witt_T")):
        def counting(*args, _fn=getattr(module, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(module, name, counting)
    code, out, _ = run(capsys, "witt-verify", "3")
    assert code == 0 and "FAIL" not in out
    assert sorted(calls) == ["pauli_condition_violation", "witt_T"]


def test_embed(capsys):
    code, out, _ = run(capsys, "embed", "-1", "3", "-2")
    assert code == 0
    assert "(15) [a,b,ab] ~ [1,c,c]: HOLDS" in out
    code, out, _ = run(capsys, "embed", "2", "3", "-2")
    assert code == 0
    assert "(15) [a,b,ab] ~ [1,c,c]: fails" in out
    assert "rewritten triplets" in out and "(-1, 3, -2)" in out
    code, _, err = run(capsys, "embed", "1", "2", "3")
    assert code == 2 and "independent" in err


def test_embed_compare(capsys):
    code, out, _ = run(capsys, "embed", "-1", "3", "-2", "--compare")
    assert code == 0
    assert "agreement of (14) and (15)" in out


def test_embed_compare_prints_a_disagreement(monkeypatch, capsys):
    # (14) and (15) agree on every triplet (Hasse-Minkowski), so no golden
    # reaches the DISAGREE row: negate (14) on one S_L triplet of the
    # (2, 3, -2) golden, which is not (a, b, c) itself, and expect that
    # golden with one row and one agreement changed
    from pureoctic import qforms

    brauer_condition = qforms.ClassSpace.brauer_condition

    def one_wrong(space, x, y, z):
        holds = brauer_condition(space, x, y, z)
        if tuple(map(space.representative, (x, y, z))) == (-1, 3, -2):
            return not holds
        return holds

    monkeypatch.setattr(qforms.ClassSpace, "brauer_condition", one_wrong)
    code, out, _ = run(capsys, "embed", "2", "3", "-2", "--compare")
    assert code == 0
    golden = (GOLDEN / "embed_compare_2_3_m2.txt").read_text()
    assert out == golden.replace(
        "S_L: 168/168\n  no disagreements\n",
        "S_L: 167/168\n  DISAGREE at (u,v,x)=(-1,3,-2): (14)=False (15)=True\n")
    code, out, _ = run(capsys, "embed", "2", "3", "-2", "--compare", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["compare_agreements"], payload["compare_total"]) == (167, 168)


def test_sl_search(capsys):
    code, out, _ = run(capsys, "sl-search", "2", "3", "-2")
    assert code == 0
    assert "triplet" in out


@pytest.mark.parametrize("literals", [
    ("+4/6", "-10/4", "1_000/3"),
    ("-6/4", "+0_3", "-2_0/1_2"),
    ("-1187/7", "-34_119", "6_653_6/9"),
    ("2", "+3/1", "-14/7_0"),
], ids=" ".join)
def test_embed_and_sl_search_print_literals_as_fractions(capsys, literals):
    # `embed` and `sl-search` read each literal as the integer num*den of its
    # square class and print num/den as a Fraction does: non-reduced, signed
    # and underscored literals print exactly as `rational_parts` reads them,
    # and every decision is the one the Fractions themselves give
    from pureoctic import qforms
    values = [F(*rational_parts(x)) for x in literals]
    texts = [str(v) for v in values]
    for command, flags in (("embed", ("--compare",)), ("sl-search", ())):
        for fmt in ("text", "json"):
            result = run(capsys, command, *literals, *flags, "--format", fmt)
            assert result[0] == 0
            assert result == run(capsys, command, *texts, *flags, "--format", fmt)
    payload = json.loads(run(capsys, "embed", *literals, "--format", "json")[1])
    search = json.loads(run(capsys, "sl-search", *literals, "--format", "json")[1])
    assert [payload[k] for k in "abc"] == [search[k] for k in "abc"] == texts
    assert payload["witt_pairs"] == {
        f"({u}, {v})": qforms.witt_embeddable(u, v)
        for u, v in itertools.combinations(values, 2)}
    assert payload["pauli_embeddable_15"] == qforms.pauli_embeddable(*values)
    assert payload["sl_triplets"] == search["triplets"] == [
        list(t) for t in qforms.sl_search(*values)]
    out = run(capsys, "embed", *literals)[1]
    assert out.startswith(f"square classes of (a, b, c) = ({', '.join(texts)}):")


@pytest.mark.parametrize("argv", [("classify", "-3\n"), ("embed", "-3\n", "5", "7"),
                                  ("sl-search", "5", "-3/4\n", "7", "--format", "json"),
                                  ("classify", "9\n")],
                         ids=["classify", "embed", "sl-search", "unsigned"])
def test_a_literal_with_a_trailing_newline_reads_as_before(capsys, argv):
    # argparse's `.match` of a negative literal takes a trailing newline, and
    # the literal reader strips it; the strict parser's exact test leaves such
    # an argv to argparse, so the request prints what the stripped one prints
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == run(capsys, *(a.strip() for a in argv))
    assert code == 0 and out
    negative_with_newline = any(a.startswith("-") and a.endswith("\n") for a in argv)
    assert (cli.parse_canonical(list(argv)) is None) == negative_with_newline


@pytest.mark.parametrize("argv", [
    ("embed", "2", "3", "6", "--compare"),
    ("embed", "2", "3", "6", "--compare", "--format", "json"),
    ("sl-search", "2", "3", "6"),
    ("sl-search", "2", "3", "6", "--format", "json"),
])
def test_dependent_triple_golden(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.encode() == (GOLDEN / "embed_2_3_6.err").read_bytes()


@pytest.mark.parametrize("argv", [
    ("embed", "66", "77650", "66536/9", "--compare"),
    ("sl-search", "-1187/7", "-34119", "2176"),
])
def test_embed_factors_each_input_once(capsys, monkeypatch, argv):
    from fractions import Fraction

    from pureoctic import arith
    calls = []
    factor = arith.factor

    def counting(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(arith, "factor", counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    values = [Fraction(v) for v in argv[1:4]]
    nonunits = [n for q in values for n in (q.numerator, q.denominator) if abs(n) != 1]
    assert len(calls) <= len(nonunits)


@pytest.mark.parametrize("argv", [("embed", "10/21", "3", "5"), ("lattice", "10/21")],
                         ids=["embed", "lattice"])
def test_a_literal_is_factored_part_by_part(capsys, monkeypatch, argv):
    # the numerator and the denominator of a literal are factored apart,
    # under a budget each, and never as their product
    from pureoctic import arith
    calls = []
    factor = arith.factor

    def recording(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(arith, "factor", recording)
    assert run(capsys, *argv)[0] == 0
    assert {10, 21} <= set(calls) and 210 not in calls


# each part a product of two 13-digit primes: within a budget each, and
# beyond one budget for the 50-digit product
_TWO_BUDGETS = "4000000807808003140461863/4000003959588940703949709"


@pytest.mark.budget
@pytest.mark.parametrize("argv", [("lattice", _TWO_BUDGETS),
                                  ("embed", _TWO_BUDGETS, "3", "5")],
                         ids=["lattice", "embed"])
def test_each_part_of_a_literal_gets_its_own_budget(argv):
    proc = run_python("-m", "pureoctic", *argv, timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")


# inputs that once ran without bound in `arith.factor`
_BIG = str(10 ** 400 + 1)
_M = str((2 ** 61 - 1) * (2 ** 89 - 1))


@pytest.mark.budget
@pytest.mark.parametrize("argv", [
    ("lattice", _BIG),
    ("embed", _BIG, "3", "-2"),
    ("sl-search", _BIG, "3", "-2"),
    ("lattice", _M),
    ("embed", "3", "5", _M),
], ids=["lattice-10^400+1", "embed-10^400+1", "sl-search-10^400+1",
        "lattice-M61M89", "embed-M61M89"])
def test_unfactorable_input_exits_within_budget(argv):
    proc = run_python("-m", "pureoctic", *argv, timeout=5)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 2:
        assert proc.stderr.startswith("error: cannot factor")


# the failed-write matrix: a request of each class in a child whose stdout
# or stderr fails, against what the one write rule derives from the
# request's own output (`_expected`)
_USAGE = ("lattice",)
_INVALID = ("lattice", "-3")
_ORACLE_FAIL = ("oracle", "9", "--primes", "20000", "--tolerance", "1/1000")
_WRITE_CASES = {
    "classify": ("classify", "9"),
    "lattice-json": ("lattice", "3", "--format", "json"),
    "lattice-dot": ("lattice", "3", "--format", "dot"),
    "embed-json": ("embed", "2", "3", "-2", "--compare", "--format", "json"),
    "witt-verify": ("witt-verify", "3"),
}
# one request per class: success, a failed verification, a handler's error,
# a usage error and the help
_CLASSES = {"classify": _WRITE_CASES["classify"], "oracle-fail": _ORACLE_FAIL,
            "invalid-input": _INVALID, "usage-error": _USAGE, "help": ("--help",)}
_REASONS = {"closed": "stdout is closed", "full": "No space left on device"}


def _each_buffering(cases: dict) -> list:
    # each case under its id with the child's stdout buffered, as a pipe or
    # a file gets it, and under "<id>-unbuffered" as `python -u` gets it
    return [pytest.param(case, unbuffered, id=name + "-unbuffered" * unbuffered)
            for unbuffered in (False, True) for name, case in cases.items()]


def _failed_write(argv, stream, failure):
    """(code, stdout, stderr) of `pureoctic ARGV` in a child whose `stream`
    fails: "closed" before the interpreter starts, as `>&-` does, "pipe"
    when its reader has closed it before the first byte, or "full", a write
    to /dev/full.  The failed stream reads as ""."""
    fd = 1 if stream == "stdout" else 2
    with contextlib.ExitStack() as stack:
        if failure == "closed":
            target = {"preexec_fn": lambda: os.close(fd)}
        elif failure == "pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            stack.callback(os.close, write_end)
            target = {stream: write_end}
        else:
            target = {stream: stack.enter_context(open("/dev/full", "wb"))}
        proc = run_python("-m", "pureoctic", *argv, **target)
    return proc.returncode, proc.stdout or "", proc.stderr or ""


def _expected(argv, stream, failure):
    """The one write rule applied to what `main` writes for `argv` when
    both streams take every byte: a reader that closed the pipe early gets
    nothing, and the command keeps its code; any other failed write is exit
    2, with one error line on stderr if stderr takes it, and stdout empty.
    The failed stream reads as ""."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: the help and a usage error
            code = exc.code
    written = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    if written[stream] and failure != "pipe":
        code, written["stdout"] = 2, ""
        if stream == "stdout":
            written["stderr"] = f"error: cannot write output: {_REASONS[failure]}\n"
    written[stream] = ""
    return code, written["stdout"], written["stderr"]


def _assert_the_rule(monkeypatch, argv, unbuffered, stream, failure):
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    # argparse wraps its help and usage to $COLUMNS, in the child and here
    monkeypatch.setenv("COLUMNS", "80")
    assert _failed_write(argv, stream, failure) == _expected(argv, stream, failure)


@pytest.mark.parametrize("argv, unbuffered", _each_buffering({
    **_WRITE_CASES,
    "oracle-fail": _ORACLE_FAIL,
    "invalid-input": _INVALID,
    "help": ("--help",),
    "usage-error": _USAGE,
}))
def test_closed_stdout_keeps_the_exit_code_and_stderr_empty(monkeypatch, argv, unbuffered):
    # the reader's end is closed before the command writes a byte; a usage
    # error or a handler's error prints its own lines on stderr alone
    _assert_the_rule(monkeypatch, argv, unbuffered, "stdout", "pipe")


@pytest.mark.parametrize("argv, unbuffered", _each_buffering({
    **_WRITE_CASES,
    "oracle-fail": _ORACLE_FAIL,
    "invalid-input": _INVALID,
    "group-identify-json": ("group-identify", "QD16", "--format", "json"),
    "help": ("--help",),
    "usage-error": _USAGE,
}))
def test_stdout_closed_at_start_exits_2_with_one_line(monkeypatch, argv, unbuffered):
    # the interpreter has sys.stdout None: every request that prints, the
    # help too, exits 2 with one error line, and nothing prints on stderr
    # in place of stdout
    _assert_the_rule(monkeypatch, argv, unbuffered, "stdout", "closed")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, unbuffered", _each_buffering({
    **_WRITE_CASES,
    "invalid-input": _INVALID,
    "help": ("--help",),
    "usage-error": _USAGE,
}))
def test_unwritable_stdout_exits_2_with_one_line(monkeypatch, argv, unbuffered):
    # every write to /dev/full fails with ENOSPC: an output that cannot be
    # written is exit 2, with no traceback and no complaint from the exit
    # flush, buffered or not, the help's too
    _assert_the_rule(monkeypatch, argv, unbuffered, "stdout", "full")


@pytest.mark.parametrize("failure", [
    "closed", "pipe",
    pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                  reason="needs /dev/full"))])
@pytest.mark.parametrize("argv, unbuffered", _each_buffering(_CLASSES))
def test_failed_stderr_keeps_stdout_and_the_exit_code(monkeypatch, argv, unbuffered,
                                                      failure):
    # only an error writes on stderr, and its code is 2 already: a stderr
    # that fails loses those lines and changes no code, and nothing falls
    # back to stdout, which stays empty on exit 2
    _assert_the_rule(monkeypatch, argv, unbuffered, "stderr", failure)


@pytest.mark.parametrize("value", [_BIG, _M])
def test_classify_and_witt_verify_need_no_factorization(capsys, value):
    for argv in (("classify", value), ("witt-verify", value)):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out


def test_oracle_pass(capsys):
    code, out, _ = run(capsys, "oracle", "9", "--primes", "20000")
    assert code == 0
    assert "PASS" in out and "classifier: Pauli" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oracle_fail_golden(capsys, fmt):
    # a failed verification prints its whole verdict and exits 1
    code, out, _ = run(capsys, "oracle", "9", "--primes", "20000",
                       "--tolerance", "1/1000", "--format", fmt)
    assert code == 1
    ext = "txt" if fmt == "text" else "json"
    assert out.encode() == (GOLDEN / f"oracle_9_fail.{ext}").read_bytes()


def test_oracle_reducible_rejected(capsys):
    code, _, err = run(capsys, "oracle", "4")
    assert code == 2 and "reducible" in err


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "16", "--primes", "10000",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "K8" and payload["passed"] is True


@pytest.mark.parametrize("tolerance, message", [
    ("0.05", "not a rational number: '0.05'"),
    ("-1/20", "tolerance must be nonnegative"),
    ("1", "tolerance must be below 1, got 1"),
    ("10/1", "tolerance must be below 1, got 10"),
])
def test_oracle_rejects_bad_tolerance(capsys, tolerance, message):
    # no floating point in the interface; a negative tolerance is bad input,
    # not a failed verification, and so is one of 1 or more, which no
    # frequency's deviation can exceed
    code, out, err = run(capsys, "oracle", "9", "--primes", "5000",
                         f"--tolerance={tolerance}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_oracle_rejects_negative_tolerance_before_the_census(capsys, monkeypatch):
    # the largest bound would sieve for seconds before the verdict read the
    # tolerance; a reducible c keeps its own message
    from pureoctic import oracle
    monkeypatch.setattr(oracle, "census", lambda *_: pytest.fail("the census ran"))
    code, out, err = run(capsys, "oracle", "9", "--primes", "10000000",
                         "--tolerance", "-1")
    assert (code, out, err) == (2, "", "error: tolerance must be nonnegative, got -1\n")
    code, out, err = run(capsys, "oracle", "-1", "--tolerance", "-1")
    assert code == 2 and out == ""
    assert err == "error: X^8 - 1 is reducible: no transitive group to test\n"


def test_oracle_rejects_a_vacuous_tolerance_before_the_census(capsys, monkeypatch):
    # `oracle 9 --tolerance 10/1` once passed whatever the census counted
    from pureoctic import oracle
    monkeypatch.setattr(oracle, "census", lambda *_: pytest.fail("the census ran"))
    code, out, err = run(capsys, "oracle", "9", "--primes", "10000000",
                         "--tolerance", "20/2")
    assert (code, out, err) == (2, "", "error: tolerance must be below 1, got 10\n")


# c whose numerator is the product of the first 300 odd primes: 300 bad
# primes below 5000, where 668 odd primes lie
C_300_BAD = str(math.prod(itertools.islice(
    (p for p in range(3, 2000, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))),
    300)))


def test_oracle_refuses_a_census_too_small_before_it_runs(capsys, monkeypatch):
    # below a bound with fewer than 500 good primes, the request gives the
    # message `consistent` gives its census, and enters no census: 3581, the
    # 501st prime, leaves 499 odd primes, and 3582 leaves 500, of which 3
    # divides c = 9.  A bound below 100 keeps the census's own message
    from pureoctic import oracle
    refusals = []
    for c, bound in (("9", 3500), ("9", 3582), (C_300_BAD, 5000)):
        with pytest.raises(ValueError) as refused:
            oracle.consistent(oracle.census(rational_parts(c), bound), {},
                              rational_parts("1/20"))
        refusals.append((c, str(bound), f"error: {refused.value}\n"))
    monkeypatch.setattr(oracle, "census", lambda *_: pytest.fail("the census ran"))
    for c, bound, err in refusals:
        assert run(capsys, "oracle", c, "--primes", bound) == (2, "", err)
    assert [err for *_, err in refusals] == [
        f"error: census of {total} primes is too small (need 500)\n"
        for total in (487, 499, 368)]
    for bound, total in (("100", 23), ("3581", 498)):
        assert run(capsys, "oracle", "9", "--primes", bound) == (
            2, "", f"error: census of {total} primes is too small (need 500)\n")


def test_oracle_sieves_a_larger_bound_once(capsys, monkeypatch):
    # a bound too small for 500 good primes is sieved only by the count that
    # refuses it, and a bound past the rule's reach only by its census
    from pureoctic import arith, oracle
    sieves, primes_below = [], arith.primes_below
    monkeypatch.setattr(arith, "primes_below", lambda n: sieves.append(n) or primes_below(n))
    census = oracle.census
    monkeypatch.setattr(oracle, "census", lambda c, bound: (
        pytest.fail("the census ran") if bound < 50000 else census(c, bound)))
    assert run(capsys, "oracle", "9", "--primes", "3582") == (
        2, "", "error: census of 499 primes is too small (need 500)\n")
    assert run(capsys, "oracle", C_300_BAD, "--primes", "5000") == (
        2, "", "error: census of 368 primes is too small (need 500)\n")
    assert run(capsys, "oracle", "9", "--primes", "50000")[0] == 0
    assert sieves == [3582, 5000, 50000]


def test_oracle_rejects_oversized_prime_bound(capsys):
    # refused before the sieve allocates a byte per integer
    code, out, err = run(capsys, "oracle", "9", "--primes", "1000000000000")
    assert code == 2 and out == ""
    assert "at most 10000000" in err


def test_group_identify_stock(capsys):
    code, out, _ = run(capsys, "group-identify", "QD16")
    assert code == 0
    assert "identified as: QD16" in out
    code, out, _ = run(capsys, "group-identify", "pauli-matrices")
    assert "identified as: Pauli" in out
    assert "(True, True, True)" in out


def test_group_identify_gens(capsys):
    code, out, _ = run(capsys, "group-identify",
                       "--gens", "1 2 3 4 5 6 7 0; 0 3 6 1 4 7 2 5")
    assert code == 0
    assert "identified as: QD16" in out


def test_group_identify_gens_too_large(capsys):
    # S8 (order 40320): the closure stops past 64 elements instead of
    # building and re-checking the whole group
    code, out, err = run(capsys, "group-identify",
                         "--gens", "1 2 3 4 5 6 7 0; 1 0 2 3 4 5 6 7")
    assert code == 2 and out == ""
    assert "more than 64 elements" in err


@pytest.mark.parametrize("gens", [";", "1 0;"])
def test_group_identify_empty_generator(capsys, gens):
    code, out, err = run(capsys, "group-identify", "--gens", gens)
    assert code == 2 and out == ""
    assert "empty generator" in err


@pytest.mark.parametrize("gens, token", [("a b", "a"), ("1.5 0", "1.5"),
                                         ("0 1; 1 0x1", "0x1")])
def test_group_identify_non_integer_generator(capsys, gens, token):
    code, out, err = run(capsys, "group-identify", "--gens", gens)
    assert code == 2 and out == ""
    assert err == f"error: --gens takes integers, got {token!r}\n"


def test_group_identify_unknown(capsys):
    code, _, err = run(capsys, "group-identify", "nonsense")
    assert code == 2 and "choices" in err
    assert err.encode() == (GOLDEN / "group_identify_unknown.txt").read_bytes()


def test_group_identify_golden(capsys):
    blocks = []
    for name in GROUP_NAMES:
        code, out, _ = run(capsys, "group-identify", name, "--format", "json")
        assert code == 0, name
        blocks.append(f"# group-identify {name} --format json\n{out}")
    assert "".join(blocks).encode() == \
        (GOLDEN / "group_identify.txt").read_bytes()


# --gens generator sets: QD16, V4 through the abelian branch, S4, which the
# registry does not name, and S4 x C2, past the fingerprint's order bound
GENS_CASES = ["1 2 3 4 5 6 7 0; 0 3 6 1 4 7 2 5", "1 0 2 3; 0 1 3 2",
              "1 0 2 3; 1 2 3 0", "1 0 2 3 4 5; 1 2 3 0 4 5; 0 1 2 3 5 4"]


def test_group_identify_gens_golden(capsys):
    blocks = []
    for gens in GENS_CASES:
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "group-identify", "--gens", gens,
                                 "--format", fmt)
            blocks.append(f"# group-identify --gens '{gens}' --format {fmt}:"
                          f" exit {code}\n## stdout\n{out}## stderr\n{err}")
    assert "".join(blocks).encode() == \
        (GOLDEN / "group_identify_gens.txt").read_bytes()


def test_named_group_identify_builds_no_registry(capsys, monkeypatch):
    # a stock name is printed as it was looked up: the request fingerprints
    # its one group and builds neither the fingerprint registry nor the
    # other stock groups
    from pureoctic import groups
    monkeypatch.setattr(groups, "_nonabelian_registry", lambda: pytest.fail(
        "a named request built the fingerprint registry"))
    monkeypatch.setattr(groups, "order16_stock_models", lambda: pytest.fail(
        "a named request built every order-16 stock group"))
    groups.fingerprint.cache_clear()
    code, out, _ = run(capsys, "group-identify", "QD16")
    assert code == 0 and "identified as: QD16" in out
    assert groups.fingerprint.cache_info().misses == 1


def test_named_group_identify_prints_the_name_identify_gives(capsys, monkeypatch):
    # one name per group: an abelian group is named by its invariants (K8's
    # group is C4xC2), and no named request builds the fingerprint registry
    from pureoctic import groups
    monkeypatch.setattr(groups, "_nonabelian_registry", lambda: pytest.fail(
        "a named request built the fingerprint registry"))
    printed = {}
    for name in GROUP_NAMES:
        code, out, _ = run(capsys, "group-identify", name, "--format", "json")
        assert code == 0, name
        printed[name] = json.loads(out)["name"]
    monkeypatch.undo()
    for name in GROUP_NAMES:
        G = groups.group_models()[groups.ALIASES.get(name, name)].group
        assert printed[name] == groups.identify(G), name


def test_group_identify_refuses_a_name_with_gens(capsys):
    code, out, err = run(capsys, "group-identify", "QD16", "--gens", "1 0")
    assert (code, out, err) == (2, "", "error: give a group name or --gens, not both\n")


@pytest.mark.parametrize("argv", [(), ("--gens", ""), ("",)],
                         ids=["neither", "empty-gens", "empty-name"])
def test_group_identify_needs_a_name_or_gens(capsys, argv):
    assert run(capsys, "group-identify", *argv) == (
        2, "", "error: need a group name or --gens\n")


def test_python_dash_m_entry():
    proc = run_python("-m", "pureoctic", "classify", "9")
    assert proc.returncode == 0 and "Pauli" in proc.stdout


# runs `pureoctic ARGV` under `python -S` and prints, as its last three
# stderr lines, the package modules loaded by the time the request exits,
# the stdlib modules of the floor and those loaded beyond it.  The floor is
# `-S` with `runpy` and the `collections` and `functools` that runpy itself
# imports on 3.10 and 3.11.  A stdlib module is named only if no part of its
# name is private, a dunder such as `__future__` aside, so `_sre`,
# `re._parser` and 3.10's `sre_*` go with their public `re`: then every
# supported Python gives the same sets, less what its floor already holds
# (3.13.13's holds `errno` and `collections.abc`)
_PROBE = """
import os, runpy, sys
import collections, functools
floor = set(sys.modules)

def public(modules):
    return " ".join(sorted(m for m in modules if m.partition(".")[0] != "pureoctic"
                           and not m.startswith("sre_")
                           and not any(p.startswith("_") and not p.endswith("__")
                                       for p in m.split("."))))

def report_and_exit(code, _exit=os._exit):
    package = " ".join(sorted(m for m in sys.modules if m.partition(".")[0] == "pureoctic"))
    print(package, public(floor), public(set(sys.modules) - floor), sep="\\n",
          file=sys.stderr, flush=True)
    _exit(code)

# the request ends the process at os._exit, with no `finally` run after it
os._exit = report_and_exit
sys.argv = ["pureoctic", *sys.argv[1:]]
runpy.run_module("pureoctic", run_name="__main__", alter_sys=True)
"""


@functools.cache
def _probe(argv: tuple) -> subprocess.CompletedProcess:
    # one child per request, read by both module-set tests below
    return run_python("-S", "-c", _PROBE, *argv)


def _module_sets(proc) -> list:
    # the package modules, the stdlib floor and the stdlib beyond it
    return [set(line.split()) for line in proc.stderr.splitlines()[-3:]]


_FRONT_END = {"pureoctic", "pureoctic.cli"}
_ARGPARSE = {"argparse", "gettext", "locale"}
# `dataclasses` and `inspect` (13 ms of start-up together), `json`,
# `fractions` with the `decimal` it imports, `__future__`, and argparse
# with the `gettext` and `locale` it imports: loaded only where named
_WATCHED = {"dataclasses", "inspect", "json", "fractions", "decimal", "__future__"} | _ARGPARSE


@pytest.mark.parametrize("argv, code, handler, extra", [
    (("--help",), 0, None, set()),
    (("lattice",), 2, None, set()),
    (("classify", "9"), 0, "cli_classify", {"binomial"}),
    (("classify", "9", "--format", "json"), 0, "cli_classify", {"binomial"}),
    (("embed", "2", "3", "-2", "--compare"), 0, "cli_embed", {"qforms"}),
    (("sl-search", "2", "3", "-2"), 0, "cli_embed", {"qforms"}),
    (("lattice", "3"), 0, "cli_lattice", {"lattice"}),
    (("lattice", "3", "--format", "json"), 0, "cli_lattice", {"lattice"}),
    (("witt-verify", "3"), 0, "cli_lattice", {"lattice", "splitting"}),
    (("oracle", "9", "--primes", "20000"), 0, "cli_oracle", {"binomial", "oracle"}),
    (("group-identify", "QD16"), 0, "cli_groups", {"groups"}),
], ids=["help", "usage-error", "classify", "classify-json", "embed", "sl-search",
        "lattice", "lattice-json", "witt-verify", "oracle", "group-identify"])
def test_each_subcommand_loads_only_its_modules(argv, code, handler, extra):
    # help and a usage error compile the grammar and argparse's parser
    # alone; a well-formed request loads no argparse, its own handler and no
    # other, `jsonout` for JSON output and never `json`, and no `fractions`
    # (with `decimal`): every request reads its literals as reduced integer
    # pairs, `witt-verify`'s field arithmetic too, and `group-identify` reads
    # no literal; `lattice` and `witt-verify` check
    # the Pauli condition without the classifier `binomial`; no module
    # imports `__future__`, which would cost every request its load.  The
    # child runs under -S, so no host `site` adds modules of its own
    proc = _probe(argv)
    assert proc.returncode == code, proc.stderr
    package, floor, loaded = _module_sets(proc)
    if handler is None:
        assert package == _FRONT_END and (floor | loaded) & _WATCHED == _ARGPARSE
        return
    assert not (floor | loaded) & _WATCHED
    if "json" in argv:
        extra = extra | {"jsonout"}
    assert package == _FRONT_END | {
        f"pureoctic.{m}" for m in {"arith", handler, *extra}}


# argparse with its `re`, and the shutil its help formatter imports for the
# terminal width
_ARGPARSE_STDLIB = {"argparse", "bz2", "copyreg", "enum", "errno", "fnmatch", "gettext",
                    "locale", "lzma", "re", "shutil", "zlib"}
# `__main__`'s gc, and the math of `arith` and of the literal reader
_REQUEST = {"gc", "math"}


@pytest.mark.parametrize("argv, stdlib", [
    (("--help",), {"gc", "textwrap"} | _ARGPARSE_STDLIB),
    (("lattice",), {"gc"} | _ARGPARSE_STDLIB),
    (("classify", "9"), _REQUEST),
    (("classify", "9", "--format", "json"), _REQUEST),
    (("embed", "2", "3", "-2", "--compare"), _REQUEST),
    (("embed", "2", "3", "-2", "--compare", "--format", "json"), _REQUEST),
    (("sl-search", "2", "3", "-2"), _REQUEST),
    (("lattice", "3"), _REQUEST),
    (("lattice", "3", "--format", "json"), _REQUEST),
    (("witt-verify", "3"), _REQUEST),
    (("witt-verify", "3", "--format", "json"), _REQUEST),
    (("oracle", "9", "--primes", "20000"), _REQUEST),
    (("oracle", "9", "--primes", "20000", "--format", "json"), _REQUEST),
    (("group-identify", "QD16"), _REQUEST),
    (("group-identify", "QD16", "--format", "json"), _REQUEST),
], ids=["help", "usage-error", "classify", "classify-json", "embed", "embed-json",
        "sl-search", "lattice", "lattice-json", "witt-verify", "witt-verify-json",
        "oracle", "oracle-json", "group-identify", "group-identify-json"])
def test_each_request_loads_exactly_its_stdlib_modules(argv, stdlib):
    # a count that no host changes: no well-formed request loads argparse,
    # shutil, `json` or `re`, and every request reads rationals as reduced
    # integer pairs and loads no `fractions` or `decimal`
    proc = _probe(argv)
    assert proc.returncode == (2 if argv == ("lattice",) else 0), proc.stderr
    _, floor, loaded = _module_sets(proc)
    assert loaded == stdlib - floor


def test_request_cost_reads_a_request():
    # the record script, which gates nothing, reads the sets the tests above
    # pin and counts every physical line of the modules the request loads
    root = Path(__file__).parent.parent
    tool = runpy.run_path(str(root / "tools" / "request_cost.py"))
    code, stdlib, package = tool["request_cost"](("classify", "9"))
    assert code == 0 and {"gc", "math"} <= set(stdlib)
    src = root / "src" / "pureoctic"
    assert package == {
        "pureoctic" if m == "__init__" else f"pureoctic.{m}":
            len((src / f"{m}.py").read_bytes().splitlines())
        for m in ("__init__", "__main__", "arith", "binomial", "cli", "cli_classify")}


# --- the process entry point -------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("classify", "9"),
    ("lattice", "3"),
    ("oracle", "9", "--primes", "1000"),
    ("embed", "1", "2", "3", "extra"),
], ids=["classify", "lattice", "bad-input", "usage-error"])
def test_main_leaves_the_collector_alone(capsys, argv):
    frozen = gc.get_freeze_count()
    try:
        main(list(argv))
    except SystemExit:
        pass
    capsys.readouterr()
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_both_entry_points_run_main_with_the_collector_off(monkeypatch):
    # `python -m pureoctic` and the `[project.scripts]` target are one
    # function, which calls `cli.main` with the collector off and ends the
    # process at `os._exit` with main's code, so the interpreter runs no
    # final collection and no teardown; here `os._exit` raises SystemExit
    callers, exits = [], []

    def recording_main():
        callers.append((sys._getframe(1).f_code, gc.isenabled()))
        return 0

    def recording_exit(code):
        exits.append(code)
        raise SystemExit(code)

    def exit_code(entry):
        try:
            with pytest.raises(SystemExit) as exc:
                entry()
            assert exits.pop() == exc.value.code and not exits
        finally:
            gc.enable()
        return exc.value.code

    monkeypatch.setattr(cli, "main", recording_main)
    monkeypatch.setattr(os, "_exit", recording_exit)
    # runpy runs a fresh copy of the module, as `python -m` does, and warns if
    # an imported one is already in sys.modules
    monkeypatch.delitem(sys.modules, "pureoctic.__main__", raising=False)
    assert exit_code(lambda: runpy.run_module("pureoctic", run_name="__main__")) == 0
    # the `pureoctic = "..."` line of the `[project.scripts]` table, read as
    # text: `tomllib` is new in 3.11
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^pureoctic\s*=\s*"([^"]*)"$', scripts, re.M).group(1)
    module, _, name = target.partition(":")
    script = getattr(importlib.import_module(module), name)
    assert exit_code(script) == 0
    assert callers == [(script.__code__, False), (script.__code__, False)]


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("lattice",), 2),
    (("oracle", "9", "--primes", "20000", "--tolerance", "1/1000"), 1),
    (("lattice", "-3"), 2),
], ids=["help", "usage-error", "verification-failed", "invalid-input"])
def test_python_dash_m_keeps_every_exit_code(argv, code):
    proc = run_python("-m", "pureoctic", *argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("classify", "9"),
    ("lattice", "3", "--format", "dot"),
    ("witt-verify", "5/3", "--format", "json"),
    ("embed", "2", "3", "-2", "--compare"),
    ("sl-search", "2", "3", "-2", "--format", "json"),
    ("oracle", "9", "--primes", "20000"),
    ("group-identify", "QD16"),
], ids=lambda argv: argv[0])
def test_python_dash_m_prints_what_main_prints(capsysbinary, argv):
    assert main(list(argv)) == 0
    expected = capsysbinary.readouterr().out
    proc = run_python("-m", "pureoctic", *argv, text=False)
    assert (proc.returncode, proc.stdout) == (0, expected)


@pytest.mark.parametrize("small, large", [
    (("oracle", "9", "--primes", "1000"), ("oracle", "9", "--primes", "200000")),
    (("lattice", "3"), ("lattice", "331319/36")),
    (("embed", "2", "3", "-2", "--compare"), ("embed", "66", "77650", "66536/9", "--compare")),
    (("sl-search", "2", "3", "-2"), ("sl-search", "66", "77650", "66536/9")),
], ids=["oracle", "lattice", "embed", "sl-search"])
def test_cyclic_garbage_does_not_grow_with_the_input(capsys, small, large):
    # a process runs with the collector off, so what a request leaves in
    # reference cycles is never freed before exit: a well-formed request
    # builds no argparse parser and leaves none, and no cycle per prime,
    # subgroup or triplet
    def cyclic_garbage(argv):
        gc.collect()
        gc.disable()
        try:
            main(list(argv))
            capsys.readouterr()
            return gc.collect()
        finally:
            gc.enable()

    small_count = cyclic_garbage(small)
    assert cyclic_garbage(large) == small_count == 0
