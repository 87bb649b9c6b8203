"""The command-line interface: output shapes, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from pureoctic.cli import main

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
    (("witt-verify", "3"), "witt_verify_3.txt"),
    (("witt-verify", "3", "--format", "json"), "witt_verify_3.json"),
    # a fractional rho, and the k of the lattice goldens above
    (("witt-verify", "5/3"), "witt_verify_5_3.txt"),
    (("witt-verify", "5/3", "--format", "json"), "witt_verify_5_3.json"),
    (("witt-verify", "12"), "witt_verify_12.txt"),
    (("witt-verify", "3/4", "--format", "json"), "witt_verify_3_4.json"),
    (("witt-verify", "990051", "--format", "json"), "witt_verify_990051.json"),
]
# one value per oracle outcome: K8, D16, QD16, Pauli, B32
ORACLE_VALUES = ["16", "2", "-2", "9", "3"]
for _c in ORACLE_VALUES:
    _name = "oracle_" + _c.replace("-", "m")
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
GROUP_NAMES = ["C16", "C2^2:C4", "C4:C4", "C4xC2xC2", "C4xC4", "C8xC2", "D16",
               "D8xC2", "E16", "M4(2)", "Pauli", "Q16", "Q8xC2", "QD16",
               "d8", "hol-c8", "pauli-affine", "pauli-matrices", "q8"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_coldbench_traced_names_resolve():
    # coldbench/traced_cli.py wraps these package attributes by name and
    # reads cache_info() off the cached ones; a name that is gone would crash
    # the benchmark's traced requests
    import importlib
    import importlib.util
    import inspect

    path = Path(__file__).resolve().parent.parent / "coldbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for module, attr_path, _ in traced.TRACED:
        owner = importlib.import_module(f"pureoctic.{module}")
        *cls_path, attr = attr_path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        fn = owner.__dict__.get(attr)
        assert fn is not None and inspect.isfunction(inspect.unwrap(fn)), \
            (module, attr_path)
    for module, attr in traced.CACHED:
        fn = getattr(importlib.import_module(f"pureoctic.{module}"), attr)
        assert hasattr(fn, "cache_info"), (module, attr)


def test_witt_verify(capsys):
    code, out, _ = run(capsys, "witt-verify", "3")
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out
    code, out, _ = run(capsys, "witt-verify", "5")
    assert code == 0
    code, _, err = run(capsys, "witt-verify", "4")
    assert code == 2


def test_witt_verify_checks_pauli_and_builds_T_once(capsys, monkeypatch):
    from pureoctic import binomial, splitting

    calls = []
    for module, name in ((binomial, "pauli_condition_violation"),
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


def test_sl_search(capsys):
    code, out, _ = run(capsys, "sl-search", "2", "3", "-2")
    assert code == 0
    assert "triplet" in out


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


# inputs that once ran without bound in `arith.factor`
_BIG = str(10 ** 400 + 1)
_M = str((2 ** 61 - 1) * (2 ** 89 - 1))


@pytest.mark.parametrize("argv", [
    ("lattice", _BIG),
    ("embed", _BIG, "3", "-2"),
    ("sl-search", _BIG, "3", "-2"),
    ("lattice", _M),
    ("embed", "3", "5", _M),
], ids=["lattice-10^400+1", "embed-10^400+1", "sl-search-10^400+1",
        "lattice-M61M89", "embed-M61M89"])
def test_unfactorable_input_exits_within_budget(argv):
    import os
    import subprocess
    import sys
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pureoctic", *argv],
                          capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 2:
        assert proc.stderr.startswith("error: cannot factor")


@pytest.mark.parametrize("value", [_BIG, _M])
def test_classify_and_witt_verify_need_no_factorization(capsys, value):
    for argv in (("classify", value), ("witt-verify", value)):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out


def test_oracle_pass(capsys):
    code, out, _ = run(capsys, "oracle", "9", "--primes", "20000")
    assert code == 0
    assert "PASS" in out and "classifier: Pauli" in out


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
])
def test_oracle_rejects_bad_tolerance(capsys, tolerance, message):
    # no floating point in the interface; a negative tolerance is bad input,
    # not a failed verification
    code, out, err = run(capsys, "oracle", "9", "--primes", "5000",
                         f"--tolerance={tolerance}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


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


def test_python_dash_m_entry():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "pureoctic", "classify", "9"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "Pauli" in proc.stdout
