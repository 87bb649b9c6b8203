"""A grammar fuzz of `cli.main`, in process: every argument list drawn from
the subcommands' grammar, well formed or not, ends with an exit code and a
message, never a traceback, and every one that `cli.parse_canonical` reads
without argparse reads as argparse reads it.  Values stay below about 10^6
and census bounds at most 20000, so no draw spends a factoring budget.
The literal reader's `str` tests are checked against the regex grammar
they stand for, on every code point and on drawn text, and the JSON writer
against the `json.dumps` call it stands for, on drawn payloads."""

import contextlib
import io
import itertools
import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pureoctic import cli, groups, jsonout
from pureoctic.cli import build_parser, main, parse_canonical

_MALFORMED = ["", " ", "1/", "/2", "1.5", "2e3", "1__0", "_1", "1_", "0x10",
              "abc", "-", "--", "+", "1/2/3", "3/-4", "1/0", "0", "-0", "+7",
              " 7 ", "٧", "1 2", "-7\n", "7\n"]


@st.composite
def _rational(draw):
    """An integer, underscored, negative or 'p/q' literal, or a malformed one."""
    n = draw(st.integers(-10 ** 6, 10 ** 6))
    kind = draw(st.sampled_from(("int", "underscored", "fraction", "malformed")))
    if kind == "int":
        return str(n)
    if kind == "underscored":
        return f"{n:_}"
    if kind == "fraction":
        return f"{n}/{draw(st.integers(0, 10 ** 6))}"
    return draw(st.sampled_from(_MALFORMED))


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


_FORMAT = _option("--format", st.sampled_from(("text", "json", "dot", "yaml")))
_PRIMES = _option("--primes", st.one_of(st.integers(-10, 20000).map(str),
                                        st.sampled_from(("abc", "1e4", ""))))
_NAMES = st.sampled_from(("QD16", "Pauli", "C16", "E16", "M4(2)", "C2^2:C4",
                          "pauli-affine", "hol-c8", "q8", "d8", "K8", "B32",
                          "D8", "nonsense", ""))


@st.composite
def _gens(draw):
    """Semicolon-separated image lists: permutations of up to 8 points, or
    lists that are not permutations, with a malformed part now and then."""
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 8))
        images = draw(st.one_of(st.permutations(range(n)),
                                st.lists(st.integers(-1, 8), max_size=n)))
        parts.append(" ".join(map(str, images)))
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(("", "a b", "1,0", "0 0", "-1"))))
    return ";".join(parts)


_ONE = st.lists(_rational(), min_size=1, max_size=1)
_THREE = st.lists(_rational(), min_size=3, max_size=3)
_COMMANDS = st.one_of(
    st.tuples(st.just(["classify"]), _ONE, _FORMAT),
    st.tuples(st.just(["lattice"]), _ONE, _FORMAT),
    st.tuples(st.just(["witt-verify"]), _ONE, _FORMAT),
    st.tuples(st.just(["embed"]), _THREE, _FORMAT,
              st.sampled_from(([], ["--compare"]))),
    st.tuples(st.just(["sl-search"]), _THREE, _FORMAT),
    st.tuples(st.just(["oracle"]), _ONE, _PRIMES,
              _option("--tolerance", _rational()), _FORMAT),
    st.tuples(st.just(["group-identify"]),
              st.one_of(st.just([]), _NAMES.map(lambda n: [n])),
              _option("--gens", _gens()), _FORMAT),
)


@st.composite
def _argv(draw):
    """A command line of one subcommand, sometimes with one argument
    dropped or one stray token inserted."""
    argv = [a for part in draw(_COMMANDS) for a in part]
    edit = draw(st.sampled_from(("none", "none", "drop", "insert")))
    if edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "insert":
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(("--bogus", "-x", "extra", "--format",
                                          "--compare", "-1", "--"))))
    return argv


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_argv())
def test_cli_grammar_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith(("error:", "usage:")), argv
    if code == 1:
        assert argv[0] in ("oracle", "witt-verify"), argv


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_argv(), st.data())
def test_strict_parser_agrees_with_argparse(argv, data):
    # wherever `main` skips argparse, argparse would have given the same
    # namespace; a shuffle interleaves the options and the positionals, and
    # an option of some subcommand may take the place of a value
    if data.draw(st.booleans()):
        argv = argv[:1] + data.draw(st.permutations(argv[1:]))
    if len(argv) > 1 and data.draw(st.booleans()):
        argv[data.draw(st.integers(1, len(argv) - 1))] = data.draw(st.sampled_from(
            ("--format", "--compare", "--primes", "--tolerance", "--gens", "-x", "-1.5")))
    args = parse_canonical(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv)), argv


# four of the decimal digit blocks that `int` reads: ASCII, Arabic-Indic,
# Devanagari and fullwidth
_DIGITS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９")


@st.composite
def _contract_literal(draw, bound=10 ** 9):
    """A signed, underscored, Unicode-digit or 'p/q' literal, a square or
    twice a square now and then, or a malformed one; |n| <= bound before
    it is squared."""
    n = draw(st.integers(-bound, bound))
    n *= draw(st.sampled_from((1, 1, n, 2 * n)))
    # "+{}" of a negative n is a malformed "+-n"
    text = draw(st.sampled_from(("{}", "{:_}", "+{}", "{}/7", "{}/12", "{}/0"))).format(n)
    if draw(st.booleans()):
        text = text.translate(str.maketrans("0123456789", draw(st.sampled_from(_DIGITS))))
    return draw(st.sampled_from(_MALFORMED)) if draw(st.integers(0, 3)) == 0 else text


# embed and sl-search factor three literals each: below 10^8, trial
# division does it at once
_SMALL_LITERAL = _contract_literal(bound=10 ** 4)
_CONTRACT_ARGV = st.one_of(
    st.tuples(st.sampled_from(("classify", "lattice", "witt-verify")),
              _contract_literal()).map(list),
    st.tuples(st.just("oracle"), _contract_literal(),
              st.sampled_from(("1000", "4000", "6000", "6000")),
              st.one_of(st.sampled_from(("0", "1", "-1/3", "-2", "1/0", "1/20",
                                         "3/20000", "1/1000")),
                        st.integers(0, 999).map("{}/1000".format),
                        _contract_literal())).map(
        lambda t: [t[0], t[1], "--primes", t[2], "--tolerance", t[3]]),
    st.tuples(st.just("embed"), _SMALL_LITERAL, _SMALL_LITERAL, _SMALL_LITERAL,
              st.sampled_from(([], ["--compare"]))).map(lambda t: [*t[:4], *t[4]]),
    st.tuples(st.just("sl-search"), _SMALL_LITERAL, _SMALL_LITERAL,
              _SMALL_LITERAL).map(list),
    _NAMES.map(lambda name: ["group-identify", name]),
    _gens().map(lambda gens: ["group-identify", "--gens", gens]),
)


def _request(argv):
    # (exit code, stdout, stderr) of `main`, argparse's SystemExit(2) included
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_CONTRACT_ARGV)
def test_rational_requests_keep_their_contract(argv):
    # every request exits 0, 1 or 2; exit 2 writes one error line and no
    # output, and exit 0 or 1 writes output; a JSON or DOT request exits as
    # its text request does, and JSON output parses
    formats = ("text", "json", "dot") if argv[0] == "lattice" else ("text", "json")
    for fmt in formats:
        code, out, err = _request(argv + ["--format", fmt])
        assert code in (0, 1, 2), argv
        if fmt == "text":
            text_code = code
        else:
            assert code == text_code, (argv, fmt)
        if code == 2:
            assert not out, argv
            assert sum("error:" in line for line in err.splitlines()) == 1, argv
        else:
            assert out, (argv, fmt)
            if fmt == "json":
                json.loads(out)


@st.composite
def _positive_k(draw):
    """A literal of k > 0, not always reduced: n/d, or its square or twice
    its square, which the Pauli condition excludes."""
    q = Fraction(draw(st.integers(1, 10 ** 4)), draw(st.integers(1, 10 ** 3)))
    k = draw(st.sampled_from((q, q, q * q, 2 * q * q)))
    m = draw(st.integers(1, 3))
    return k, f"{k.numerator * m}/{k.denominator * m}"


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_positive_k())
def test_lattice_and_witt_verify_pass_exactly_where_classify_names_pauli(drawn):
    # for k > 0, X^8 + k^2 has the Pauli group exactly when k meets the Pauli
    # condition, and only then do `lattice k` and `witt-verify k` exit 0;
    # any other k is bad input
    k, literal = drawn
    code, out, _ = _request(["classify", str(k * k), "--format", "json"])
    assert code == 0, k
    pauli = json.loads(out)["tag"] == "Pauli"
    for command in ("lattice", "witt-verify"):
        assert _request([command, literal])[0] == (0 if pauli else 2), (command, literal)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.sampled_from(((-1, 2), (4, 4), (1, 4), (2, 2), (-2, 2), (1, 2), (1, 1))),
       st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4).filter(bool), st.integers(1, 99)),
       st.builds(Fraction, st.integers(1, 99), st.integers(1, 99)))
def test_an_eighth_power_factor_keeps_the_classify_tag(me, d, e):
    # c = m*d^e lies on each branch in turn, and c*e^8 lies in the same
    # class of every branch's square or fourth power test
    c = me[0] * d ** me[1]
    tags = [json.loads(_request(["classify", str(x), "--format", "json"])[1])["tag"]
            for x in (c, c * e ** 8)]
    assert tags[0] == tags[1], c


_SQUARES = st.builds(lambda n, d: Fraction(n, d) ** 2, st.integers(1, 12), st.integers(1, 12))


@st.composite
def _independent_literals(draw):
    """Literals of a, b and c whose square classes are independent: each is
    a sign times a product of primes that neither other class has, times a
    rational square."""
    primes = draw(st.permutations((2, 3, 5, 7, 11, 13)))[:draw(st.integers(3, 6))]
    cuts = sorted(draw(st.lists(st.integers(1, len(primes) - 1), min_size=2,
                                max_size=2, unique=True)))
    literals = []
    for part in (primes[:cuts[0]], primes[cuts[0]:cuts[1]], primes[cuts[1]:]):
        value = draw(st.sampled_from((1, -1))) * math.prod(part) * draw(_SQUARES)
        literals.append(str(value))
    return literals


def _embed(a, b, c) -> tuple:
    # what `embed a b c --compare` decides from the classes alone: (14),
    # (15), the agreement count, S_L and its triplets as sets, and the
    # quaternion condition of the pairs (a, b), (a, c) and (b, c) in order
    code, out, err = _request(["embed", a, b, c, "--compare", "--format", "json"])
    assert code == 0, ([a, b, c], err)
    payload = json.loads(out)
    texts = [payload[key] for key in "abc"]
    pairs = [payload["witt_pairs"][f"({u}, {v})"] for u, v in itertools.combinations(texts, 2)]
    return (payload["brauer_condition_14"], payload["pauli_embeddable_15"],
            payload["compare_agreements"], payload["compare_total"],
            set(payload["sl_classes"]), set(map(tuple, payload["sl_triplets"])), pairs)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_independent_literals(), _SQUARES)
def test_embed_depends_on_the_square_classes_alone(literals, square):
    # a -> a*s^2 keeps every class, and a <-> b keeps (14), (15) and S_L
    # and swaps the pairs (a, c) and (b, c): each request exits 0
    a, b, c = literals
    verdicts = _embed(a, b, c)
    assert _embed(str(Fraction(a) * square), b, c) == verdicts, literals
    *rest, pairs = verdicts
    assert _embed(b, a, c) == (*rest, [pairs[0], pairs[2], pairs[1]]), literals


def _gens_text(perms) -> str:
    return "; ".join(" ".join(map(str, p.images)) for p in perms)


@st.composite
def _relabelled_gens(draw):
    """A registry group's generators, the affine maps of its 8-point model
    when it has no others, and the same generators conjugated by a drawn
    permutation of their points."""
    model = groups.group_models()[draw(st.sampled_from(sorted(groups.group_models())))]
    gens = model.gens or tuple(groups.affine_map(t, s) for t, s in model.pairs)
    pi = groups.Perm(draw(st.permutations(range(gens[0].degree))))
    pi_inverse = groups.Perm(sorted(range(pi.degree), key=pi))
    return gens, tuple(pi * g * pi_inverse for g in gens)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_relabelled_gens())
def test_group_identify_gens_ignores_a_relabelling_of_the_points(drawn):
    # the group and every line about it are invariants of the abstract
    # group, so a relabelling of the points prints the same bytes
    gens, relabelled = drawn
    for fmt in ("text", "json"):
        code, out, err = _request(["group-identify", "--gens", _gens_text(gens), "--format", fmt])
        assert code == 0, (gens, err)
        assert _request(["group-identify", "--gens", _gens_text(relabelled),
                         "--format", fmt]) == (code, out, err), (gens, relabelled)


# the grammar the literal reader's `str` tests replace, with \d as a str
# pattern reads it: every Unicode decimal digit
_LITERAL = re.compile(r"[+-]?\d+(_\d+)*(/\d+(_\d+)*)?")


def test_isdecimal_is_the_digit_class_of_a_str_pattern():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\d", everything) == [c for c in everything if c.isdecimal()]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.one_of(st.sampled_from(_MALFORMED),
                 st.text(alphabet="0123456789_/+- \n٧x", max_size=9)))
def test_str_grammar_is_the_regex_grammar(text):
    # the literal reader accepts exactly what the regex accepts after strip,
    # but for a zero denominator, and reads it as a reduced Fraction; the
    # strict parser's value test is the matcher argparse is given, but for a
    # trailing newline, which that matcher's `.match` takes
    literal = text.strip()
    num, _, den = literal.partition("/")
    if _LITERAL.fullmatch(literal) and int(den or 1):
        q = Fraction(int(num), int(den or 1))
        assert cli.rational_parts(text) == (q.numerator, q.denominator)
    else:
        with pytest.raises(ValueError, match="not a rational number"):
            cli.rational_parts(text)
    subparsers = build_parser()._subparsers._group_actions[0]
    matcher = subparsers.choices["classify"]._negative_number_matcher
    argparse_value = not text.startswith("-") or bool(matcher.match(text))
    assert cli._is_value(text) == (argparse_value and not (
        text.startswith("-") and text.endswith("\n")))


def _json_dumps(payload) -> str:
    # what `cli._emit` wrote with `json` before `jsonout` stood for it
    return json.dumps(payload, sort_keys=True, indent=2)


# full-Unicode text, lone surrogates included
_TEXT = st.text(st.characters(exclude_categories=()))
_LEAVES = st.one_of(_TEXT, st.integers(), st.integers(-10 ** 400, 10 ** 400),
                    st.booleans(), st.none())
_PAYLOADS = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4)), max_leaves=24)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_PAYLOADS)
def test_json_writer_is_json_dumps(payload):
    assert jsonout.dumps(payload) == _json_dumps(payload)


@pytest.mark.parametrize("payload, error", [
    ({"n": [10 ** 4300]}, ValueError),  # past the digit limit
    ({"x": 1.5}, TypeError),  # no handler builds a float
    ([object()], TypeError),
    ({"c": Fraction(9)}, TypeError),  # handlers write a Fraction as its str
], ids=["huge-int", "float", "object", "fraction"])
def test_json_writer_raises_where_its_payloads_end(payload, error):
    with pytest.raises(error) as ours:
        jsonout.dumps(payload)
    if error is ValueError:
        with pytest.raises(error) as theirs:
            _json_dumps(payload)
        assert str(ours.value) == str(theirs.value)
