"""Command-line front end: the rational-literal grammar, the parser, the
output and the exit codes.

Each subcommand's handler, `cmd_<name>`, lives in the module its family
names in `_SUBCOMMANDS` (`cli_classify`, `cli_lattice`, `cli_embed`,
`cli_oracle`, `cli_groups`); `main` imports only the handler of the parsed
subcommand, so `--help` and a usage error load this module alone, and a
request compiles only its own handler and the modules it runs.

`main` reads a canonical argv off `_SUBCOMMANDS` with no argparse
(`parse_canonical`): the subcommand, its positionals in order and number,
and each option once by its exact name, with a value that is no option
and that its type and choices accept.  Any other argv, `--help` and every
usage error among them, goes to argparse, so help and every error message
come from argparse.  `main` only parses and dispatches: each handler checks
its own arguments and hands `_emit` plain JSON data, rationals as text.

Rationals on the command line are integers or 'p/q' literals; there is no
floating point anywhere in the interface.  The grammar is `str` tests, so
only `build_parser` compiles a pattern, argparse's negative-number matcher.
Every handler reads a literal with `rational_parts`, as its reduced pair
`arith.RationalParts`, which prints as a Fraction prints, and computes on
integer pairs from there, so no request loads `fractions`; nor does any
load `json`: `_emit` loads `jsonout` for JSON.
Exit codes: 0 success, 1 a verification failed, 2 invalid input, including
a value whose square class needs a factorization beyond `arith.factor`'s
budget or a number with more digits than the interpreter reads or prints.
`_flush` writes every byte, argparse's too: a closed pipe gets nothing and
the command keeps its code; any other failed write, to a stream closed at
start too, is exit 2, with one error line on stderr if stderr takes it.

`main` leaves the collector on and the process running, for library, test
and profiler callers; `__main__.run` turns the collector off around `main`
and ends the process at `os._exit`, with the code `exit_code` gives.
"""

import os
import sys
from importlib import import_module
from types import SimpleNamespace

from . import MAX_CENSUS_BOUND


def _digit_groups(text: str) -> bool:
    # digits with single underscores between groups.  A digit is what
    # `str.isdecimal` accepts, Unicode category Nd: exactly the `\d` of a str
    # pattern, and int() reads every one
    return all(part.isdecimal() for part in text.split("_"))


def _signless(text: str) -> str:
    # text without its one leading sign, if it has one
    return text[1:] if text.startswith(("+", "-")) else text


def _is_unsigned_rational(text: str) -> bool:
    # digit groups, or two runs of them joined by '/'
    return all(map(_digit_groups, text.split("/", 1)))


def rational_parts(text: str) -> "RationalParts":
    """The reduced (num, den), den > 0, of an integer or 'p/q' literal with
    an optional sign; decimal and exponent literals such as '0.5' or '1e3'
    are rejected."""
    from .arith import RationalParts
    literal = text.strip()
    if _is_unsigned_rational(_signless(literal)):
        # int() takes the sign and the underscores on every supported Python
        num, _, den = literal.partition("/")
        num, den = int(num), int(den or 1)
        if den:
            return RationalParts(num, den)
    raise ValueError(f"not a rational number: {text!r}")


def _flush(stream, *text: str) -> None:
    # the one path of every byte the process writes: writes each `text` and
    # flushes.  A reader that closed the pipe early gets nothing, and the
    # command still returns its own exit code; any other failed write, such
    # as a full disk, is exit 2.  A failed write points the stream at
    # devnull, so no later flush fails again
    try:
        stream.writelines(text)
        stream.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        if not isinstance(exc, BrokenPipeError):
            raise ValueError(f"cannot write output: {exc.strerror}") from exc


def _emit(payload: dict | None, fmt: str, text: str) -> None:
    # the JSON of `payload`, or `text` in any other format, on stdout
    if fmt == "json":
        from .jsonout import dumps
        text = dumps(payload)
    if sys.stdout is None:
        raise ValueError("cannot write output: stdout is closed")
    _flush(sys.stdout, text, "\n")


def exit_code(code: int) -> int:
    # `code` once stdout and stderr are flushed under `_flush`'s rule, or 2
    # with one error line.  Every write flushes itself, so this guards only
    # a write made some other way: `__main__.run` ends the process at
    # `os._exit`, where the interpreter flushes nothing.  A stream closed at
    # start is None
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            _flush(stream)
    except ValueError as exc:
        return _fail(str(exc))
    return code


def _fail(message: str, prefix: str = "") -> int:
    # `prefix` and one error line on stderr under `_flush`'s rule, and exit 2.
    # A stderr closed at start, None with no `writelines`, or one that cannot
    # be written gets nothing, and nothing falls back to stdout
    try:
        _flush(sys.stderr, prefix, f"error: {message}\n")
    except (AttributeError, ValueError):
        pass
    return 2


# --- parser ------------------------------------------------------------------


# each subcommand, in the order of the usage line: the module that holds its
# handler cmd_<name> (main imports it on demand), its help, its --format
# choices and its arguments as (name, add_argument options) pairs
_TEXT_JSON = ("text", "json")
_K = ("k", {"help": "rational satisfying the Pauli condition"})
_ABC = (("a", {}), ("b", {}), ("c", {}))
_SUBCOMMANDS = {
    "classify": ("cli_classify", "Galois group of X^8 + c with the matched branch",
                 _TEXT_JSON, [("c", {"help": "nonzero rational, e.g. 9 or -2/3"})]),
    "lattice": ("cli_lattice", "subgroup <-> subfield lattice of X^8 + k^2",
                ("text", "json", "dot"), [_K]),
    "witt-verify": ("cli_lattice",
                    "exact verification of the quaternion-embedding identities",
                    _TEXT_JSON, [_K]),
    "embed": ("cli_embed", "triquadratic embedding criteria for square classes a, b, c",
              _TEXT_JSON, [*_ABC, ("--compare", {
                  "action": "store_true", "default": False,
                  "help": "agreement table of the symbol and form conditions"})]),
    "sl-search": ("cli_embed",
                  "search rewritten triplets in S_L satisfying the form condition",
                  _TEXT_JSON, _ABC),
    "oracle": ("cli_oracle", "mod-p cycle-type census versus the predicted group",
               _TEXT_JSON, [
                   ("c", {"help": "nonzero rational"}),
                   ("--primes", {"type": int, "default": 50000,
                                 "help": "census all good primes below this bound"
                                         f" (at most {MAX_CENSUS_BOUND})"}),
                   ("--tolerance", {"default": "1/20",
                                    "help": "absolute frequency tolerance (rational)"})]),
    "group-identify": ("cli_groups", "identify a small permutation group", _TEXT_JSON, [
        ("name", {"nargs": "?", "default": None,
                  "help": "stock model name, e.g. Pauli, QD16, hol-c8"}),
        ("--gens", {"default": None,
                    "help": "semicolon-separated image lists, e.g. '1 2 3 0; 0 3 2 1'"})]),
}


def build_parser(argv=None) -> "argparse.ArgumentParser":
    """The parser of every subcommand, or of each one that `argv` names."""
    import argparse
    import re

    # lets a bare negative literal like -2/3 or -1_000 parse as a positional.
    # argparse calls `.match`, so a trailing newline passes, as it always has
    negative = re.compile(r"^-\d+(_\d+)*(/\d+(_\d+)*)?$")

    class Parser(argparse.ArgumentParser):
        # argparse's own help and usage texts, written as every other byte
        # is: argparse would swallow a failed write, and with stderr closed
        # at start it would print a usage error on stdout.  Each subparser
        # takes the class of the parser that adds it
        def print_help(self, file=None):
            _emit(None, "text", self.format_help().removesuffix("\n"))

        def error(self, message):
            self.exit(_fail(message, f"{self.format_usage()}{self.prog}: "))

    parser = Parser(prog="pureoctic", description=(
        "Galois groups of pure octic polynomials X^8 + c over Q"))
    sub = parser.add_subparsers(dest="command", required=True)
    # a subcommand that argv does not name is only its name and help line,
    # all that the top-level help and usage read, so --help builds no more
    for name, (_, help_text, formats, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, add_help=argv is None or name in argv)
        if not p.add_help:
            continue
        p._negative_number_matcher = negative
        for flag, options in (("--format", {"choices": formats, "default": "text"}), *arguments):
            p.add_argument(flag, **options)
    return parser


def _is_value(token: str) -> bool:
    # argparse's test, given `_negative_number_matcher`: a token is an
    # argument unless it starts with '-' and is no negative rational.  This
    # one is exact, so a token that argparse would also take with a trailing
    # newline reads as an option here, and the argv goes to argparse
    return not token.startswith("-") or _is_unsigned_rational(token[1:])


def parse_canonical(argv: list) -> SimpleNamespace | None:
    """The namespace argparse gives a canonical `argv` (see above), read
    off `_SUBCOMMANDS`; None for any other argv, which argparse parses."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, _, formats, arguments = _SUBCOMMANDS[argv[0]]
    options = {"--format": {"choices": formats, "default": "text"}}
    options.update((flag, spec) for flag, spec in arguments if flag[0] == "-")
    positionals = [(name, spec) for name, spec in arguments if name[0] != "-"]
    parsed = {flag[2:].replace("-", "_"): spec.get("default")
              for flag, spec in options.items()}
    values, tokens = [], iter(argv[1:])
    for token in tokens:
        if _is_value(token):
            values.append(token)
            continue
        # an option leaves `options` when it is read, so a repeat is unknown
        spec, dest = options.pop(token, None), token[2:].replace("-", "_")
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            parsed[dest] = True
            continue
        # a missing value reads as "-", which is no value
        value = next(tokens, "-")
        try:
            parsed[dest] = spec.get("type", str)(value)
        except ValueError:
            return None
        if not _is_value(value) or parsed[dest] not in spec.get("choices", [parsed[dest]]):
            return None
    required = sum("nargs" not in spec for _, spec in positionals)
    if not required <= len(values) <= len(positionals):
        return None
    for i, (name, spec) in enumerate(positionals):
        parsed[name] = values[i] if i < len(values) else spec.get("default")
    return SimpleNamespace(command=argv[0], **parsed)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # every ValueError is bad input, an output that cannot be written, the
    # help among them, or a number past the interpreter's integer-digit
    # limit, whose own message advises a Python call; a command prints only
    # once its whole output is rendered, so stdout stays empty
    try:
        args = parse_canonical(argv) or build_parser(argv).parse_args(argv)
        handler = getattr(import_module(f"{__package__}.{_SUBCOMMANDS[args.command][0]}"),
                          "cmd_" + args.command.replace("-", "_"))
        return handler(args)
    except ValueError as exc:
        if "integer string conversion" in str(exc):
            return _fail("a number exceeds the digit limit: integers of more than"
                         f" {sys.get_int_max_str_digits()} decimal digits can be"
                         " neither read nor printed")
        return _fail(str(exc))

