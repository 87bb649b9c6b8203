"""Command-line front end: classification, lattice reports, exact Witt
verification, embedding criteria and the mod-p census oracle.

Rationals on the command line are integers or 'p/q' literals; there is no
floating point anywhere in the interface.  Exit codes: 0 success, 1 a
verification failed, 2 invalid input, including a value whose square class
needs a factorization beyond `arith.factor`'s budget or a number with
more digits than the interpreter reads or prints.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

# each command imports the modules it runs, so a request compiles no other
from .arith import MAX_CENSUS_BOUND, UNSIGNED_RATIONAL, parse_rational

# lets a bare negative literal like -2/3 or -1_000 parse as a positional
_NEGATIVE_RATIONAL = re.compile(f"^-{UNSIGNED_RATIONAL}$")


def _json_default(obj):
    # Fractions print as 'p/q'; any other object json cannot write is a bug
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write(text: str) -> None:
    # a reader that closed the pipe early gets nothing, and the command still
    # returns its own exit code; with stdout on devnull the interpreter's
    # exit flush stays quiet
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(payload: dict, fmt: str, text: str) -> None:
    _write(json.dumps(payload, default=_json_default, sort_keys=True, indent=2)
           if fmt == "json" else text)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# --- subcommands -------------------------------------------------------------


def cmd_classify(args) -> int:
    from . import binomial
    c = parse_rational(args.c)
    tag, branch = binomial.octic_verdict(c)
    irreducible = tag.name != binomial.TAG_REDUCIBLE
    lines = [f"polynomial: {binomial.poly_display(c)}"]
    if irreducible:
        lines.append("irreducible: yes"
                     " (-c is not a square; c is not of the form 4*lambda^4)")
    else:
        # the violated clause is the branch without its criterion letter
        lines.append(f"irreducible: no ({branch.rpartition(' (criterion')[0]})")
    lines.append(f"branch: {branch}")
    if irreducible:
        extra = " = Hol(C8)" if tag.name == binomial.TAG_B32 else ""
        lines.append(f"galois group: {tag.name}{extra} (order {tag.splitting_degree}),"
                     f" splitting field degree {tag.splitting_degree}")
    else:
        lines.append("galois group: Reducible (no transitive octic group)")
    payload = {
        "c": c,
        "polynomial": binomial.poly_display(c),
        "irreducible": irreducible,
        "tag": tag.name,
        # |Gal(E/Q)| = [E:Q]
        "group_order": tag.splitting_degree,
        "splitting_degree": tag.splitting_degree,
        "branch": branch,
    }
    _emit(payload, args.format, "\n".join(lines))
    return 0


def cmd_lattice(args) -> int:
    from . import splitting
    k = parse_rational(args.k)
    if args.format != "dot":
        # the text and JSON reports print k^2: a k^2 past the digit limit
        # raises here, before the field is built and k factored
        str(k ** 2)
    report = splitting.SplittingField(k).lattice_report()
    if args.format == "dot":
        _write(report.as_dot())
    else:
        _emit(report.as_dict(), args.format, report.as_text())
    return 0


def cmd_witt_verify(args) -> int:
    from . import splitting
    k = parse_rational(args.k)
    cert = splitting.witt_beta_rho(splitting.SplittingField(k))
    rho = f"{cert.rho}*sqrt(-2)"
    checks = {
        "det(T) = 1": cert.det_is_one,
        "T^t * diag(2, k, 1/2k) * T = identity": cert.congruence_is_identity,
        "rho*beta = (a - abar)^2 * (w*(1 + sqrt(2k)))^2":
            cert.factorization_holds and cert.beta_matches_matrix_diagonal,
        "sqrt(rho*beta) generates E over L (flips under Gal(E/L))":
            cert.a_minus_abar_nonzero and cert.generates_E_over_L,
    }
    lines = [f"Witt verification for k = {k} (ground field Q(sqrt(-2)))",
             f"  beta = {cert.beta}",
             f"  rho  = {rho}",
             f"  sqrt(rho*beta) = {cert.sqrt_rho_beta}"]
    for label, ok in checks.items():
        lines.append(f"  {label}: {'PASS' if ok else 'FAIL'}")
    payload = {"k": k, "beta": str(cert.beta), "rho": rho,
               "sqrt_rho_beta": str(cert.sqrt_rho_beta),
               "checks": {lbl: bool(ok) for lbl, ok in checks.items()}}
    _emit(payload, args.format, "\n".join(lines))
    return 0 if all(checks.values()) else 1


def cmd_embed(args) -> int:
    from . import qforms
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    c = parse_rational(args.c)
    # a, b and c are factored once here; every criterion below reuses it
    space = qforms.ClassSpace(a, b, c)
    holds_15 = qforms.pauli_embeddable(a, b, c, space)
    holds_14 = qforms.brauer_condition(a, b, c, space)
    triplets = qforms.sl_search(a, b, c, space)
    classes = qforms.sl_classes(a, b, c, space)
    lines = [f"square classes of (a, b, c) = ({a}, {b}, {c}): independent",
             f"S_L = {{{', '.join(map(str, classes))}}}",
             f"form condition (15) [a,b,ab] ~ [1,c,c]: "
             f"{'HOLDS' if holds_15 else 'fails'}",
             f"symbol condition (14) (abc,-1) = (a,b): "
             f"{'HOLDS' if holds_14 else 'fails'}"]
    pair_results = {}
    for u, v in ((a, b), (a, c), (b, c)):
        key = f"({u}, {v})"
        pair_results[key] = qforms.witt_embeddable(u, v, space)
        lines.append(f"quaternion condition for {key} [u,v,uv] ~ [1,1,1]: "
                     f"{'HOLDS' if pair_results[key] else 'fails'}")
    lines.append(f"rewritten triplets (u, v, x) from S_L satisfying (15):"
                 f" {len(triplets)}")
    for t in triplets:
        lines.append(f"  {t}")
    payload = {
        "a": a, "b": b, "c": c,
        "sl_classes": classes,
        "pauli_embeddable_15": holds_15,
        "brauer_condition_14": holds_14,
        "witt_pairs": pair_results,
        "sl_triplets": [list(t) for t in triplets],
    }
    if args.compare:
        table, agreements, total = _compare_table(space)
        lines.append("")
        lines.append("agreement of (14) and (15) over ordered independent"
                     f" triplets from S_L: {agreements}/{total}")
        lines.extend(table)
        payload["compare_agreements"] = agreements
        payload["compare_total"] = total
    _emit(payload, args.format, "\n".join(lines))
    return 0


def _compare_table(space):
    """(14) against (15) on every ordered independent triplet from S_L, all
    over the prime basis of `space`."""
    rep = space.representative
    rows = []
    agreements = 0
    total = 0
    for u, v, x in space.triplets(space.sl_classes(*space.vectors)):
        f15 = space.pauli_embeddable(u, v, x)
        f14 = space.brauer_condition(u, v, x)
        total += 1
        if f14 == f15:
            agreements += 1
        else:
            rows.append(f"  DISAGREE at (u,v,x)=({rep(u)},{rep(v)},{rep(x)}):"
                        f" (14)={f14} (15)={f15}")
    if not rows:
        rows = ["  no disagreements"]
    return rows, agreements, total


def cmd_sl_search(args) -> int:
    from . import qforms
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    c = parse_rational(args.c)
    triplets = qforms.sl_search(a, b, c)
    lines = [f"S_L search for (a, b, c) = ({a}, {b}, {c}):"
             f" {len(triplets)} triplet(s) satisfy [u,v,uv] ~ [1,x,x]"]
    lines.extend(f"  (u, v, x) = {t}" for t in triplets)
    payload = {"a": a, "b": b, "c": c, "triplets": [list(t) for t in triplets]}
    _emit(payload, args.format, "\n".join(lines))
    return 0


def cmd_oracle(args) -> int:
    from . import binomial, oracle
    c = parse_rational(args.c)
    tolerance = parse_rational(args.tolerance)
    tag = binomial.classify_octic(c)
    if tag.name == binomial.TAG_REDUCIBLE:
        return _fail(f"{binomial.poly_display(c)} is reducible:"
                     " no transitive group to test")
    cns = oracle.census(c, args.primes)
    verdict = oracle.consistent(cns, oracle.model_cycle_types(tag.name), tolerance)
    lines = [f"classifier: {tag.name}",
             cns.as_text(),
             f"verdict vs {tag.name} model: {verdict}"]
    payload = {
        "c": c,
        "tag": tag.name,
        "primes_bound": args.primes,
        "good_primes": cns.total,
        "skipped_primes": list(cns.skipped),
        "counts": {oracle.shape(t): n for t, n in cns.counts},
        "tolerance": tolerance,
        "passed": verdict.passed,
        "worst_deviation": verdict.worst_deviation,
        "worst_type": oracle.shape(verdict.worst_type) if verdict.worst_type else None,
        "foreign_types": list(map(oracle.shape, verdict.foreign_types)),
    }
    _emit(payload, args.format, "\n".join(lines))
    return 0 if verdict.passed else 1


def cmd_group_identify(args) -> int:
    from . import groups
    try:
        if args.gens:
            perms = []
            for part in args.gens.split(";"):
                images = [int(x) for x in part.replace(",", " ").split()]
                if not images:
                    return _fail(f"empty generator in --gens {args.gens!r}")
                perms.append(groups.Perm(images))
            G = groups.closure(perms)
        else:
            # a stock name is its own answer, and a test proves identify
            # agrees; an abelian group is named by its invariants (K8's group
            # is C4xC2), which builds no fingerprint registry
            name = groups.ALIASES.get(args.name, args.name)
            model = groups.group_models().get(name)
            if model is None:
                choices = sorted(groups.group_models()) + sorted(groups.ALIASES)
                return _fail(f"unknown group {args.name!r}; choices: {choices},"
                             " or pass --gens")
            G = model.group
        # fingerprint first: a --gens group of order 33 to 64 fails on its bound
        fp = groups.fingerprint(G)
        if args.gens or G.is_abelian():
            name = groups.identify(G)
    except LookupError as exc:
        return _fail(str(exc))
    lines = [f"order: {G.order}",
             f"identified as: {name}",
             f"element orders: {dict(fp.element_orders)}",
             f"center: {fp.center_type}",
             f"abelianization: {fp.abelianization}",
             f"has Q8 subgroup: {fp.has_q8_subgroup}",
             f"has element of order 8: {fp.has_order8_element}"]
    if G.order == 16:
        a, b, c = groups.pauli_criteria(G)
        lines.append(f"Pauli criteria (no order-8 element, non-normal subgroup,"
                     f" Q8 subgroup): ({a}, {b}, {c})")
    payload = {"order": G.order, "name": name,
               "element_orders": {str(k): v for k, v in fp.element_orders},
               "center": fp.center_type, "abelianization": fp.abelianization,
               "has_q8_subgroup": fp.has_q8_subgroup,
               "has_order8_element": fp.has_order8_element}
    _emit(payload, args.format, "\n".join(lines))
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pureoctic",
        description="Galois groups of pure octic polynomials X^8 + c over Q")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, formats=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=formats, default="text")
        p._negative_number_matcher = _NEGATIVE_RATIONAL
        return p

    p = add("classify", cmd_classify,
            "Galois group of X^8 + c with the matched branch")
    p.add_argument("c", help="nonzero rational, e.g. 9 or -2/3")

    p = add("lattice", cmd_lattice, "subgroup <-> subfield lattice of X^8 + k^2",
            formats=("text", "json", "dot"))
    p.add_argument("k", help="rational satisfying the Pauli condition")

    p = add("witt-verify", cmd_witt_verify,
            "exact verification of the quaternion-embedding identities")
    p.add_argument("k", help="rational satisfying the Pauli condition")

    p = add("embed", cmd_embed,
            "triquadratic embedding criteria for square classes a, b, c")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("--compare", action="store_true",
                   help="agreement table of the symbol and form conditions")

    p = add("sl-search", cmd_sl_search,
            "search rewritten triplets in S_L satisfying the form condition")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")

    p = add("oracle", cmd_oracle,
            "mod-p cycle-type census versus the predicted group")
    p.add_argument("c", help="nonzero rational")
    p.add_argument("--primes", type=int, default=50000,
                   help="census all good primes below this bound"
                        f" (at most {MAX_CENSUS_BOUND})")
    p.add_argument("--tolerance", default="1/20",
                   help="absolute frequency tolerance (rational)")

    p = add("group-identify", cmd_group_identify,
            "identify a small permutation group")
    p.add_argument("name", nargs="?", default=None,
                   help="stock model name, e.g. Pauli, QD16, hol-c8")
    p.add_argument("--gens", default=None,
                   help="semicolon-separated image lists, e.g. '1 2 3 0; 0 3 2 1'")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "group-identify":
        if not args.name and not args.gens:
            return _fail("need a group name or --gens")
        if args.name is not None and args.gens is not None:
            return _fail("give a group name or --gens, not both")
    # every ValueError is bad input, or a number past the interpreter's
    # integer-digit limit, whose own message advises a Python call; a command
    # prints only once its whole output is rendered, so stdout stays empty
    try:
        return args.func(args)
    except ValueError as exc:
        if "integer string conversion" in str(exc):
            return _fail("a number exceeds the digit limit: integers of more than"
                         f" {sys.get_int_max_str_digits()} decimal digits can be"
                         " neither read nor printed")
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
