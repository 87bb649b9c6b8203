"""The `oracle` subcommand: the mod-p cycle-type census of X^8 + c against
the model of the classifier's verdict."""

from . import arith, binomial, oracle
from .cli import _emit, _fail, rational_parts


def cmd_oracle(args) -> int:
    c = rational_parts(args.c)
    tolerance = rational_parts(args.tolerance)
    tag = binomial.classify_octic(c)
    if tag.name == binomial.TAG_REDUCIBLE:
        return _fail(f"{binomial.poly_display(c)} is reducible:"
                     " no transitive group to test")
    # bad input is refused before the census sieves, and so is a bound of at
    # most 3581, the 501st prime: fewer than 500 odd primes lie below it.  A
    # larger bound is sieved once, by the census
    oracle.check_tolerance(tolerance)
    if 100 <= args.primes <= 3581:
        oracle.check_total(sum(1 for p in arith.primes_below(args.primes)[1:]
                               if c.numerator % p and c.denominator % p))
    cns = oracle.census(c, args.primes)
    verdict = oracle.consistent(cns, oracle.model_cycle_types(tag.name), tolerance)
    lines = [f"classifier: {tag.name}",
             cns.as_text(),
             f"verdict vs {tag.name} model: {verdict}"]
    payload = {
        "c": str(c),
        "tag": tag.name,
        "primes_bound": args.primes,
        "good_primes": cns.total,
        "skipped_primes": list(cns.skipped),
        "counts": {oracle.shape(t): n for t, n in cns.counts},
        "tolerance": str(tolerance),
        "passed": verdict.passed,
        "worst_deviation": str(verdict.worst_deviation),
        "worst_type": oracle.shape(verdict.worst_type) if verdict.worst_type else None,
        "foreign_types": list(map(oracle.shape, verdict.foreign_types)),
    }
    _emit(payload, args.format, "\n".join(lines))
    return 0 if verdict.passed else 1
