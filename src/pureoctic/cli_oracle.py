"""The `oracle` subcommand: the mod-p cycle-type census of X^8 + c against
the model of the classifier's verdict."""

from itertools import islice

from . import arith, binomial, oracle
from .cli import _emit, _fail, rational_parts


def cmd_oracle(args) -> int:
    c = rational_parts(args.c)
    tolerance = rational_parts(args.tolerance)
    tag = binomial.classify_octic(c)
    if tag.name == binomial.TAG_REDUCIBLE:
        return _fail(f"{binomial.poly_display(c)} is reducible:"
                     " no transitive group to test")
    # bad input is refused before the census sieves, and so is a bound with
    # fewer than 500 good primes below it, counted up to 500.  Fewer than b
    # primes divide the b-bit |num * den|, and 2 is skipped, so a bound x
    # with 10x >= 7 * bit_length(x) * (501 + b) leaves 500 good primes:
    # pi(x) > x / ln x from x = 17, and ln x < 0.7 * bit_length(x).  Such a
    # bound is sieved once, by the census
    oracle.check_tolerance(tolerance)
    bound, b = args.primes, (c.numerator * c.denominator).bit_length()
    if 100 <= bound and 10 * bound < 7 * bound.bit_length() * (501 + b):
        good = (p for p in arith.primes_below(bound)[1:] if c.numerator % p and c.denominator % p)
        oracle.check_total(len(list(islice(good, 500))))
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
