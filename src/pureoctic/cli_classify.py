"""The `classify` subcommand: the Galois group of X^8 + c and the branch of
`binomial`'s decision list that gives it."""

from . import binomial
from .cli import _emit, rational_parts


def cmd_classify(args) -> int:
    c = rational_parts(args.c)
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
        "c": str(c),
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
