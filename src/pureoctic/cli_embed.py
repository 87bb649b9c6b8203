"""The `embed` and `sl-search` subcommands: the triquadratic embedding
criteria of `qforms` for square classes a, b, c.  Each criterion gets a
literal as its reduced pair and reads it only through its class, so no
request loads `fractions`."""

import itertools

from . import qforms
from .cli import _emit, rational_parts


def cmd_embed(args) -> int:
    # each literal's reduced pair and its text as a Fraction prints it
    parts = [rational_parts(text) for text in (args.a, args.b, args.c)]
    texts = list(map(str, parts))
    # a, b and c are factored once here and every criterion below reuses
    # the space; the 168 (15) decisions on S_L are made once, for both the
    # rewritten triplets and the --compare table
    space = qforms.ClassSpace(*parts)
    x, y, z = space.independent(space.vectors)
    holds_15 = space.pauli_embeddable(x, y, z)
    holds_14 = space.brauer_condition(x, y, z)
    decisions = space.sl_decisions(x, y, z)
    triplets = space.holding_triplets(decisions)
    classes = [space.representative(v) for v in space.sl_classes(x, y, z)]
    lines = [f"square classes of (a, b, c) = ({', '.join(texts)}): independent",
             f"S_L = {{{', '.join(map(str, classes))}}}",
             f"form condition (15) [a,b,ab] ~ [1,c,c]: "
             f"{'HOLDS' if holds_15 else 'fails'}",
             f"symbol condition (14) (abc,-1) = (a,b): "
             f"{'HOLDS' if holds_14 else 'fails'}"]
    pair_results = {}
    for (u, u_text), (v, v_text) in itertools.combinations(zip(parts, texts), 2):
        key = f"({u_text}, {v_text})"
        pair_results[key] = qforms.witt_embeddable(u, v, space)
        lines.append(f"quaternion condition for {key} [u,v,uv] ~ [1,1,1]: "
                     f"{'HOLDS' if pair_results[key] else 'fails'}")
    lines.append(f"rewritten triplets (u, v, x) from S_L satisfying (15):"
                 f" {len(triplets)}")
    for t in triplets:
        lines.append(f"  {t}")
    payload = {
        **dict(zip("abc", texts)),
        "sl_classes": classes,
        "pauli_embeddable_15": holds_15,
        "brauer_condition_14": holds_14,
        "witt_pairs": pair_results,
        "sl_triplets": [list(t) for t in triplets],
    }
    if args.compare:
        table, agreements, total = _compare_table(space, decisions)
        lines.append("")
        lines.append("agreement of (14) and (15) over ordered independent"
                     f" triplets from S_L: {agreements}/{total}")
        lines.extend(table)
        payload["compare_agreements"] = agreements
        payload["compare_total"] = total
    _emit(payload, args.format, "\n".join(lines))
    return 0


def _compare_table(space, decisions):
    """(14) against (15) on every ordered independent triplet from S_L, all
    over the prime basis of `space`: the table's rows, the agreements and
    the total.  `decisions` is the list of (15) decisions that `embed` made
    once, on the same space, for its rewritten triplets."""
    rep = space.representative
    rows = []
    for u, v, x, f15 in decisions:
        f14 = space.brauer_condition(u, v, x)
        if f14 != f15:
            rows.append(f"  DISAGREE at (u,v,x)=({rep(u)},{rep(v)},{rep(x)}):"
                        f" (14)={f14} (15)={f15}")
    total = len(decisions)
    return rows or ["  no disagreements"], total - len(rows), total


def cmd_sl_search(args) -> int:
    parts = [rational_parts(text) for text in (args.a, args.b, args.c)]
    texts = list(map(str, parts))
    triplets = qforms.sl_search(*parts)
    lines = [f"S_L search for (a, b, c) = ({', '.join(texts)}):"
             f" {len(triplets)} triplet(s) satisfy [u,v,uv] ~ [1,x,x]"]
    lines.extend(f"  (u, v, x) = {t}" for t in triplets)
    payload = {**dict(zip("abc", texts)), "triplets": [list(t) for t in triplets]}
    _emit(payload, args.format, "\n".join(lines))
    return 0
