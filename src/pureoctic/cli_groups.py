"""The `group-identify` subcommand: a stock group by name, or the group a
list of permutations generates, identified by its fingerprint."""

from . import groups
from .cli import _digit_groups, _emit, _fail, _signless


def cmd_group_identify(args) -> int:
    if not args.name and not args.gens:
        return _fail("need a group name or --gens")
    if args.name is not None and args.gens is not None:
        return _fail("give a group name or --gens, not both")
    try:
        if args.gens:
            perms = []
            for part in args.gens.split(";"):
                tokens = part.replace(",", " ").split()
                if not tokens:
                    return _fail(f"empty generator in --gens {args.gens!r}")
                # each token an integer as int() reads it, tested first, since
                # int()'s ValueError may also mean a number past the digit
                # limit, which `main` reports as such
                for x in tokens:
                    if not _digit_groups(_signless(x)):
                        return _fail(f"--gens takes integers, got {x!r}")
                perms.append(groups.Perm([int(x) for x in tokens]))
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
