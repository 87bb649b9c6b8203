"""Entry point for a traced cold request: python traced_cli.py OUT -- ARGV...

Imports pureoctic, wraps the public functions and methods of every layer
from outside (rebinding each `from .x import name` copy as well), runs
`pureoctic.cli.main(ARGV)` exactly as `python -m pureoctic ARGV` would,
and writes the spans it kept in memory to OUT as JSON when the request
ends.  Nothing is printed to stdout, so the request's stdout is the same
as without tracing.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path, note) for every traced callable; the note turns
# (args, result) into a number kept on the span
TRACED = (
    ("arith", "factor", "arg0"),
    ("arith", "squarefree_part", None),
    ("arith", "nth_root", None),
    ("arith", "is_prime", None),
    ("arith", "primes_below", None),
    ("binomial", "classify_octic", None),
    ("groups", "closure", None),
    ("groups", "FinGroup.__init__", None),
    ("groups", "FinGroup.subgroups", "len"),
    ("groups", "fingerprint", None),
    ("groups", "identify", None),
    ("groups", "order16_stock_models", None),
    ("groups", "_nonabelian_registry", None),
    ("oracle", "stock_models", None),
    ("oracle", "census", "census_total"),
    ("oracle", "factor_mod_p", None),
    ("oracle", "consistent", None),
    ("splitting", "SplittingField.__init__", None),
    ("splitting", "SplittingField.lattice_report", None),
    ("splitting", "SplittingField.fixed_field", None),
    ("splitting", "SplittingField.apply", None),
    ("splitting", "SplittingField.orbit", None),
    ("splitting", "FieldElt.__mul__", None),
    ("splitting", "FieldElt.inverse", None),
    ("splitting", "witt_beta_rho", None),
    ("linalg", "nullspace", None),
    ("linalg", "rref", None),
    ("linalg", "in_span", None),
    ("qforms", "equivalent", None),
    ("qforms", "hilbert", None),
    ("qforms", "relevant_places", None),
    ("qforms", "sl_search", None),
)

CACHED = (("groups", "fingerprint"), ("groups", "order16_stock_models"),
          ("groups", "_nonabelian_registry"), ("oracle", "stock_models"))

NOTES = {
    "arg0": lambda args, result: args[0],
    "len": lambda args, result: len(result),
    "census_total": lambda args, result: result.total,
}


class Tracer:
    """Spans of one process: [name index, start ns, end ns, parent, note]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str, note=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced


def install(tracer: Tracer, package) -> dict:
    """Wrap every TRACED callable and rebind all references to it.

    Returns the original callables by span name, for cache_info().
    """
    import importlib

    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                           for m in sorted({m for m, _, _ in TRACED})]
    modules.append(importlib.import_module(f"{package.__name__}.cli"))
    originals = {}
    for mod_name, path, note in TRACED:
        owner = importlib.import_module(f"{package.__name__}.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        fn = owner.__dict__[attr]
        name = f"{mod_name}.{path}"
        wrapped = tracer.wrap(fn, name, NOTES.get(note))
        originals[name] = fn
        # the attribute itself and any alias of it (FieldElt.__rmul__)
        for key, value in list(owner.__dict__.items()):
            if value is fn:
                setattr(owner, key, wrapped)
        # copies made by `from .x import name` in other modules
        if not cls_path:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
    return originals


def main() -> int:
    out_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: traced_cli.py OUT -- ARGV...")
    argv = sys.argv[3:]
    t0 = time.perf_counter()
    import pureoctic
    import pureoctic.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    originals = install(tracer, pureoctic)
    main_fn = tracer.wrap(pureoctic.cli.main, "cli.main")
    try:
        return main_fn(argv)
    finally:
        caches = {}
        for mod, attr in CACHED:
            info = originals[f"{mod}.{attr}"].cache_info()
            caches[f"{mod}.{attr}"] = [info.hits, info.misses]
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "names": tracer.names,
                       "spans": tracer.spans, "caches": caches}, fh)


if __name__ == "__main__":
    sys.exit(main())
