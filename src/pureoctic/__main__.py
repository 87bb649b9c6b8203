"""`python -m pureoctic` and the installed `pureoctic` command: one request
per process.

`run` turns the cyclic garbage collector off before it imports `cli`,
and ends the process at `os._exit` once `cli.exit_code` has flushed
stdout and stderr once more, so the interpreter runs no final collection
and no module teardown, and the OS takes the memory back whole.  A
well-formed request builds no argparse parser and leaves no cyclic
garbage, however large its input: a test pins that, so no reference
cycle can grow while the collector is off.  Library, test and profiler
callers call `cli.main`.  The exit codes are `cli.main`'s, or argparse's
for `--help` and a usage error; `cli._flush` writes every byte.
"""

import gc
import os


def run() -> None:
    gc.disable()
    from .cli import exit_code, main
    try:
        code = main()
    except SystemExit as exc:
        # argparse, after `--help` or a usage error
        code = exc.code
    os._exit(exit_code(code))


if __name__ == "__main__":
    run()
