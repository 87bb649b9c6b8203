"""`python -m pureoctic` and the installed `pureoctic` command: one request
per process.

`run` turns the cyclic garbage collector off before it imports `cli`, and
freezes every object at exit, so the interpreter's final collections skip
them and the OS takes the memory back whole.  A well-formed request
builds no argparse parser and leaves no cyclic garbage, however large its
input: a test pins that, so no reference cycle can grow while the
collector is off.  `cli.main` leaves the collector alone,
for library and test callers that run many requests in one process.  The
exit codes are `cli.main`'s: 0 success, 1 a verification failed, 2 invalid
input or an output that cannot be written.
"""

import gc
import sys


def run() -> None:
    gc.disable()
    try:
        from .cli import main
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
