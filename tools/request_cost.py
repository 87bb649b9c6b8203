"""Print what each request loads, in the units that stay put from host to
host: the stdlib modules imported beyond `python -S` and `runpy`, and the
physical lines of the `pureoctic` modules imported, which a run without
cached bytecode compiles on every request.  The requests are those of the
ROADMAP Baseline tables and one of each shape the benchmark in `coldbench/`
sends.

Run from anywhere, on the Python to be measured; it needs only the stdlib:

    python tools/request_cost.py

Each request runs in its own `python -S` child with `src` first on its path.
This is a record, not a gate: the module-set tests in tests/test_cli.py pin
the sets, and nothing here fails on a change.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REQUESTS = (
    ("--help",),
    ("classify", "9"),
    ("lattice", "3"),
    ("witt-verify", "3"),
    ("embed", "2", "3", "-2", "--compare"),
    ("oracle", "9", "--primes", "20000"),
    ("group-identify", "QD16"),
    # the shapes of the benchmark's requests, whose JSON loads `jsonout`
    ("lattice", "3", "--format", "json"),
    ("witt-verify", "3", "--format", "json"),
    ("embed", "2", "3", "-2", "--compare", "--format", "json"),
    ("sl-search", "2", "3", "-2", "--format", "json"),
    ("oracle", "9", "--primes", "50000", "--format", "json"),
)
# prints, as its last two stderr lines, the stdlib modules and then the
# package modules imported beyond the floor; the request's own output is
# dropped.  The request ends the process at os._exit, which reports first
_PROBE = """
import os, runpy, sys
floor = set(sys.modules)

def report_and_exit(code, _exit=os._exit):
    fresh = set(sys.modules) - floor
    ours = {m for m in fresh if m.partition(".")[0] == "pureoctic"}
    print(" ".join(sorted(fresh - ours)), " ".join(sorted(ours)), sep="\\n",
          file=sys.stderr, flush=True)
    _exit(code)

os._exit = report_and_exit
sys.argv = ["pureoctic", *sys.argv[1:]]
runpy.run_module("pureoctic", run_name="__main__", alter_sys=True)
"""


def _source(module: str) -> Path:
    # runpy runs the package's __main__.py as `__main__`, so it is never a
    # `pureoctic.` module, but every request compiles it too
    package, _, name = module.partition(".")
    return SRC / package / f"{name or '__init__'}.py"


def request_cost(argv) -> tuple[int, list[str], dict[str, int]]:
    """(exit code, stdlib modules beyond the floor, physical lines of each
    package module, `__main__` included) of one `pureoctic ARGV` request."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    stdlib, package = (line.split() for line in proc.stderr.splitlines()[-2:])
    return proc.returncode, stdlib, {
        m: len(_source(m).read_bytes().splitlines())
        for m in sorted(package + ["pureoctic.__main__"])}


def main() -> None:
    bytecode = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"Python {sys.version.split()[0]}, bytecode writing {bytecode}")
    for argv in REQUESTS:
        code, stdlib, package = request_cost(argv)
        print(f"\n{' '.join(argv)}: exit {code}")
        print(f"  stdlib beyond -S and runpy ({len(stdlib)}): {' '.join(stdlib)}")
        print(f"  pureoctic ({len(package)} modules, {sum(package.values())} lines):",
              ", ".join(f"{m.partition('.')[2] or m} {n}" for m, n in package.items()))


if __name__ == "__main__":
    main()
