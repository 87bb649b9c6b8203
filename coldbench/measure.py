"""Timing helpers: cold-process runs, percentiles that count failures as
+infinity, and span aggregation."""

from __future__ import annotations

import math
import resource
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction

INF = math.inf


@dataclass
class ProcResult:
    returncode: int | None   # None when the process was killed at the timeout
    stdout: bytes
    stderr: bytes
    wall_s: float


def run_process(argv: list[str], env: dict, cwd: str, timeout: float) -> ProcResult:
    """Run argv to completion, timing it from spawn to reap.  A child still
    running at the timeout, or at any exception here, is killed and reaped."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, stdin=subprocess.DEVNULL,
                              env=env, cwd=cwd, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return ProcResult(None, exc.stdout or b"", exc.stderr or b"",
                          time.perf_counter() - start)
    return ProcResult(proc.returncode, proc.stdout, proc.stderr,
                      time.perf_counter() - start)


def children_peak_rss_mb() -> float:
    """The largest peak resident set size of any child reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile of n samples."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile; failures enter as +inf and sort last."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(len(values), q) - 1]


TAIL_GRID = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(n: int) -> float:
    """The highest percentile of TAIL_GRID with at least 10 of n samples
    beyond it, never below the 90th: with fewer than 100 samples no
    percentile that high has 10 beyond it, and a lower one would fall into
    the body of the distribution rather than its tail."""
    for q in TAIL_GRID:
        if beyond(n, q) >= 10:
            return q
    return TAIL_GRID[-1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0   # wall time, counting nested calls of the same name once
    self_ns: int = 0    # wall time not covered by child spans


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def aggregate(names: list[str], spans: list[list]) -> dict[str, SpanStats]:
    """Per-name calls, total and self time of one request's spans.

    A span is [name index, start ns, end ns, parent index or -1, note];
    parents precede their children.  Self time is a span's duration minus
    the part of it that its child spans cover.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp[3] >= 0:
            children.setdefault(sp[3], []).append((sp[1], sp[2]))
    stats: dict[str, SpanStats] = {}
    for i, (nid, start, end, parent, _) in enumerate(spans):
        st = stats.setdefault(names[nid], SpanStats())
        st.calls += 1
        st.self_ns += (end - start) - _covered(children.get(i, []), start, end)
        nested = False
        while parent >= 0:
            if spans[parent][0] == nid:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            st.total_ns += end - start
    return stats
