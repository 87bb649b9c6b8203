"""Cold-CLI benchmark for pureoctic.

    python3 coldbench/run.py --workload oracle|lattice|embed --seed N
                             --seconds S --trace 0|1

Run from anywhere; the program is taken from `src/` next to this
directory.  One client sends requests in a closed loop: each request is a
fresh `python -m pureoctic <subcommand> ... --format json` process, so it
pays the interpreter start, the imports and every lazy self-check exactly
as a user's call does.  Requests come in stratified rounds (see
workloads.py).  A run measures a fixed number of whole rounds, RUN_ROUNDS
scaled by S / 30, so that it takes about S seconds and a seed always
measures the same requests, however fast the host is.

A shared VM's speed can drift by 1.7x within minutes.  So every timed
process runs between two runs of probe.py, a fixed cold job that does not
use the program, and its wall time is reported rescaled to a host on which
the probe takes PROBE_REF_S: wall * PROBE_REF_S / (mean of the two probe
times).  throughput_rps is completed requests per second of rescaled
request time.  The raw wall-time figures are on the `run:` line.

--trace 0 prints the end-to-end metrics.  --trace 1 replays a fixed prefix
of the same requests (TRACE_ROUNDS rounds, whatever S is, so call counts
depend on the seed alone), each once plainly and once through
traced_cli.py, checks that both print the same bytes, and prints the
per-layer metrics summed over the prefix.

Every output is checked.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Exit code 2, with no
result, means the program could not be found or did not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure
import traced_cli
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

REQUEST_TIMEOUT_S = 60.0
RUN_CAP_S = 165.0      # a run ends within 180 s whatever the program does
SETUP_SAMPLES = 7
# whole rounds that take 30-45 s, probes included, on a 2-vCPU x86 VM with
# CPython 3.11
RUN_ROUNDS = {"oracle": 2, "lattice": 3, "embed": 5}
PROBE_REF_S = 0.14   # probe.py's wall time on that VM
TRACE_ROUNDS = {"oracle": 1, "lattice": 2, "embed": 3}

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_rps": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class Fatal(Exception):
    """The program cannot be measured here at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"   # same iteration orders, same call counts
    return env


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pureoctic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


class Runner:
    def __init__(self, deadline: float):
        self.env = child_env()
        self.deadline = deadline
        self.last_probe: float | None = None
        self.probes: list[float] = []

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv: list[str]) -> measure.ProcResult:
        return measure.run_process(argv, self.env, str(ROOT),
                                   min(REQUEST_TIMEOUT_S, max(self.time_left(), 0.1)))

    def cli(self, argv) -> measure.ProcResult:
        return self.run([sys.executable, "-m", "pureoctic", *argv])

    def traced(self, out: str, argv) -> measure.ProcResult:
        return self.run([sys.executable, str(HERE / "traced_cli.py"), out, "--", *argv])

    def probe(self) -> float:
        res = self.run([sys.executable, str(HERE / "probe.py")])
        if res.returncode != 0:
            raise Fatal(f"the host-speed probe failed: {res.stderr[-400:]!r}")
        self.probes.append(res.wall_s)
        return res.wall_s

    def cli_rescaled(self, argv) -> tuple[measure.ProcResult, float]:
        """A cold request between two probes, with its wall time rescaled
        to the reference host (see the module docstring)."""
        if self.last_probe is None:
            self.last_probe = self.probe()
        res = self.cli(argv)
        after = self.probe()
        scale = PROBE_REF_S / ((self.last_probe + after) / 2)
        self.last_probe = after
        return res, res.wall_s * scale


def failure(req, res: measure.ProcResult, context: dict) -> str | None:
    if res.returncode is None:
        return "timed out"
    if res.returncode != 0:
        tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {res.returncode}: {' '.join(tail)}"
    return workloads.check(req, res.stdout, context)


def report_failure(req, reason: str) -> None:
    print(f"FAILED {' '.join(req.argv)}: {reason}", file=sys.stderr)


def measure_setup(runner: Runner) -> tuple[list[float], list[float]]:
    """Rescaled and raw wall times of cold `pureoctic --help` calls."""
    runner.cli(["--help"])   # writes the bytecode cache; not timed
    times, raw = [], []
    for _ in range(SETUP_SAMPLES):
        res, t = runner.cli_rescaled(["--help"])
        if res.returncode != 0 or b"usage: pureoctic" not in res.stdout:
            raise Fatal(f"`python -m pureoctic --help` failed: {res.stderr[-400:]!r}")
        times.append(t)
        raw.append(res.wall_s)
    return times, raw


def latency_value(values: list[float], q: float) -> float:
    """A percentile that lands on a failure (+inf) reads as the timeout."""
    v = measure.percentile(values, q)
    return REQUEST_TIMEOUT_S if v == measure.INF else v


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(RUN_ROUNDS[workload] * seconds / 30))


def untraced_run(workload: str, seed: int, seconds: float, runner: Runner):
    setup, setup_raw = measure_setup(runner)
    latencies, raw, context = [], [], {}
    busy = 0.0   # rescaled time spent in requests, failed ones included
    ok = 0
    rounds = rounds_for(workload, seconds)
    start = time.perf_counter()
    for r in range(rounds):
        for req in workloads.requests(workload, seed, r):
            if runner.time_left() <= 0:
                break
            res, t = runner.cli_rescaled(req.argv)
            busy += t
            raw.append(res.wall_s)
            reason = failure(req, res, context)
            if reason is None:
                ok += 1
                latencies.append(t)
            else:
                report_failure(req, reason)
                latencies.append(measure.INF)
    wall = time.perf_counter() - start
    n = len(latencies)
    if n == 0:
        raise Fatal("no request ran before the run's time cap")
    q_tail = measure.tail_percentile(n)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": latency_value(latencies, 50),
        "latency_tail_s": latency_value(latencies, q_tail),
        "throughput_rps": ok / busy,
        "ok_frac": ok / n,
        "peak_rss_mb": measure.children_peak_rss_mb(),
    }
    detail = {"rounds": rounds, "requests": n, "tail_percentile": q_tail,
              "tail_samples_beyond": measure.beyond(n, q_tail),
              "run_wall_s": wall,
              "raw_setup_p50_s": statistics.median(setup_raw),
              "raw_latency_p50_s": statistics.median(raw),
              "raw_throughput_rps": ok / sum(raw),
              "probe_p50_s": statistics.median(runner.probes)}
    return metrics, END_TO_END_UNITS, n, n - ok, detail


# --- traced run --------------------------------------------------------------

# per-layer metrics read off one traced span name: metric -> (span, field);
# every per-layer value is a sum over the traced requests
SPAN_METRICS = {
    "groups.closure.calls": ("groups.closure", "calls"),
    "groups.closure.self_s": ("groups.closure", "self"),
    "groups.FinGroup.init_calls": ("groups.FinGroup.__init__", "calls"),
    "groups.FinGroup.init_self_s": ("groups.FinGroup.__init__", "self"),
    "groups.subgroups.total_s": ("groups.FinGroup.subgroups", "total"),
    "groups.fingerprint.total_s": ("groups.fingerprint", "total"),
    "groups.identify.total_s": ("groups.identify", "total"),
    "oracle.stock_models.total_s": ("oracle.stock_models", "total"),
    "oracle.census.total_s": ("oracle.census", "total"),
    "oracle.consistent.total_s": ("oracle.consistent", "total"),
    "arith.is_prime.calls": ("arith.is_prime", "calls"),
    "arith.primes_below.total_s": ("arith.primes_below", "total"),
    "splitting.SplittingField.init_s": ("splitting.SplittingField.__init__", "total"),
    "splitting.lattice_report.total_s": ("splitting.SplittingField.lattice_report", "total"),
    "splitting.fixed_field.calls": ("splitting.SplittingField.fixed_field", "calls"),
    "splitting.fixed_field.self_s": ("splitting.SplittingField.fixed_field", "self"),
    "splitting.FieldElt.mul_calls": ("splitting.FieldElt.__mul__", "calls"),
    "splitting.FieldElt.mul_self_s": ("splitting.FieldElt.__mul__", "self"),
    "splitting.FieldElt.inverse_calls": ("splitting.FieldElt.inverse", "calls"),
    "splitting.apply.calls": ("splitting.SplittingField.apply", "calls"),
    "splitting.witt_beta_rho.total_s": ("splitting.witt_beta_rho", "total"),
    "linalg.nullspace.calls": ("linalg.nullspace", "calls"),
    "linalg.rref.self_s": ("linalg.rref", "self"),
    "linalg.in_span.calls": ("linalg.in_span", "calls"),
    "arith.factor.calls": ("arith.factor", "calls"),
    "arith.factor.self_s": ("arith.factor", "self"),
    "arith.squarefree_part.calls": ("arith.squarefree_part", "calls"),
    "arith.nth_root.total_s": ("arith.nth_root", "total"),
    "qforms.equivalent.calls": ("qforms.equivalent", "calls"),
    "qforms.equivalent.self_s": ("qforms.equivalent", "self"),
    "qforms.hilbert.calls": ("qforms.hilbert", "calls"),
    "qforms.hilbert.self_s": ("qforms.hilbert", "self"),
    "qforms.relevant_places.total_s": ("qforms.relevant_places", "total"),
    "qforms.sl_search.total_s": ("qforms.sl_search", "total"),
    "binomial.classify_octic.total_s": ("binomial.classify_octic", "total"),
    "cli.main.total_s": ("cli.main", "total"),
}

# per-layer metrics computed from notes, caches and timings
DERIVED_UNITS = {
    "groups.subgroups.closures_per_subgroup": "ratio",
    "oracle.census.primes": "count",
    "oracle.factor_mod_p.us_per_prime": "us",
    "splitting.orbit.per_fixed_field": "ratio",
    "arith.factor.distinct_frac": "ratio",
    "cli.import_s": "s",
    "trace.overhead_p50_s": "s",
}

PER_LAYER_UNITS = {
    **{name: "count" if field == "calls" else "s"
       for name, (_, field) in SPAN_METRICS.items()},
    **{f"{mod}.{attr}.cache_{kind}": "count"
       for mod, attr in traced_cli.CACHED for kind in ("hits", "misses")},
    **DERIVED_UNITS,
}


class LayerTotals:
    """Per-layer sums over the traced requests of one run."""

    def __init__(self):
        self.stats: dict[str, measure.SpanStats] = {}
        self.caches = {f"{mod}.{attr}": [0, 0] for mod, attr in traced_cli.CACHED}
        self.import_s = 0.0
        self.subgroup_closures = 0     # closure calls made by subgroups()
        self.subgroups_found = 0       # subgroups those calls produced
        self.census_primes = 0
        self.factor_distinct = 0

    def add(self, trace: dict) -> None:
        names, spans = trace["names"], trace["spans"]
        for name, st in measure.aggregate(names, spans).items():
            acc = self.stats.setdefault(name, measure.SpanStats())
            acc.calls += st.calls
            acc.total_ns += st.total_ns
            acc.self_ns += st.self_ns
        for name, (hits, misses) in trace["caches"].items():
            self.caches[name][0] += hits
            self.caches[name][1] += misses
        self.import_s += trace["import_s"]
        closures_under: dict[int, int] = {}
        factor_inputs = set()
        for nid, _, _, parent, note in spans:
            name = names[nid]
            if name == "groups.closure" and parent >= 0 \
                    and names[spans[parent][0]] == "groups.FinGroup.subgroups":
                closures_under[parent] = closures_under.get(parent, 0) + 1
            elif name == "oracle.census":
                self.census_primes += note
            elif name == "arith.factor":
                factor_inputs.add(note)
        self.subgroup_closures += sum(closures_under.values())
        self.subgroups_found += sum(spans[i][4] for i in closures_under)
        self.factor_distinct += len(factor_inputs)

    def field(self, span: str, what: str):
        st = self.stats.get(span, measure.SpanStats())
        if what == "calls":
            return st.calls
        return (st.total_ns if what == "total" else st.self_ns) / 1e9

    def metrics(self, overhead_s: float) -> dict:
        def ratio(a, b):
            return a / b if b else 0.0

        m = {name: self.field(*spec) for name, spec in SPAN_METRICS.items()}
        for name, (hits, misses) in self.caches.items():
            m[f"{name}.cache_hits"] = hits
            m[f"{name}.cache_misses"] = misses
        m["groups.subgroups.closures_per_subgroup"] = ratio(
            self.subgroup_closures, self.subgroups_found)
        m["oracle.census.primes"] = self.census_primes
        m["oracle.factor_mod_p.us_per_prime"] = 1e6 * ratio(
            self.field("oracle.factor_mod_p", "total"),
            self.field("oracle.factor_mod_p", "calls"))
        m["splitting.orbit.per_fixed_field"] = ratio(
            self.field("splitting.SplittingField.orbit", "calls"),
            self.field("splitting.SplittingField.fixed_field", "calls"))
        m["arith.factor.distinct_frac"] = ratio(
            self.factor_distinct, self.field("arith.factor", "calls"))
        m["cli.import_s"] = self.import_s
        m["trace.overhead_p50_s"] = overhead_s
        return m


def traced_run(workload: str, seed: int, runner: Runner):
    reqs = [req for r in range(TRACE_ROUNDS[workload])
            for req in workloads.requests(workload, seed, r)]
    totals = LayerTotals()
    plain_times, traced_times = [], []
    context: dict = {}
    failed = 0
    with tempfile.TemporaryDirectory(prefix=".coldbench-", dir=ROOT) as tmp:
        for i, req in enumerate(reqs):
            if runner.time_left() <= 0:
                break
            out = os.path.join(tmp, f"trace-{i}.json")
            plain = runner.cli(req.argv)
            traced = runner.traced(out, req.argv)
            reason = failure(req, plain, context)
            if reason is None and (traced.returncode != plain.returncode
                                   or traced.stdout != plain.stdout):
                reason = "traced stdout or exit code differs from the plain run"
            if reason is not None:
                report_failure(req, reason)
                failed += 1
            plain_times.append(plain.wall_s)
            traced_times.append(traced.wall_s)
            if os.path.exists(out):
                with open(out) as fh:
                    totals.add(json.load(fh))
    if not plain_times:
        raise Fatal("no request ran before the run's time cap")
    # paired per-request differences cancel the host's slow speed drift
    overhead = statistics.median(t - p for t, p in zip(traced_times, plain_times))
    detail = {"traced_requests": len(plain_times), "planned_requests": len(reqs),
              "plain_p50_s": statistics.median(plain_times),
              "traced_p50_s": statistics.median(traced_times)}
    return totals.metrics(overhead), PER_LAYER_UNITS, len(plain_times), failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the request under way is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    start = time.perf_counter()
    if not (SRC / "pureoctic" / "cli.py").is_file():
        print(f"error: no pureoctic sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(start + RUN_CAP_S)
    info = {"workload": args.workload, "seed": args.seed, **environment()}
    try:
        if args.trace:
            metrics, units, attempted, failed, detail = traced_run(
                args.workload, args.seed, runner)
        else:
            metrics, units, attempted, failed, detail = untraced_run(
                args.workload, args.seed, args.seconds, runner)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info.update(detail)
    print("run: " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:44s} {value:>14.6f} {units[name]}")
    print(f"checks: {attempted - failed}/{attempted} requests correct")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
