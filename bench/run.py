"""dmlab benchmark: time to certified answers on three seeded workloads.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload dyadic_scan --seed 1 --seconds 30 --trace 0

One single-threaded process runs a closed loop: it sends the next op only
after the previous op's answer is back, then checks that answer by an
independent route (untimed).

Times are reference-normalized CPU seconds.  Each op is timed on the
process's CPU clock, which leaves out time the machine gave to other
processes.  On a shared host the CPU itself still runs up to twice as fast
for seconds at a time (while a core's other hardware thread is idle), so
right before and after each op the runner also times a fixed pure-Python
kernel that does not touch dmlab, and reports the op's time scaled to a
machine on which that kernel takes REFERENCE_S.  A change to dmlab moves the op, never the
kernel, so normalized times compare commits; the raw CPU and wall times are
printed on the ``cycle`` lines.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs one cycle with spans around dmlab's public functions and
prints the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines starting
with ``digest`` carry a hash of every certified output of a cycle, so runs of
two commits can be compared for identical answers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH, "digests.json")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 1
SETUP_PROBES = {"full": 7, "smoke": 2}
MIN_SAMPLES = 120  # so that at least 10 op times lie beyond the 90th percentile
REFERENCE_S = 0.0013  # about reference_kernel()'s CPU time on the baseline host

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time import, input generation and first calls, then exit")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's cycle-0 answer digests as the expected ones")
    return ap.parse_args(argv)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def reference_kernel():
    """Fixed pure-Python work that does not touch dmlab: build and use a
    small argparse parser.  Across the host's speed changes this object-heavy
    interpreter work tracked dmlab's ops (CLI calls and long scans alike)
    more closely than kernels of rational, big-integer or JSON work did."""
    parser = argparse.ArgumentParser(prog="reference")
    verbs = parser.add_subparsers(dest="verb")
    for i in range(6):
        verb = verbs.add_parser(f"verb{i}")
        for j in range(4):
            verb.add_argument(f"--option{j}")
    return parser.parse_args(["verb3", "--option1", "x"])


def speed_scale() -> float:
    """REFERENCE_S over the kernel's current CPU time (best of two): the
    factor that maps CPU seconds now to CPU seconds at reference speed."""
    best = None
    for _ in range(2):
        start = time.process_time()
        reference_kernel()
        took = time.process_time() - start
        best = took if best is None else min(best, took)
    return REFERENCE_S / best


def setup_probe(args) -> None:
    """Everything a fresh process pays before its first op: importing dmlab,
    generating the inputs, building the CLI parser and the enclosure tables."""
    start = time.process_time()
    from fractions import Fraction

    import dmlab.cli
    import dmlab.enclosure
    from workloads import build_cycle

    build_cycle(args.workload, args.seed, 0, args.size)
    dmlab.cli.build_parser()
    dmlab.enclosure.pow_bounds(Fraction(3, 2), Fraction(1, 3))
    took = time.process_time() - start
    for _ in range(5):  # let the interpreter specialize the kernel's bytecode
        reference_kernel()
    print(repr(took * speed_scale()))


def measure_setup(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    times = []
    for i in range(SETUP_PROBES[args.size] + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            fail(f"setup probe failed: {done.stderr.strip()[-500:]}")
        if i:  # the first probe only warms the file cache and bytecode
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Runs ops, checks their answers and keeps the per-op record."""

    def __init__(self, args, expected):
        self.args = args
        self.expected = expected  # cycle-0 op digests at the default seed, or None
        self.latencies: list[float] = []
        self.cycle_latencies: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_cycle(self, cycle: int, tracer=None) -> tuple[float, str]:
        """Run one cycle; return its summed raw CPU op time and its answer
        digest.  The normalized op times go to `cycle_latencies`."""
        from workloads import build_cycle

        ops = build_cycle(self.args.workload, self.args.seed, cycle, self.args.size)
        busy = 0.0
        op_digests = []
        self.cycle_latencies.append([])
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            self.attempted += 1
            scale = speed_scale()
            start = time.process_time()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a raising op is a failed op; keep going
                result, error = None, f"{type(exc).__name__}: {exc}"
            took = time.process_time() - start
            if tracer is not None:
                tracer.op_id = None  # checks call dmlab too; keep them out of the spans
            busy += took
            took *= (scale + speed_scale()) / 2  # host speed before and after the op
            self.latencies.append(took)
            self.cycle_latencies[-1].append(took)
            digest = "error"
            if error is None:
                try:
                    op.check(result)
                    digest = hashlib.sha256(f"{op.label}\n{op.canon(result)}".encode()).hexdigest()[:16]
                except Exception as exc:  # CheckFailed, or a malformed answer
                    error = f"{type(exc).__name__}: {exc}"
            if error is None and cycle == 0 and self.expected is not None:
                if i >= len(self.expected) or self.expected[i] != digest:
                    error = "answer differs from the stored default-seed digest"
            if error is not None:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"cycle {cycle} op {i} [{op.label}]: {error}"[:400])
            op_digests.append(digest)
        self.cycle_digests = op_digests
        return busy, hashlib.sha256("".join(op_digests).encode()).hexdigest()


def load_expected(args):
    if args.size != "full" or args.seed != DEFAULT_SEED or args.record_digests:
        return None
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh).get(args.workload)
    except FileNotFoundError:
        return None


def record_digests(workload: str, digests: list[str]) -> None:
    stored = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    stored[workload] = digests
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(args, runner: Runner) -> dict:
    setup_s = measure_setup(args)
    started = time.perf_counter()
    cycle = 0
    while True:
        wall = time.perf_counter()
        cpu, digest = runner.run_cycle(cycle)
        wall = time.perf_counter() - wall
        if cycle == 0 and args.record_digests:
            record_digests(args.workload, runner.cycle_digests)
        print(f"digest cycle={cycle} {digest}")
        print(f"cycle {cycle}: {len(runner.cycle_latencies[-1])} ops, normalized {sum(runner.cycle_latencies[-1]):.3f}s, "
              f"op cpu {cpu:.3f}s, wall {wall:.3f}s")
        cycle += 1
        # whole cycles only, so every run sees the same mix of ops
        if time.perf_counter() - started >= args.seconds and len(runner.latencies) >= MIN_SAMPLES:
            break
    lat = runner.latencies
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    beyond = sum(1 for v in lat if v > p90)
    print(f"cycles {cycle}, samples {len(lat)}, {beyond} beyond p90, "
          f"failed_frac {runner.failed / runner.attempted}")
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def traced_run(args, runner: Runner) -> dict:
    from tracing import TRACED, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        _, digest = runner.run_cycle(0, tracer)
    finally:
        tracer.uninstall()
    print(f"digest cycle=0 {digest}")
    n_ops = len(runner.latencies)
    runner.run_cycle(0)
    traced, plain = (len(c) / sum(c) for c in runner.cycle_latencies)

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{args.workload}-{args.size}-seed{args.seed}.jsonl")
    tracer.write(path)
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")

    bracket = tracer.ops_touching("measure.interval_mass")
    grid = tracer.ops_touching("measure.dyadic_cdf_grid") - bracket
    out = {}
    for home, func in TRACED:
        name = f"{home}.{func}"
        out[f"{name}.calls"] = metric(tracer.calls[name], "count")
        out[f"{name}.self_s"] = metric(tracer.self_s[name], "s")
    out["enclosure.refine.attempts"] = metric(tracer.counts["enclosure.refine.attempts"], "count")
    out["reports.dump_report.bytes"] = metric(tracer.counts["reports.dump_report.bytes"], "B")
    out["ops.grid_path_share"] = metric(len(grid) / n_ops, "frac")
    out["ops.bracket_path_share"] = metric(len(bracket) / n_ops, "frac")
    out["trace.ops_per_s_untraced"] = metric(plain, "1/s")
    out["trace.ops_per_s_traced"] = metric(traced, "1/s")
    out["trace.overhead_ops_per_s"] = metric(plain - traced, "1/s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "dmlab")):
        fail(f"no dmlab sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    if args.setup_probe:
        setup_probe(args)
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    runner = Runner(args, load_expected(args))
    metrics = traced_run(args, runner) if args.trace else untraced_run(args, runner)
    for line in runner.failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
