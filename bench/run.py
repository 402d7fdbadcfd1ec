"""Run one benchmark workload against the cartanfree sources of this checkout.

    python3 bench/run.py --workload axioms|closure|structure --seed N --seconds S --trace 0|1

Use model: one researcher runs one check at a time and waits for its
verdict (a closed loop, one client, one process, one thread).  The
workload's pass of checks (see workloads.py) is repeated until S seconds
have passed.  Every verdict is compared with the answer the paper
predicts; a wrong verdict or an exception counts as failed.

--trace 0 reports the end-to-end metrics:
    checks_per_s   checks in a pass / median time of a pass (timed calls only)
    check_p50_ms   median time to one verdict
    check_p90_ms   90th percentile time to one verdict
    setup_s        median over fresh interpreters, spawned between passes, of
                   the time to import cartanfree and cartanfree.cli and draw
                   the inputs
    peak_rss_mb    peak resident memory of this process
error_rate (failed / attempted) is printed and carried by the "failed" and
"attempted" fields; it is 0 on a correct program, so it is not a metric.

--trace 1 runs the untraced passes, then one more pass with the per-layer
wrappers of tracing.py installed, and reports the per-layer metrics.  Spans
are written to bench/out/spans-<workload>.csv.gz.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import calibrate
import locate

SPAWNS_PER_PASS = 2
MIN_SAMPLES = 110  # so at least ten checks lie beyond the 90th percentile
clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("axioms", "closure", "structure"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spawn_ready(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until ready.py prints "ready"."""
    cmd = [sys.executable, str(Path(__file__).with_name("ready.py")), workload, str(seed)]
    t0 = clock()
    proc = subprocess.Popen(cmd, cwd=locate.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = clock()
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return t1 - t0


def run_check(check, tracer=None) -> tuple[float, bool]:
    """Time check.run(), then compare its verdict with the known answer."""
    if tracer is not None:
        tracer.begin_check()
    t0 = clock()
    try:
        result = check.run()
    except Exception:
        return clock() - t0, False
    latency = clock() - t0
    try:
        with tracer.paused() if tracer is not None else nullcontext():
            ok = bool(check.verify(result))
    except Exception:
        ok = False
    return latency, ok


class Tally:
    """Normalized latencies and pass times (see calibrate.py), plus the raw ones."""

    def __init__(self):
        self.latencies: list[float] = []
        self.pass_times: list[float] = []
        self.raw_latencies: list[float] = []
        self.refs: list[float] = []  # reference times of the latest pass
        self.attempted = 0
        self.failed = 0

    def run_pass(self, checks, tracer=None) -> float:
        """Run every check once; returns the pass's normalized time."""
        self.refs = refs = [calibrate.measure()]
        raw = []
        for check in checks:
            latency, ok = run_check(check, tracer)
            refs.append(calibrate.measure())
            raw.append(latency)
            self.attempted += 1
            self.failed += not ok
        times = calibrate.normalize(raw, refs)
        if tracer is None:
            self.latencies += times
            self.raw_latencies += raw
            self.pass_times.append(sum(times))
        return sum(times)

    def run_for(self, checks, seconds: float, after_pass=None) -> None:
        """Whole passes until they add up to `seconds` and MIN_SAMPLES checks have run.

        after_pass(refs) runs after each pass, outside the pass clock.
        """
        elapsed = 0.0
        while elapsed < seconds or len(self.latencies) < MIN_SAMPLES:
            start = clock()
            self.run_pass(checks)
            elapsed += clock() - start
            if after_pass is not None:
                after_pass(self.refs)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        locate.import_package()
    except locate.MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    table_dir = locate.OUT / f"tables-{os.getpid()}"
    table_dir.mkdir(parents=True, exist_ok=True)
    try:
        checks = workloads.draw(args.workload, args.seed, table_dir)
        print(
            f"workload={args.workload} seed={args.seed} trace={args.trace} "
            f"checks_per_pass={len(checks)} inputs_sha256={workloads.inputs_digest(checks)}"
        )
        if args.trace:
            return report_traced(args, checks)
        return report_end_to_end(args, checks)
    finally:
        shutil.rmtree(table_dir, ignore_errors=True)


def report_end_to_end(args, checks) -> int:
    """Set-up spawns are spread over the run, SPAWNS_PER_PASS after each pass,
    so they see the same machine-speed phases as the checks; each is rescaled
    by the median reference time of the pass before it."""
    spawn_ready(args.workload, args.seed)  # compiles bytecode caches: a one-time cost, not timed
    setup, raw_setup = [], []

    def spawn(refs):
        for _ in range(SPAWNS_PER_PASS):
            t = spawn_ready(args.workload, args.seed)
            raw_setup.append(t)
            setup.append(t * calibrate.factor(refs))

    tally = Tally()
    tally.run_for(checks, args.seconds, after_pass=spawn)
    setup_s, raw_setup_s = statistics.median(setup), statistics.median(raw_setup)
    lat, raw = tally.latencies, tally.raw_latencies
    p90 = statistics.quantiles(lat, n=10)[8]
    metrics = {
        "checks_per_s": (len(checks) / statistics.median(tally.pass_times), "1/s"),
        "check_p50_ms": (1000 * statistics.median(lat), "ms"),
        "check_p90_ms": (1000 * p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"passes={len(tally.pass_times)} samples={len(lat)} beyond_p90={sum(x > p90 for x in lat)}")
    print(
        f"unnormalized: p50_ms={1000 * statistics.median(raw):.3f} "
        f"p90_ms={1000 * statistics.quantiles(raw, n=10)[8]:.3f} setup_s={raw_setup_s:.4f}"
    )
    return emit(tally, metrics)


def report_traced(args, checks) -> int:
    from tracing import Tracer

    tally = Tally()
    tally.run_for(checks, args.seconds)
    untraced = statistics.median(tally.pass_times)
    tracer = Tracer()
    tracer.install()
    traced = tally.run_pass(checks, tracer)
    tracer.write_spans(locate.OUT / f"spans-{args.workload}.csv.gz")
    print(f"spans={len(tracer.spans)} traced_pass_s={traced:.3f} untraced_pass_s={untraced:.3f}")
    return emit(tally, tracer.metrics(traced / untraced))


def emit(tally: Tally, metrics: dict) -> int:
    rows = {**metrics, "error_rate": (tally.failed / tally.attempted, f"ratio ({tally.failed} of {tally.attempted} failed)")}
    for name, (value, unit) in rows.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
