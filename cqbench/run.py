"""cqlab benchmark: one workload, one seed, a closed loop with one client.

Usage, from the root of a source checkout:

    python3 cqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: dense_bounds, construction_verify, query_sim (see
bench_workloads.py for what each one runs and why). Tasks run back to back
in this process on one thread; the run stops at the first round boundary
after S seconds (or mid-round after 2 S). Every task's output
is checked; any failure makes the run exit with code 1.

Task and set-up times are scaled by a probe timed around them, to cancel the
changing speed of a shared core (see bench_clock.py); the raw times are
printed on comment lines. setup_s is the median over this process and
SETUP_REPEATS fresh ones, each timed from the start of this module through
importing cqlab, generating the workload's inputs and running its warm-up
tasks.

--trace 0 prints the end-to-end metrics. --trace 1 runs the untraced loop
for S/2 seconds, then wraps cqlab's public entry points and runs S/2 seconds
more; it prints the per-layer metrics and writes every span to .bench_out/.
The last line of standard output is always the JSON result. Each run also
stores its result, stamped with the backend and versions, under
.bench_out/results/ for compare.py.

cqlab is imported from src/ next to this directory; without it the run stops
with exit code 2 before printing a result.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from bench_clock import PROBE_REF_S, ScaledClock, probe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 10  # fresh set-ups in child processes, besides this one
SETUP_PROBES = 5  # probes after each set-up, to scale it by
TAIL_SAMPLES = 10  # samples required beyond the reported tail percentile


def percentile(xs, q):
    """Linear-interpolated q-quantile of xs (0 <= q <= 1)."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """0.9, or the highest quantile that leaves TAIL_SAMPLES samples above it
    when a run has fewer than 100 tasks."""
    return max(0.5, min(0.9, 1 - TAIL_SAMPLES / n))


class Loop:
    """Runs rounds of tasks and keeps per-task times, outcomes and failures."""

    def __init__(self, workload, rounds):
        self.workload = workload
        self.rounds = rounds
        self.clock = ScaledClock()
        self.times: list[float] = []  # speed-scaled seconds, see bench_clock
        self.raw_times: list[float] = []
        self.pairs: list[tuple] = []  # (task, checked output)
        self.sizes: list[float] = []
        self.queries = 0
        self.attempted = 0
        self.failures: list[str] = []

    def one(self, task, tracer=None):
        """Run, time and check one task."""
        w = self.workload
        self.attempted += 1
        if tracer is not None:
            tracer.task = self.attempted
        try:
            raw, dt, scaled = self.clock.time(w.run, task)
        except Exception:  # noqa: BLE001 - a failing task is a result, not a crash
            self.failures.append(f"{task}: raised\n{traceback.format_exc(limit=3)}")
            return
        self.raw_times.append(dt)
        self.times.append(scaled)
        out = w.finish(task, raw)
        problems = w.check(task, out)
        if problems:
            self.failures.append(f"{task}: " + "; ".join(problems))
            return
        outcome = w.outcome(task, out)
        self.pairs.append((task, out))
        if outcome.size is not None:
            self.sizes.append(outcome.size)
        self.queries += outcome.queries

    def measure(self, seconds: float, tracer=None):
        """Whole rounds until `seconds` have passed; a round still running at
        twice that is cut short, so a slow build still ends in time."""
        start = time.perf_counter()
        for tasks in self.rounds:
            for task in tasks:
                self.one(task, tracer)
                if time.perf_counter() - start >= 2 * seconds:
                    return
            if time.perf_counter() - start >= seconds:
                return


def end_to_end(loop: Loop, setup_s: float) -> dict:
    n = len(loop.times)
    busy = sum(loop.times)
    q = tail_quantile(n)
    ms = [t * 1e3 for t in loop.times]
    raw_ms = [t * 1e3 for t in loop.raw_times]
    print(f"# tasks={n} timed_s={busy:.3f} scaled, {sum(loop.raw_times):.3f} raw; "
          f"tail=p{100 * q:g} over {n} samples, {n - int(q * n)} beyond it")
    print(f"# raw tasks_per_s={n / sum(loop.raw_times):.6g} "
          f"task_p50_ms={percentile(raw_ms, 0.5):.6g} task_p90_ms={percentile(raw_ms, q):.6g}")
    return {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (n / busy, "tasks/s"),
        "task_p50_ms": (percentile(ms, 0.5), "ms"),
        "task_p90_ms": (percentile(ms, q), "ms"),
        "pass_ratio": ((loop.attempted - len(loop.failures)) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "queries_per_s": (loop.queries / busy, "queries/s"),
        "clique_size_mean": (statistics.fmean(loop.sizes) if loop.sizes else 0.0, "size"),
    }


def child_setups(args) -> list[tuple[float, float]]:
    """(set-up seconds, probe seconds) of fresh processes doing exactly this
    run's set-up."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        setup, speed = proc.stdout.split()
        out.append((float(setup), float(speed)))
    return out


def setup_probe() -> float:
    """Probe time right after set-up, the median of a few, to scale it by."""
    return statistics.median(probe() for _ in range(SETUP_PROBES))


def stamp(args, cqlab) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": cqlab.BACKEND,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cqlab": cqlab.__version__,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cqlab" / "__init__.py").is_file():
        print(f"cqbench: no cqlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cqlab
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"cqbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    loop = Loop(workload, workload.rounds(args.seed))
    warm = Loop(workload, None)
    for task in workload.warmup(args.seed):
        warm.one(task)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_s), repr(setup_probe()))
        return 0 if not warm.failures else 1
    info = stamp(args, cqlab)
    print("# stamp " + json.dumps(info, sort_keys=True))

    if args.trace == 0:
        setups = [(setup_s, setup_probe())]
        loop.measure(args.seconds)
        setups += child_setups(args)
        print("# setup_s raw " + " ".join(f"{s:.4f}" for s, _ in setups))
        scaled = [s * PROBE_REF_S / p for s, p in setups]
        print("# setup_s scaled " + " ".join(f"{s:.4f}" for s in scaled))
        metrics = end_to_end(loop, statistics.median(scaled)) if loop.times else {}
    else:
        from bench_trace import Tracer

        # half the time untraced, half traced: the difference is the overhead
        loop.measure(args.seconds / 2)
        traced = Loop(workload, loop.rounds)
        tracer = Tracer()
        tracer.install()
        try:
            traced.measure(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.json", info)
        metrics = tracer.layer_metrics(workload.layer_stats(traced.pairs))
        if loop.times and traced.times:
            plain_tps = len(loop.times) / sum(loop.times)
            traced_tps = len(traced.times) / sum(traced.times)
            metrics["trace.overhead_ratio"] = (traced_tps / plain_tps, "ratio")
        loop.attempted += traced.attempted
        loop.failures += traced.failures

    failures = warm.failures + loop.failures
    for f in failures[:20]:
        print("# FAILED " + f.replace("\n", "\n#   "))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": warm.attempted + loop.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps({"stamp": info, "result": result}, sort_keys=True))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
