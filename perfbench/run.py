"""Benchmark of lqgcost's analytic routes, gain tuner and threshold simulation.

    python3 perfbench/run.py --workload routes --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` a run reports the end-to-end metrics: set-up time, peak
memory and the mean wall time of one pass over the workload's timed calls
(and of its small-system part).  With ``--trace 1`` it reports per-layer call
counts and self times from the workload's set-up and one pass, both traced,
and the tracing overhead of that pass against untraced passes of the same run.
Every output is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

import argparse
import ctypes
import ctypes.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"

#: Set-up is measured this many times per run (this process and fresh ones).
SETUP_SAMPLES = 5
#: The library's workers are the parallelism; BLAS stays single-threaded so
#: worker threads times BLAS threads never exceeds nproc.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NAMES = ("routes", "tune-plant", "sim-threshold")
#: glibc's ``mallopt`` parameter number of M_MMAP_THRESHOLD, and the value set.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 1 << 20
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s", "small_pass_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def fix_mmap_threshold():
    """Serve every allocation of 1 MiB or more by its own mapping, returned to
    the system when freed.  glibc otherwise raises the threshold after such
    a free and keeps later large arrays in the heap, so the peak memory of a
    run (the n^2 x n^2 Kronecker matrices on ``routes`` are 20 MB each) would
    follow the allocator's history: 134 or 155 MB on the same inputs."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    except (OSError, AttributeError):
        pass


def setup(name, seed):
    """Import the library and build the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[name](seed)
    return workload, time.perf_counter() - t0


def setup_in_fresh_process(name, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_passes(workload, ops, checks, budget):
    """Whole passes, at least one, while another fits in ``budget`` seconds;
    returns the per-pass timings and the peak memory after the first pass.
    Later passes repeat the same work, so they can raise the peak only through
    the allocator's history."""
    timings = []
    start = time.perf_counter()
    while not timings or (time.perf_counter() - start
                          + statistics.fmean(t["pass_s"] for t in timings) <= budget):
        outputs, times = workload.run_pass(ops)
        workload.check_pass(outputs, checks)
        timings.append(times)
        if len(timings) == 1:
            peak_mb = peak_rss_mb()
    return timings, peak_mb


def traced_pass(workload, seed, ops, checks):
    """Set-up (less the imports) and one pass, traced; returns the tracer, the
    pass timings and the per-layer metrics."""
    import tracer
    with tracer.Tracer() as tr:
        type(workload)(seed)
        outputs, times = workload.run_pass(ops)
    workload.check_pass(outputs, checks)
    metrics = {}
    for layer, (calls, self_s) in tr.per_layer().items():
        metrics[f"{layer}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
    counts = {"tune.iterations": (0, "count"), "tune.line_search_calls": (0, "count"),
              "tune.accept_ratio": (0.0, "ratio"), "simulate.path_steps": (0, "count")}
    counts.update(workload.layer_counts(tr, outputs))
    for name, (value, unit) in counts.items():
        metrics[name] = {"value": value, "unit": unit}
    return tr, times, metrics


def run_one(args):
    workload, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import workloads
    setups = [setup_s] + [setup_in_fresh_process(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    ops, checks = workloads.Operations(), workloads.Checks()
    workloads.self_test(checks)
    workload.prepare(ops, checks)

    budget = args.seconds / 2 if args.trace else args.seconds
    timings, peak_mb = timed_passes(workload, ops, checks, budget)
    # The mean, not the median: on a shared host the CPU can switch between a
    # fast and a slow state every few seconds, and a median of short passes
    # then jumps from one state to the other.
    mean = {k: statistics.fmean(t[k] for t in timings) for k in timings[0]}
    if args.trace:
        tr, traced_times, metrics = traced_pass(workload, args.seed, ops, checks)
        metrics["trace.overhead_s"] = {"value": traced_times["pass_s"] - mean["pass_s"],
                                       "unit": "s"}
    else:
        values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_mb, **mean}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    workload.finish(ops, checks)

    result = {"correct": checks.ok, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   passes=len(timings), pass_timings=timings, setup_samples=setups,
                   worker_threads=workloads.worker_threads(), checks=checks.summary(),
                   errors=ops.errors)
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        tr.write(OUT / f"{stem}-spans.csv.gz")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(timings)}  "
          f"worker threads {workloads.worker_threads()}  BLAS threads 1")
    for line in checks.lines():
        print(line)
    for error in ops.errors:
        print(f"failed {error}")
    for name, m in metrics.items():
        if not args.trace or m["value"]:
            print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"operations attempted {ops.attempted}, failed {ops.failed}")
    print(json.dumps(result))
    return 0 if checks.ok else 1


def run_all(args):
    """Every workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lqgcost" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'lqgcost'}", file=sys.stderr)
        return 2
    fix_mmap_threshold()
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
