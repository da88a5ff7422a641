#!/usr/bin/env python3
"""tsvlab benchmark: closed-loop workloads, end-to-end metrics, traced layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli-files --seed 1 --seconds 30 --trace 0

One client issues one op at a time and waits for its answer. Each op's
output is checked against the benchmark's own reference answer (bench/
reference.py) outside the timed interval. With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` a traced pass over a
fixed number of ops reports the per-layer metrics and the scaling probe.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

import hostspeed
import probe
import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "tsvlab"

DEFAULT_SEED = 1
SETUP_REPEATS = 9
#: p90 needs ten samples beyond it
MIN_TIMED_OPS = 100

IO_METRICS = ("cli.csv_rows", "cli.csv_bytes", "cli.stdout_bytes")
PEAK_METRICS = ("measure.mc_peak_mb", "measure.pointer_peak_mb")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# a fresh interpreter imports tsvlab and its CLI, then exits
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import tsvlab, tsvlab.cli; "
    "sys.exit(0 if tsvlab.__file__.startswith(sys.argv[1]) else 3)"
)


class BenchError(Exception):
    """The benchmark cannot run here (for example, tsvlab's source is missing)."""


def import_tsvlab():
    if not (SRC / "tsvlab" / "__init__.py").is_file():
        raise BenchError(f"no tsvlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tsvlab
    import tsvlab.cli

    if not Path(tsvlab.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported tsvlab from {tsvlab.__file__}, not from {SRC}")
    return tsvlab


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from the suffix of its second name part."""
    kind = name.split(".")[1]
    if kind.endswith("_ms"):
        return "ms"
    if kind.endswith("_s"):
        return "s"
    if kind.endswith("_mb"):
        return "MB"
    if "bytes" in kind:
        return "B"
    if kind.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, grouped by layer."""
    names = [*tracing.LayerStats().metrics(Counter()), *IO_METRICS, *PEAK_METRICS,
             "trace.overhead_frac", *probe.PROBE_METRICS]
    order = (*tracing.LAYERS, "bench", "trace", "probe")
    return sorted(names, key=lambda name: order.index(name.split(".")[0]))


def fresh_import_s() -> float:
    """Wall time for a fresh interpreter to start, import tsvlab and its CLI, and exit."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"fresh interpreter could not import tsvlab: {done.stderr.strip()}")
    return elapsed


def blas_record() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"blas": f"{info.get('name')} {info.get('version')}", "blas_threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for lib in libs:
            cdll = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(cdll, symbol, None)
                if getter is not None:
                    record["blas_threads"] = int(getter())
                    return record
    except OSError:
        pass
    return record


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_record(),
        "machine": platform.machine(),
    }


class Runner:
    """Executes ops one at a time, times ``run``, checks outside the timing."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def execute(self, op, after_run=None) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            elapsed = time.perf_counter() - start
            self.failures.append((op.label, f"raised {type(exc).__name__}: {exc}"))
            return elapsed
        elapsed = time.perf_counter() - start
        if after_run is not None:
            after_run(op, elapsed, result)
        try:
            op.check(result)
        except reference.Mismatch as exc:
            self.failures.append((op.label, str(exc)))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self.failures.append((op.label, f"unreadable output: {type(exc).__name__}: {exc}"))
        return elapsed

    def period(self, ops, length: int, after_run=None) -> list:
        """Run the next ``length`` ops; returns their latencies."""
        return [self.execute(next(ops), after_run) for _ in range(length)]


def timed_run(tl, workload_cls, seed, seconds, workdir) -> tuple:
    setup = [fresh_import_s()]  # also fails fast when the source cannot be imported
    workload = workload_cls(tl, seed, workdir)
    runner = Runner()
    ops = workload.ops()
    runner.period(ops, workload.period)  # warm-up
    kernel = hostspeed.HostKernel()
    kernel.measure()
    latencies = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(latencies) < MIN_TIMED_OPS or time.perf_counter() < deadline:
        latencies += runner.period(ops, workload.period,
                                   lambda op, elapsed, result: kernel.after_op(elapsed))
        # spread the fresh interpreters over the run, between periods
        due = len(setup) * seconds / SETUP_REPEATS
        if len(setup) < SETUP_REPEATS and time.perf_counter() - start >= due:
            setup.append(fresh_import_s())
    while len(setup) < SETUP_REPEATS:
        setup.append(fresh_import_s())
    unscaled = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
    }
    host = kernel.factor()
    metrics = {
        "setup_s": unscaled["setup_s"] * host,
        "ops_per_s": unscaled["ops_per_s"] / host,
        "op_p50_ms": unscaled["op_p50_ms"] * host,
        "op_p90_ms": unscaled["op_p90_ms"] * host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"timed_ops": len(latencies), "setup_samples": len(setup), "host_factor": host,
             "host_samples": len(kernel.samples), "unscaled": unscaled}
    return runner, metrics, notes


def traced_run(tl, workload_cls, seed, workdir) -> tuple:
    workload = workload_cls(tl, seed, workdir)
    runner = Runner()
    tracer = tracing.Tracer()
    stats = tracing.LayerStats()
    io_counts = dict.fromkeys(IO_METRICS, 0)

    def record(op, elapsed, result):
        stats.add_op(tracer.take(), elapsed)
        stdout = getattr(result, "stdout", None)
        if stdout is not None:
            io_counts["cli.stdout_bytes"] += len(stdout.encode("utf-8"))
        if op.csv is not None:
            io_counts["cli.csv_bytes"] += op.csv.stat().st_size
            with open(op.csv, "rb") as handle:
                io_counts["cli.csv_rows"] += sum(1 for _ in handle) - 1

    runner.period(workload.ops(), workload.period)  # warm-up
    # the same ops untraced and traced, alternating by period so host drift hits both alike
    untraced_ops, traced_ops = workload.ops(), workload.ops()
    untraced = traced = 0.0
    for _ in range(workload.trace_periods):
        untraced += sum(runner.period(untraced_ops, workload.period))
        patch = tracing.install(tracer, tl)
        try:
            traced += sum(runner.period(traced_ops, workload.period, record))
        finally:
            patch.undo()

    peaks = dict.fromkeys(PEAK_METRICS, 0.0)
    patch = tracing.install_peak_probes(tl, peaks)
    tracemalloc.start()
    try:
        runner.period(workload.ops(), workload.period)
    finally:
        tracemalloc.stop()
        patch.undo()

    metrics = stats.metrics(tracer.counts)
    metrics.update({k: float(v) for k, v in io_counts.items()})
    metrics.update(peaks)
    # untraced minus traced ops_per_s over the same ops, as a share of untraced
    metrics["trace.overhead_frac"] = 1.0 - untraced / traced
    metrics.update(probe.run_probe(tl, seed, workdir))
    names = per_layer_names()
    if set(metrics) != set(names):
        raise BenchError(f"traced metrics differ from the declared ones: {set(metrics) ^ set(names)}")
    notes = {"traced_ops": stats.ops, "not_run": probe.NOT_RUN}
    return runner, {name: metrics[name] for name in names}, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall time of the timed phase (whole periods, at least 100 ops)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        tl = import_tsvlab()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            runner, metrics, notes = traced_run(tl, workload_cls, args.seed, workdir)
        else:
            runner, metrics, notes = timed_run(tl, workload_cls, args.seed, args.seconds, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    print(f"ops attempted {runner.attempted}  failed {failed}  "
          f"failed_frac {failed / runner.attempted:.6g}")
    for label, message in runner.failures[:20]:
        print(f"FAILED {label}: {message}")
    units = END_TO_END_UNITS if not args.trace else {k: unit_of(k) for k in metrics}
    for name in metrics:
        print(f"  {name:34s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
