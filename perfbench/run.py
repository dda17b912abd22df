"""Benchmark of aperiodica: time to a verified result on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out results.jsonl]

Runs one workload in this process.  Set-up (import plus one tiny pass) is
measured here and in fresh processes; then passes run until `--seconds`
have passed and at least the workload's minimum number of passes is done.
Every pass is checked against closed forms or in-memory oracles.

With `--trace 0` the end-to-end metrics are reported; with `--trace 1`
every second pass records spans around the library calls and the per-layer
metrics are reported, with the tracing overhead (median traced pass minus
median untraced pass); the spans go to `.perfbench/trace-*.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--out` appends the full
result row (metrics, checks, seed, commit, machine and versions) to a JSON
lines file, which `compare.py` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

from warmup import ROOT, WORK, add_source_path, make_workdir, setup

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3          # fresh-process set-ups, besides this process's own
MAX_SECONDS = 120.0       # passes stop here even below the minimum count
BLAS_THREADS = 2          # the benchmark runs on 2 cores at most


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the result row to this JSON lines file")
    return p.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_thread_count() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_thread_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def probe_setup_seconds(name: str, probes: int) -> list[float]:
    """Set-up seconds of `probes` fresh processes."""
    times = []
    for _ in range(probes):
        out = subprocess.run([sys.executable, os.path.join(HERE, "warmup.py"), name],
                             capture_output=True, text=True, timeout=30,
                             cwd=ROOT, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def run_passes(workload, tracer, checks, seconds: float, trace: bool):
    """Run passes; returns their wall times, split into traced and untraced."""
    times = {True: [], False: []}
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_SECONDS or (i >= workload.min_passes and elapsed >= seconds):
            break
        tracer.enabled = trace and i % 2 == 1
        tracer.op = i
        t0 = time.perf_counter()
        try:
            workload.run_pass(i)
        except Exception as exc:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            checks.raised(f"pass {i}", exc)
        times[tracer.enabled].append(time.perf_counter() - t0)
        i += 1
    tracer.enabled = False
    try:
        workload.finish()
    except Exception as exc:
        traceback.print_exc()
        checks.raised("seed-averaged checks", exc)
    return times


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            probes: int = SETUP_PROBES):
    """One benchmark run of workload `name`: set-up, passes and checks.
    Returns the result row with the check ledger, the tracer and the pass
    times behind it.  `tiny` runs the smoke-test sizes."""
    setup_times = [setup(name)]  # this process's own set-up
    setup_times += probe_setup_seconds(name, probes)
    import workloads
    from harness import Checks, Tracer

    tracer, checks = Tracer(), Checks()
    workdir = make_workdir()
    try:
        workload = workloads.WORKLOADS[name](seed, tiny, tracer, checks, str(workdir))
        times = run_passes(workload, tracer, checks, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        traced = max(len(times[True]), 1)
        metrics = tracer.layer_metrics(workloads.LAYERS, traced)
        overhead = statistics.median(times[True]) - statistics.median(times[False])
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.spans"] = (len(tracer.spans) / traced, "count")
    else:
        metrics = {
            "wall_s": (statistics.median(times[False]), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_ratio": ((checks.attempted - checks.failed) / max(checks.attempted, 1),
                           "ratio"),
            "dev_over_tol": (checks.dev_over_tol(), "ratio"),
        }
    row = {"workload": name, "trace": int(trace), "seconds": seconds,
           "passes": len(times[True]) + len(times[False]),
           "meta": machine_info(seed), "setup_samples": setup_times,
           "pass_samples": times[False],
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "correct": not checks.unexpected_failures}
    return row, checks, tracer, times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not add_source_path():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = threads  # before numpy loads; probes inherit it
    result, checks, tracer, times = measure(args.workload, args.seed, args.seconds,
                                            bool(args.trace))
    report(result, times, checks, tracer)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**result, "checks": [vars(r) for r in checks.rows]})
                     + "\n")
    if args.trace:
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload,
                                          "meta": result["meta"], **tracer.dump()}))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": result["metrics"]}))
    return 0


def report(result, times, checks, tracer) -> None:
    """Human-readable summary above the result line."""
    print(f"workload {result['workload']}  "
          + "  ".join(f"{k}={v}" for k, v in result["meta"].items()))
    untimed = times[False]
    print(f"passes: {len(untimed)} untraced, {len(times[True])} traced; untraced pass "
          f"seconds min {min(untimed):.4f} median {statistics.median(untimed):.4f} "
          f"max {max(untimed):.4f}; set-up samples "
          + ", ".join(f"{t:.3f}" for t in result["setup_samples"]))
    counts = Counter((r.name, r.passed) for r in checks.rows)
    first = {}
    for r in checks.rows:  # one line per distinct check and outcome
        first.setdefault((r.name, r.passed), r)
    for key, r in first.items():
        tag = "PASS" if r.passed else ("KNOWN DEFECT " + r.known_defect
                                       if r.known_defect else "FAIL")
        print(f"  {tag:<36} x{counts[key]:<3} {r.name}: deviation {r.deviation:.3e} "
              f"tolerance {r.tolerance:.3e} {r.note}")
    if result["trace"]:
        traced = max(len(times[True]), 1)
        for name, self_s in tracer.phase_self_times(traced).items():
            print(f"  phase {name}: self time {self_s:.4f} s per pass")
    for name, m in result["metrics"].items():
        if not (result["trace"] and m["value"] == 0):
            print(f"  {name} = {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
