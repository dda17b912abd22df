"""Set-up of a benchmark run: import the library and run one tiny pass of
the workload, so that imports, lazy imports and first-call costs are paid
before anything is timed.  Work moved into import time or into caches
filled on first use shows up here, in `setup_s`.

Run as a script, it performs the set-up in a fresh process and prints the
seconds it took:

    python3 perfbench/warmup.py tiling-diffraction
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def add_source_path() -> bool:
    """Put the checkout's `src` first on sys.path; False when the library
    source is missing."""
    if not (SRC / "aperiodica" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def make_workdir() -> Path:
    path = WORK / f"work-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def setup(name: str) -> float:
    """Seconds to import the library and run one tiny pass of `name`."""
    start = time.perf_counter()
    import workloads
    from harness import Checks, Tracer

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    workdir = make_workdir()
    try:
        workload = workloads.WORKLOADS[name](0, True, Tracer(), Checks(), str(workdir))
        workload.run_pass(0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return time.perf_counter() - start


if __name__ == "__main__":
    if len(sys.argv) != 2 or not add_source_path():
        sys.exit("usage: warmup.py WORKLOAD (run from a checkout with src/aperiodica)")
    print(f"{setup(sys.argv[1]):.6f}")
