"""Path log of the benchmark workloads: the path each estimator call takes.

Runs passes of each workload of perfbench/workloads.py in this process, at
the benchmark's full sizes, and prints one line per estimator call of a
pass from the plan records of spectrum._plan and autocorr._plan: workload,
pass, engine, path, N, then K, L, nf and the wrap (k0, dk, max|delta|) of
a periodogram or, of an autocorrelation, the pairs, the cut bound, how the
partners were found (scan or search), how the pairs are grouped (binned or
sorted) and the code range (lo..hi, `-` where unknown), and the estimated
ns of each candidate path.  Calls made by the workloads' set-up
are not logged, and their checks are not read.  A line
`workload pass VmHWM <MiB>` follows each pass: the process's peak resident
memory so far, as `peak_rss_mb` counts it, read from /proc/self/status
(`n/a` where that file is absent).

    PYTHONPATH=src python tests/path_log.py [--passes N] [--seed S] [workload ...]
                                            [--against FILE]

With --against, the calls are compared in order with a log saved from an
earlier run of the same arguments, by workload, pass, engine and path (the
first four fields of a line), so that a log from before a field was added
still compares: every call that differs, or the count of calls that agree,
goes to standard error, and the exit code is 1 on a difference.  The
VmHWM lines take no part in the comparison.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from harness import Checks, Tracer  # noqa: E402

from aperiodica import autocorr, spectrum  # noqa: E402
from plans import recorded  # noqa: E402


def describe(plan) -> str:
    costs = " ".join(f"{path}={ns:.4g}" for path, ns in plan.costs.items()) or "-"
    if isinstance(plan, spectrum._Plan):
        wrap = "-" if plan.wrap is None else "{:.17g},{:.17g},{:.3g}".format(
            *plan.wrap[:2], np.max(np.abs(plan.wrap[2])))
        return (f"periodogram {plan.path} N={plan.n} K={plan.count} L={plan.lattice} "
                f"nf={plan.nf} wrap={wrap} costs: {costs}")
    pairs = int(np.sum(np.arange(len(plan.first)) - plan.first))
    codes = "-" if plan.codes is None else "{}..{}".format(*plan.codes)
    return (f"autocorrelation {plan.path} N={len(plan.keys)} pairs={pairs} "
            f"bound={plan.bound:.17g} partners={plan.partners} grouping={plan.grouping} "
            f"codes={codes} costs: {costs}")


def vm_hwm() -> str:
    """The process's VmHWM in MiB, or "n/a" where /proc/self/status is absent."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return f"{int(line.split()[1]) / 1024:.2f}"
    except OSError:
        pass
    return "n/a"


def differences(saved: list[str], lines: list[str]) -> list[str]:
    """Every call whose workload, pass, engine or path differs between the
    saved lines and these."""
    found = []
    for call in range(max(len(saved), len(lines))):
        old = saved[call] if call < len(saved) else "(no call)"
        new = lines[call] if call < len(lines) else "(no call)"
        if old.split()[:4] != new.split()[:4]:
            found.append(f"call {call + 1} differs:\n  saved: {old}\n  now:   {new}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="workload", help="default: all")
    parser.add_argument("--passes", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--against", metavar="FILE",
                        help="a saved log to compare each call's path with")
    args = parser.parse_args(argv)
    lines = []
    for name in args.names or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="path-log-") as workdir:
            workload = workloads.WORKLOADS[name](args.seed, False, Tracer(), Checks(), workdir)
            for i in range(args.passes):
                with recorded(spectrum, autocorr) as plans:
                    workload.run_pass(i)
                for plan in plans:
                    lines.append(f"{name} {i} {describe(plan)}")
                    print(lines[-1])
                print(f"{name} {i} VmHWM {vm_hwm()}")
    if args.against is None:
        return 0
    saved = [line for line in Path(args.against).read_text().splitlines()
             if line.split()[2:3] != ["VmHWM"]]
    found = differences(saved, lines)
    print("\n".join(found)
          or f"the same workload, pass, engine and path on all {len(lines)} calls",
          file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
