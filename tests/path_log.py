"""Path log of the benchmark workloads: the path each estimator call takes.

Runs passes of each workload of perfbench/workloads.py in this process, at
the benchmark's full sizes, and prints one line per estimator call of a
pass from the plan records of spectrum._plan and autocorr._plan: workload,
pass, engine, path, N, then K, L, nf and the wrap (k0, dk, max|delta|) of
a periodogram or the pairs and lag bound of an autocorrelation, and the
estimated ns of each candidate path.  Calls made by the workloads' set-up
are not logged, and their checks are not read.

    PYTHONPATH=src python tests/path_log.py [--passes N] [--seed S] [workload ...]
                                            [--against FILE]

With --against, the calls are compared in order with a log saved from an
earlier run of the same arguments, by workload, pass, engine and path (the
first four fields of a line): the first difference, or the count of calls
that agree, goes to standard error, and the exit code is 1 on a difference.
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
    return (f"autocorrelation {plan.path} N={len(plan.keys)} pairs={pairs} "
            f"bound={plan.bound:.17g} costs: {costs}")


def first_difference(saved: list[str], lines: list[str]) -> str | None:
    """The first call whose workload, pass, engine or path differs between
    the saved lines and these, or None."""
    for call in range(max(len(saved), len(lines))):
        old = saved[call] if call < len(saved) else "(no call)"
        new = lines[call] if call < len(lines) else "(no call)"
        if old.split()[:4] != new.split()[:4]:
            return f"call {call + 1} differs:\n  saved: {old}\n  now:   {new}"
    return None


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
    if args.against is None:
        return 0
    difference = first_difference(Path(args.against).read_text().splitlines(), lines)
    print(difference or f"the same workload, pass, engine and path on all {len(lines)} calls",
          file=sys.stderr)
    return 1 if difference else 0


if __name__ == "__main__":
    sys.exit(main())
