"""Path log of the benchmark workloads: the path each estimator call takes.

Runs passes of each workload of perfbench/workloads.py in this process, at
the benchmark's full sizes, and prints one line per estimator call of a
pass from the plan records of spectrum._plan and autocorr._plan: workload,
pass, engine, path, N, then K, L, nf and the wrap (k0, dk, max|delta|) of
a periodogram or the pairs and lag bound of an autocorrelation, and the
estimated ns of each candidate path.  Calls made by the workloads' set-up
are not logged, and their checks are not read.

    PYTHONPATH=src python tests/path_log.py [--passes N] [--seed S] [workload ...]
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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="workload", help="default: all")
    parser.add_argument("--passes", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name in args.names or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="path-log-") as workdir:
            workload = workloads.WORKLOADS[name](args.seed, False, Tracer(), Checks(), workdir)
            for i in range(args.passes):
                with recorded(spectrum, autocorr) as plans:
                    workload.run_pass(i)
                for plan in plans:
                    print(name, i, describe(plan))


if __name__ == "__main__":
    main()
