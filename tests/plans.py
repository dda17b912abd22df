"""What an estimator call did, as the tests read it: its plans and its peak
memory.

`spectrum._plan` and `autocorr._plan` each return a frozen record of every
decision that `periodogram_values` or `estimate_autocorrelation` makes for
one call, which the call then executes.  `recorded(module)` collects those
records, in call order, for the calls made inside its block (several
modules share one list); `recorded(module, path=...)` executes each call on
the given path instead, the record's other decisions kept.  `cheapest` is
the periodogram's path rule at a shape alone, with no comb.  `traced`
gives a call's result and the tracemalloc peak of its allocations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import tracemalloc
from unittest import mock

from aperiodica import spectrum


@contextlib.contextmanager
def recorded(*modules, path: str | None = None):
    """The plans of each module's _plan made inside the block, as one list
    that fills as the calls run; with a path, each plan as executed, its
    path replaced."""
    plans = []

    def recorder(plan):
        def record(*args):
            made = plan(*args)
            plans.append(made if path is None else dataclasses.replace(made, path=path))
            return plans[-1]
        return record

    with contextlib.ExitStack() as stack:
        for module in modules:
            stack.enter_context(mock.patch.object(module, "_plan", recorder(module._plan)))
        yield plans


def cheapest(n: int, count: int, x_span: float, k_span: float, ns_other: float,
             lattice: int = 0) -> str:
    """The periodogram path of n points at count k over these spans, with
    the tables at ns_other per point*k and a DFT of length lattice (0:
    none), as spectrum._plan picks it."""
    costs = spectrum._costs(n, count, spectrum._fine_grid(x_span, k_span)[0], ns_other,
                            lattice)
    return min(costs, key=costs.get)


def traced(call):
    """call() and the peak, in bytes, of the memory it allocated."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
