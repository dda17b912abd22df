"""Spans and checks for the benchmark.

A `Tracer` records one span per call the benchmark makes into a library
layer: the layer name, start and end, the workload phase it ran under, the
operation id (the pass index) and the work it was given (points times k,
pairs, sites, ...).  Spans are kept in memory and summarised or written out
when the run ends.  While tracing is off, `span` hands back one shared
null context, so an untraced pass pays for nothing but a method call.

A `Checks` ledger holds every correctness check of a run: the deviation
from the oracle, the tolerance fixed for it in advance, and whether the
check is a named known defect that is expected to fail.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

_NULL = nullcontext()

# work unit recorded on a span -> (rate metric suffix, factor applied to
# seconds per unit); bytes give a throughput instead of a cost per unit
RATES = {
    "pk": ("ns_per_pk", 1e9),
    "pairs": ("ns_per_pair", 1e9),
    "points": ("ns_per_point", 1e9),
    "sites": ("ns_per_site", 1e9),
    "intervals": ("ns_per_interval", 1e9),
    "k": ("ns_per_k", 1e9),
    "bytes": ("mb_per_s", None),
}


@dataclass
class Span:
    name: str
    phase: int | None     # index into Tracer.phases, the parent span
    op: int               # operation id: the pass index
    start: float
    end: float
    work: dict
    error: bool = False


class Tracer:
    """In-memory span recorder; `enabled` is switched per pass by the run."""

    def __init__(self):
        self.enabled = False
        self.op = 0
        self.spans: list[Span] = []
        self.phases: list[Span] = []
        self._phase: int | None = None

    def span(self, name: str, **work):
        """Context manager timing one call into a layer."""
        if not self.enabled:
            return _NULL
        return self._record(self.spans, name, work)

    def phase(self, name: str):
        """Context manager for a workload phase; layer spans opened inside
        it name it as their parent."""
        if not self.enabled:
            return _NULL
        return self._record(self.phases, name, {}, is_phase=True)

    @contextmanager
    def _record(self, sink, name, work, is_phase=False):
        span = Span(name, None if is_phase else self._phase, self.op,
                    time.perf_counter(), math.nan, work)
        sink.append(span)
        outer = self._phase
        if is_phase:
            self._phase = len(sink) - 1
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._phase = outer

    def layer_metrics(self, names, passes: int) -> dict:
        """Per-layer metrics over the traced passes: busy seconds, calls and
        errors per pass, and the work-normalised rate.  Every name in
        `names` is reported, with zeros for layers this workload never
        called."""
        out = {}
        per = max(passes, 1)
        for name, work_unit in names:
            spans = [s for s in self.spans if s.name == name]
            busy = sum(s.end - s.start for s in spans)
            out[f"{name}.s"] = (busy / per, "s")
            out[f"{name}.calls"] = (len(spans) / per, "count")
            out[f"{name}.errors"] = (sum(s.error for s in spans), "count")
            if work_unit is None:
                continue
            suffix, factor = RATES[work_unit]
            work = sum(s.work.get(work_unit, 0) for s in spans)
            if not work or not busy:
                rate = 0.0
            elif factor is None:
                rate = work / 1e6 / busy
            else:
                rate = busy * factor / work
            out[f"{name}.{suffix}"] = (rate, "MB/s" if factor is None else "ns")
        return out

    def phase_self_times(self, passes: int) -> dict:
        """Seconds per traced pass that each phase spent outside the layer
        spans it parents: benchmark-side oracles, checks and glue."""
        per = max(passes, 1)
        totals: dict[str, float] = {}
        for i, ph in enumerate(self.phases):
            covered = sum(s.end - s.start for s in self.spans if s.phase == i)
            totals[ph.name] = totals.get(ph.name, 0.0) + (ph.end - ph.start - covered)
        return {name: t / per for name, t in totals.items()}

    def dump(self) -> dict:
        """All spans, for the trace file."""
        def row(s, kind):
            parent = self.phases[s.phase].name if s.phase is not None else None
            return {"kind": kind, "name": s.name, "op": s.op, "parent": parent,
                    "start": s.start, "end": s.end, "work": s.work,
                    "error": s.error}
        return {"phases": [row(s, "phase") for s in self.phases],
                "spans": [row(s, "layer") for s in self.spans]}


@dataclass
class CheckRow:
    name: str
    deviation: float
    tolerance: float
    passed: bool
    known_defect: str | None = None
    note: str = ""


@dataclass
class Checks:
    """Ledger of the correctness checks of one run."""

    rows: list[CheckRow] = field(default_factory=list)

    def within(self, name: str, deviation: float, tolerance: float,
               known_defect: str | None = None, note: str = "") -> bool:
        """Numeric check: passes when the deviation is finite and at most
        the tolerance."""
        deviation = float(deviation)
        passed = math.isfinite(deviation) and deviation <= tolerance
        self.rows.append(CheckRow(name, deviation, float(tolerance), passed,
                                  known_defect, note))
        return passed

    def equal(self, name: str, ok: bool, known_defect: str | None = None,
              note: str = "") -> bool:
        """Exact check (identical arrays, verdicts, fixtures)."""
        self.rows.append(CheckRow(name, 0.0 if ok else math.inf, 0.0, bool(ok),
                                  known_defect, note))
        return bool(ok)

    def raised(self, name: str, exc: BaseException) -> None:
        """An operation that raised counts as a failed check."""
        self.rows.append(CheckRow(name, math.inf, 0.0, False,
                                  note=f"{type(exc).__name__}: {exc}"))

    @property
    def attempted(self) -> int:
        return len(self.rows)

    @property
    def failed(self) -> int:
        return sum(not r.passed for r in self.rows)

    @property
    def unexpected_failures(self) -> list[CheckRow]:
        return [r for r in self.rows if not r.passed and r.known_defect is None]

    def dev_over_tol(self) -> float:
        """Largest deviation over tolerance among the numeric checks that
        are not known defects."""
        ratios = [r.deviation / r.tolerance for r in self.rows
                  if r.tolerance > 0 and r.known_defect is None]
        return max(ratios) if ratios else 0.0
