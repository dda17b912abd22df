"""Compare two benchmark result files, row by row.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the rows `run.py --out` appends, one JSON object per run.
Rows are grouped by workload and by traced or untraced run; for each metric
the median over a group's runs is its base.  One line per workload and
metric gives both bases, with the run counts, and the ratio NEW / BASE;
per-layer metrics that read 0 on both sides (layers the workload never
calls) are left out.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict:
    """{(workload, trace): {metric: (unit, [values])}} of a result file."""
    groups: dict = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            group = groups[(row["workload"], row["trace"])]
            for name, m in row["metrics"].items():
                group.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return groups


def _cell(value, count: int) -> str:
    return f"{'missing':>14}" if value is None else f"{value:>10.4g} x{count:<2}"


def compare(base_path: str, new_path: str) -> list[str]:
    base, new = load(base_path), load(new_path)
    lines = [f"{'workload':<22} {'metric':<60} {'base':>14} {'new':>14} {'new/base':>9}"]
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        label = workload + (" (traced)" if trace else "")
        b_group, n_group = base.get(key, {}), new.get(key, {})
        for name in sorted(set(b_group) | set(n_group)):
            unit, b_vals = b_group.get(name, (None, []))
            unit, n_vals = n_group.get(name, (unit, []))
            b = statistics.median(b_vals) if b_vals else None
            n = statistics.median(n_vals) if n_vals else None
            if not b and not n:
                continue
            ratio = f"{n / b:9.4f}" if b and n is not None else f"{'-':>9}"
            lines.append(f"{label:<22} {name + ' [' + unit + ']':<60} "
                         f"{_cell(b, len(b_vals))} {_cell(n, len(n_vals))} {ratio}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: compare.py BASE.jsonl NEW.jsonl")
    print("\n".join(compare(sys.argv[1], sys.argv[2])))
