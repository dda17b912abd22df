"""Smoke test of the benchmark itself, at tiny sizes:

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced; each end-to-end and per-layer
metric named in BENCHMARK.json must appear with its unit, and every check
must pass except the named known defects.  A deliberately corrupted library
output must be counted as a failed check.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import warmup  # noqa: E402

assert warmup.add_source_path(), "the library source must sit beside perfbench/"

import aperiodica as ap  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_run(name, trace=False):
    return run.measure(name, seed=3, seconds=0.0, trace=trace, tiny=True, probes=0)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_appears_with_its_unit(name, trace):
    result, checks, _, _ = tiny_run(name, trace)
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert result["correct"], [vars(r) for r in checks.unexpected_failures]
    assert checks.attempted > 0
    defects = {r.known_defect for r in checks.rows if not r.passed}
    if name == "cli-roundtrip":
        assert defects == {workloads.DEFECT_BINS, workloads.DEFECT_RADIUS}
    else:
        assert defects == set()
    if not trace:
        assert result["metrics"]["dev_over_tol"]["value"] > 0


def test_corrupted_periodogram_is_a_failed_check(monkeypatch):
    clean = ap.periodogram_values
    monkeypatch.setattr(ap, "periodogram_values",
                        lambda *a, **k: clean(*a, **k) * 1.001)
    result, checks, _, _ = tiny_run("tiling-diffraction")
    assert not result["correct"]
    assert checks.failed >= 1
    assert result["metrics"]["pass_ratio"]["value"] < 1.0


def test_corrupted_csv_read_is_a_failed_check(monkeypatch):
    clean = ap.read_comb_csv

    def shifted(*args, **kwargs):
        comb = clean(*args, **kwargs)
        return ap.WeightedComb.from_positions(comb.positions, comb.weights * (1 + 1e-12),
                                              comb.radius)

    monkeypatch.setattr(ap, "read_comb_csv", shifted)
    result, checks, _, _ = tiny_run("cli-roundtrip")
    assert not result["correct"]
    assert {r.name for r in checks.unexpected_failures} == \
        {"write_comb_csv -> read_comb_csv round trip"}


def test_pair_count_matches_direct_enumeration():
    x = np.sort(np.random.default_rng(0).random(300) * 50)
    direct = sum(1 for i in range(len(x)) for j in range(i) if x[i] - x[j] <= 2.5)
    assert workloads.count_pairs(x, 2.5) == direct
