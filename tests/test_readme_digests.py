import json

import numpy as np

from readme_digests import README, TABLE, array_digests, readme_examples, run_examples

REWRITE = "PYTHONPATH=src python tests/readme_digests.py"


def test_readme_lists_twelve_examples():
    assert len(readme_examples(README.read_text(encoding="utf-8"))) == 12


def _table() -> dict:
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    assert table["numpy"] == np.__version__, (
        f"the digests were made with numpy {table['numpy']}, this is numpy "
        f"{np.__version__}; check the outputs and rewrite the table with {REWRITE}")
    return table


def test_readme_cli_outputs_match_the_table(tmp_path):
    table = _table()
    records = run_examples(tmp_path)
    assert [r["argv"] for r in records] == [r["argv"] for r in table["examples"]], (
        f"the README examples changed; rewrite the table with {REWRITE}")
    changed = [r["argv"] for r, t in zip(records, table["examples"]) if r != t]
    assert not changed, (
        f"outputs differ from the table for {changed}; if the change is intended, "
        f"rewrite the table with {REWRITE} and list it in CHANGES.md")


def test_library_arrays_match_the_table():
    table = _table()["arrays"]
    digests = array_digests()
    assert sorted(digests) == sorted(table), (
        f"the set of library arrays changed; rewrite the table with {REWRITE}")
    changed = [name for name, d in digests.items() if table[name] != d]
    assert not changed, (
        f"library arrays differ from the table: {changed}; if the change is "
        f"intended, rewrite the table with {REWRITE} and list it in CHANGES.md")
