"""Digests of the README's CLI examples.

The examples are read from the ```sh block of the README's CLI section and
run in process through `aperiodica.cli.main`, in an empty directory that
holds only the README's Fibonacci scheme file (`fib.json`) and the
paperfolding rule file (`paperfolding.rule`).  Each example is recorded by
its exit code and the sha256 of its stdout, its stderr and every file it
writes.  `test_readme_digests.py` compares a fresh run with the table in
`readme_digests.json`.

Rewrite the table after an intended output change, and list every changed
digest in CHANGES.md:

    PYTHONPATH=src python tests/readme_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from aperiodica import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TABLE = Path(__file__).resolve().parent / "readme_digests.json"
PAPERFOLDING_RULE = "a: ab\nb: cb\nc: ad\nd: cd\n"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fenced_block(text: str, section: str, lang: str) -> list[str]:
    """Lines of the first ```lang block after the heading `section`."""
    lines = text[text.index(section):].splitlines()
    start = lines.index("```" + lang) + 1
    return lines[start:lines.index("```", start)]


def readme_examples(text: str) -> list[list[str]]:
    """The argv (after `aperiodica`) of each example in the CLI section."""
    commands, pending = [], ""
    for line in _fenced_block(text, "## CLI", "sh"):
        pending += line.rstrip("\\").strip() + " "
        if line.endswith("\\"):
            continue
        words = shlex.split(pending, comments=True)
        pending = ""
        if words:
            assert words[0] == "aperiodica", words
            commands.append(words[1:])
    return commands


def readme_scheme(text: str) -> str:
    """The Euclidean scheme file of the README's scheme-file examples."""
    block = _fenced_block(text, "Scheme files are JSON", "json")
    return next(line for line in block if '"euclidean"' in line) + "\n"


def _file_digests(workdir: Path) -> dict[str, str]:
    return {p.name: _sha256(p.read_bytes()) for p in sorted(workdir.iterdir())}


def run_examples(workdir: Path) -> list[dict]:
    """Run every README example in `workdir`; one record per example."""
    text = README.read_text(encoding="utf-8")
    (workdir / "fib.json").write_text(readme_scheme(text), encoding="utf-8")
    (workdir / "paperfolding.rule").write_text(PAPERFOLDING_RULE, encoding="utf-8")
    records = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in readme_examples(text):
            before = _file_digests(workdir)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            after = _file_digests(workdir)
            records.append({
                "argv": shlex.join(argv),
                "exit": code,
                "stdout": _sha256(out.getvalue().encode()),
                "stderr": _sha256(err.getvalue().encode()),
                "files": {name: d for name, d in after.items() if before.get(name) != d},
            })
    finally:
        os.chdir(cwd)
    return records


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        records = run_examples(Path(tmp))
    table = {"numpy": np.__version__, "examples": records}
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} example digests to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
