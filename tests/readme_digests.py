"""Digests of the README's CLI examples and of the library's reference arrays.

The examples are read from the ```sh block of the README's CLI section and
run in process through `aperiodica.cli.main`, in an empty directory that
holds only the README's Fibonacci scheme file (`fib.json`) and the
paperfolding rule file (`paperfolding.rule`).  Each example is recorded by
its exit code and the sha256 of its stdout, its stderr and every file it
writes.  `library_arrays` lists a fixed set of library outputs (tiling samples,
closed-form spectra, autocorrelation estimates, one JSON table), each
recorded by the sha256 of its dtype, shape and bytes.
`test_readme_digests.py` compares a fresh run of both with the table in
`readme_digests.json`.

Rewrite the table after an intended output change, and list every changed
digest in CHANGES.md:

    PYTHONPATH=src python tests/readme_digests.py

The script prints the argv of each example and the name of each array whose
digest differs from the table it replaces.
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
from fractions import Fraction
from pathlib import Path

import numpy as np

import aperiodica as ap
from aperiodica import cli
from aperiodica.paperfolding import quaternary_comb

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


TILING_SPECS = {
    "fibonacci": ap.fibonacci_spec(),
    "rational-2-1": ap.RandomTilingSpec(Fraction(2), Fraction(1), 0.5),
    "rational-3/2-1": ap.RandomTilingSpec(Fraction(3, 2), Fraction(1), 0.3),
    "tau-2": ap.RandomTilingSpec(ap.ModuleElement(1, 0), ap.ModuleElement(0, 2), 0.4),
    "tau^2-tau": ap.RandomTilingSpec(ap.ModuleElement(1, 1), ap.ModuleElement(1, 0), 0.6),
}


def _comb_arrays(name: str, comb) -> dict:
    arrays = {f"{name}.positions": comb.positions, f"{name}.weights": comb.weights}
    if isinstance(comb.coords, ap.core.IntegerCoords):
        arrays[f"{name}.k"] = comb.coords.values
    elif isinstance(comb.coords, ap.core.ModuleCoords):
        arrays[f"{name}.mn"] = comb.coords.mn
    return arrays


def _estimate_arrays(name: str, est) -> dict:
    return {f"{name}.diffs": est.diffs, f"{name}.eta": est.eta}


def library_arrays() -> dict:
    """Name -> a library output that no README example writes in full."""
    arrays = {}
    for name, spec in TILING_SPECS.items():
        samp = ap.sample(spec, 300, 7)
        arrays.update(_comb_arrays(f"sample.{name}", samp.comb))
        arrays[f"sample.{name}.types"] = samp.types
        if samp.heights is not None:
            arrays[f"sample.{name}.heights"] = samp.heights
        arrays[f"pp_part.{name}"] = ap.pp_part(spec, 4.0).pp_atoms
    scheme = ap.fibonacci_scheme()
    for sigma in (0.3, 1.0):
        arrays[f"theorem10_spectrum.sigma{sigma}"] = ap.theorem10_spectrum(
            scheme, ap.GaussianProfile(sigma), (-1.0, 6.0)).pp_atoms
    for weights in ((1, 1, 0, 0), (1, -1, 1j, 0.5)):
        arrays[f"paperfolding_spectrum.{weights}"] = ap.paperfolding_spectrum(
            *weights, r_max=9, k_range=(0.0, 2.0)).pp_atoms
    dense = quaternary_comb(400, (1.0, -1.0, 2j, 0.5))
    arrays.update(_comb_arrays("quaternary_comb", dense))
    arrays.update(_estimate_arrays("autocorr.dense",
                                   ap.estimate_autocorrelation(dense, 60.0)))
    gauss = ap.density_weighted_comb(scheme, ap.GaussianProfile(0.4), (-300.0, 300.0))
    arrays.update(_comb_arrays("density_weighted_comb", gauss))
    arrays.update(_estimate_arrays("autocorr.module",
                                   ap.estimate_autocorrelation(gauss, 25.0)))
    floats = ap.WeightedComb.from_positions(gauss.positions, gauss.weights, gauss.radius)
    arrays.update(_estimate_arrays("autocorr.float",
                                   ap.estimate_autocorrelation(floats, 25.0)))
    # the JSON form of the table writer, which no README example uses
    odd = ap.WeightedComb.from_positions(
        [-2.5, -1e-310, 0.0, 1 / 3, 2.0], [1 + 2j, -0.0, 1e300, -1e-7j, 0.1], 2.5)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ap.core.write_comb(odd, None, "json")
    arrays["write_table.json"] = np.frombuffer(out.getvalue().encode(), dtype=np.uint8)
    return arrays


def array_digests() -> dict[str, str]:
    """sha256 of the dtype, shape and bytes of every library array."""
    return {name: _sha256(f"{a.dtype.str}{a.shape}".encode()
                          + np.ascontiguousarray(a).tobytes())
            for name, a in library_arrays().items()}


def changes(old: dict, new: dict) -> list[str]:
    """One line per example (by argv) and per array (by name) whose record
    in the table `new` is not the one in `old`, or that `old` lacks."""
    old_examples = {r["argv"]: r for r in old.get("examples", [])}
    old_arrays = old.get("arrays", {})
    return ([f"example: {r['argv']}" for r in new["examples"]
             if old_examples.get(r["argv"]) != r]
            + [f"array: {name}" for name, d in new["arrays"].items()
               if old_arrays.get(name) != d])


def main() -> int:
    old = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        records = run_examples(Path(tmp))
    arrays = array_digests()
    table = {"numpy": np.__version__, "examples": records, "arrays": arrays}
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} example and {len(arrays)} array digests to {TABLE}")
    changed = changes(old, table)
    print(f"{len(changed)} changed from the table it replaces" + (":" if changed else ""))
    for line in changed:
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
