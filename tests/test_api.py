"""Every name that `aperiodica/__init__.py` exports has a caller: a library
function, the CLI, an acceptance criterion or a benchmark workload loads it,
and README's Library tour names it.  Names that only their own unit tests
reached were deleted or moved to tests/references.py."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aperiodica"
CALLERS = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]

# deleted aliases, and test-only code moved to tests/references.py
RETIRED = ("ac_density", "point_density", "iterate_mfs", "symmetric_difference_density",
           "binary_reduction", "endpoint_distribution", "gaussian_endpoint_density")


def exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def loaded_names(path: Path) -> set[str]:
    """Names the file loads, as a Name or an Attribute (not in a string or a
    comment), outside the function or class that defines the name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name not in inside:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def library_tour() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]


def test_every_export_has_a_caller():
    loaded = set().union(*(loaded_names(path) for path in CALLERS))
    assert [name for name in exports() if name not in loaded] == []


def test_library_tour_names_every_export_and_no_retired_name():
    tour = library_tour()
    quoted = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", tour))))
    assert [name for name in exports() if name not in quoted] == []
    words = set(re.findall(r"\w+", tour))
    assert [name for name in RETIRED if name in words] == []
    assert not set(RETIRED) & set(exports())
