"""Every name that `aperiodica/__init__.py` exports, and every public method
and property of an exported class, has a caller: a library function, the
CLI, an acceptance criterion or a benchmark workload loads it.  README's
Library tour names each export and each public static factory (such as
`WeightedComb.from_integers`), the constructors a user calls.  Names that
only their own unit tests reached were deleted or moved to
tests/references.py."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aperiodica"
CALLERS = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]

# deleted aliases and classes, and test-only code moved to tests/references.py
RETIRED = ("ac_density", "point_density", "iterate_mfs", "symmetric_difference_density",
           "binary_reduction", "endpoint_distribution", "gaussian_endpoint_density",
           "IndicatorProfile")


def exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def exported_members() -> list[tuple[str, str, bool]]:
    """(class, member, is a static or class method) for each public def (its
    name has no leading underscore) in the body of each exported class."""
    classes = set(exports())
    return [(node.name, item.name,
             any(getattr(d, "id", None) in ("staticmethod", "classmethod")
                 for d in item.decorator_list))
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and node.name in classes
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


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


def callers_load() -> set[str]:
    return set().union(*(loaded_names(path) for path in CALLERS))


def test_every_export_has_a_caller():
    loaded = callers_load()
    assert [name for name in exports() if name not in loaded] == []


def test_every_method_and_property_of_an_exported_class_has_a_caller():
    # a member is matched by its attribute name, so a load of another
    # class's attribute of the same name counts too
    loaded = callers_load()
    methods = [(cls, name) for cls, name, factory in exported_members() if not factory]
    assert methods
    assert [f"{cls}.{name}" for cls, name in methods if name not in loaded] == []


def test_library_tour_names_every_export_and_no_retired_name():
    tour = library_tour()
    quoted = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", tour))))
    assert [name for name in exports() if name not in quoted] == []
    factories = [name for _, name, factory in exported_members() if factory]
    assert factories
    assert [name for name in factories if name not in quoted] == []
    words = set(re.findall(r"\w+", tour))
    assert [name for name in RETIRED if name in words] == []
    assert not set(RETIRED) & set(exports())
