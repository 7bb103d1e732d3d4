"""Every function and method defined in src/hpp is used by the program,
and the modules of src/hpp import one another along a pinned graph.

A definition counts as used when its name appears in src/, scripts/ or
perfbench/ as an AST Name, an Attribute or a string constant; a method or
property only counts as an Attribute or a string constant, so a local
variable of the same name does not hide it.  Tests do not count.  The
exceptions are the test-only names ROADMAP lists with their
reasons, and the set below must match the unused names exactly, so an entry
that gains a caller leaves the list as well.  Likewise IMPORTS must match
the hpp modules each module imports, so a new edge between layers shows up
as a change to this file.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY = {
    # Reference forms the fast paths are checked against.
    "fibers.brute_fiber",
    "gf.dot",
    "densmat.pipeline_probability",
    "densmat.x_marginals",
    "densmat.VxIsometry.w_state",
    "densmat.VxIsometry.good_dim",
    # The seeded faulty solver behind the retry tests.
    "reduction.faulty_solver",
    # The JSON instance round-trip README documents as a library feature.
    "blackbox.instance_to_json",
    "blackbox.instance_from_json",
    # The n = 2 closed-form fiber the acceptance gate checks.
    "fibers.solve_n2_triangular",
    # Reference form the labels are checked against.
    "fibers.direction_orbit",
}

# hpp module -> the hpp modules it imports.
IMPORTS = {
    "__init__": {"blackbox", "errors", "fibers", "gf", "pgm", "polyring", "reduction"},
    "baseline": {"blackbox", "errors", "gf", "polyring"},
    "blackbox": {"gf", "polyring"},
    "cli": {"baseline", "blackbox", "errors", "fibers", "gf", "pgm", "polyring", "reduction"},
    "densmat": {"errors", "fibers", "gf", "polyring"},
    "errors": set(),
    "fibers": {"errors", "gf"},
    "gf": {"errors"},
    "pgm": {"errors", "fibers", "gf", "polyring"},
    "polyring": {"gf"},
    "reduction": {"blackbox", "errors", "gf", "polyring"},
}


def _definitions():
    """(qualified name, name, is a method) of every def in src/hpp, nested
    ones included."""

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child.name, isinstance(node, ast.ClassDef)
                yield from visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")

    for path in sorted((ROOT / "src" / "hpp").glob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")


def _referenced_names() -> tuple[set[str], set[str]]:
    """(bare names, attribute names and string constants) in the program."""
    names, attrs = set(), set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    attrs.add(node.value)
    return names, attrs


def test_every_definition_outside_the_test_only_list_is_referenced():
    names, attrs = _referenced_names()
    unused = {
        qual
        for qual, name, method in _definitions()
        if name not in attrs
        and (method or name not in names)
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert unused == TEST_ONLY


def _imported_modules(tree) -> set[str]:
    """The hpp modules a module's AST imports, relatively or by name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = [] if node.module is None else node.module.split(".")
            if node.level == 0 and parts[0] != "hpp":
                continue
            parts = parts[node.level == 0 :]
            if parts:
                out.add(parts[0])
            else:  # from . import module
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "hpp" and len(parts) > 1:
                    out.add(parts[1])
    return out


def test_internal_import_graph_is_pinned():
    graph = {
        path.stem: _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "hpp").glob("*.py"))
    }
    assert graph == IMPORTS
