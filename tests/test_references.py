"""Every function and method defined in src/hpp is used by the program.

A definition counts as used when its name appears in src/, scripts/ or
perfbench/ as an AST Name, an Attribute or a string constant; tests do not
count.  The exceptions are the test-only names ROADMAP lists with their
reasons, and the set below must match the unused names exactly, so an entry
that gains a caller leaves the list as well.
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
    # The seeded faulty solver behind the retry tests.
    "reduction.faulty_solver",
    # The JSON instance round-trip README documents as a library feature.
    "blackbox.instance_to_json",
    "blackbox.instance_from_json",
    # The n = 2 closed-form fiber the acceptance gate checks.
    "fibers.solve_n2_triangular",
}


def _definitions():
    """(qualified name, name) of every def in src/hpp, nested ones included."""

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child.name
                yield from visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")

    for path in sorted((ROOT / "src" / "hpp").glob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")


def _referenced_names() -> set[str]:
    names = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_definition_outside_the_test_only_list_is_referenced():
    used = _referenced_names()
    unused = {
        qual
        for qual, name in _definitions()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }
    assert unused == TEST_ONLY
