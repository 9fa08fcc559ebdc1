"""Checks on the package source itself, read with `ast` and never run."""

import ast
import re

from unreached import PACKAGE, ROOT


def test_package_has_no_assert_statement():
    """`python -O` strips `assert`, so no invariant may rest on one."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}


def test_package_parses_at_the_python_floor():
    """Each module parses with the grammar of `requires-python`'s floor, a
    version on which no CI job runs the tests."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=3\.(\d+)"$', text, re.M)
    assert found
    floor = (3, int(found.group(1)))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=floor)


def recursive_nested_functions(path):
    """`module.outer.inner` for each function nested in another function
    that names itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {}
    for outer in ast.walk(tree):  # breadth-first: outermost first
        if not isinstance(outer, functions):
            continue
        for inner in ast.walk(outer):
            if (inner is not outer and isinstance(inner, functions)
                    and any(isinstance(n, ast.Name) and n.id == inner.name
                            for n in ast.walk(inner))):
                found.setdefault(
                    inner, f"{path.stem}.{outer.name}.{inner.name}")
    return list(found.values())


def test_package_has_no_recursive_nested_function():
    """A nested function that calls itself holds itself through its closure
    cell: a reference cycle, so the frame's locals it reaches stay alive
    until the cyclic collector runs.  Recurse in a module function."""
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in recursive_nested_functions(path)]
    assert found == []
