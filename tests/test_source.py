"""Checks on the package source itself, read with `ast` and never run."""

import ast

from unreached import PACKAGE


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
