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
    version that no CI job runs."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=3\.(\d+)"$', text, re.M)
    assert found
    floor = (3, int(found.group(1)))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=floor)
