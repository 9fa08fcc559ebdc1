"""List the statements of `src/bracketc/` that the test suite never runs.

    python tests/unreached.py [pytest arguments]

Runs `pytest.main` (on `tests/` by default) under `sys.settrace`, tracing
lines only in frames whose code lives in `src/bracketc/`, then prints one
`path:line: statement` line for each executable statement that never ran.
Every AST statement counts as executable except docstrings, `def` and
`class` lines, imports and bare annotations.  A statement has run when
any line of it ran, its own lines ending where its first nested statement
begins.  The exit status is pytest's.  Standard library only; pytest
itself must be installed to run the suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bracketc"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
            ast.Import, ast.ImportFrom)


def _own_lines(node: ast.stmt) -> range:
    """The lines of `node` up to its first nested statement."""
    nested = [child.lineno for child in ast.walk(node)
              if child is not node and isinstance(child, ast.stmt)]
    return range(node.lineno, min(nested, default=node.end_lineno + 1))


def executable(tree: ast.Module) -> list[ast.stmt]:
    """The statements of `tree` that count as executable."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue  # a bare annotation
        out.append(node)
    return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.settrace(tracer)
    try:
        status = pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for node in sorted(executable(ast.parse(source)),
                           key=lambda n: n.lineno):
            name = str(path)
            if not any((name, line) in ran for line in _own_lines(node)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{node.lineno}: "
                      f"{text[node.lineno - 1].strip()}")
    print(f"{missed} executable statement(s) never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
