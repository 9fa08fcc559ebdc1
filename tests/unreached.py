"""List the statements of `src/bracketc/` that the test suite never runs,
and the conditions there that took only one truth value.

    python tests/unreached.py [pytest arguments]

Runs `pytest.main` (on `tests/` by default) under `sys.settrace`, tracing
lines only in frames whose code lives in `src/bracketc/`, then prints one
`path:line: statement` line for each executable statement that never ran.
Every AST statement counts as executable except docstrings, `def` and
`class` lines, imports and bare annotations.  A statement has run when
any line of it ran, its own lines ending where its first nested statement
begins.

In the same run an import hook compiles `src/bracketc/` with each
condition wrapped in a call that records its truth value.  A condition is
the test of an `if`, `elif` or `while`, the test of a conditional
expression, an `if` filter of a comprehension, or an operand of `and` or
`or`.  Then one `path:line: condition: only True` (or `only False`, or
`never tested`) line follows for each condition that did not take both
values.  The exit status is pytest's.  Standard library only; pytest
itself must be installed to run the suite.
"""

from __future__ import annotations

import ast
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bracketc"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
            ast.Import, ast.ImportFrom)
_RECORD = "__unreached_condition__"


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


class Conditions(ast.NodeTransformer):
    """Wraps each condition `c` in `__unreached_condition__(k, c)`, which
    records `bool(c)` and returns `c`; `found[k]` is `(path, line, text)`."""

    def __init__(self, path: str, source: str,
                 found: list[tuple[str, int, str]]) -> None:
        self.path, self.source, self.found = path, source, found

    def _wrap(self, node: ast.expr) -> ast.expr:
        text = " ".join(ast.get_source_segment(self.source, node).split())
        key = ast.Constant(len(self.found))
        self.found.append((self.path, node.lineno, text))
        call = ast.Call(ast.Name(_RECORD, ast.Load()), [key, node], [])
        return ast.copy_location(call, node)

    def visit_If(self, node):  # also `elif`, `while` and `a if c else b`
        self.generic_visit(node)
        node.test = self._wrap(node.test)
        return node

    visit_While = visit_IfExp = visit_If

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.BoolOp:
        self.generic_visit(node)
        node.values = [self._wrap(v) for v in node.values]
        return node

    def visit_comprehension(self, node: ast.comprehension) -> ast.comprehension:
        self.generic_visit(node)
        node.ifs = [self._wrap(c) for c in node.ifs]
        return node


class _Loader(importlib.machinery.SourceFileLoader):
    """Compiles a module of the package with its conditions wrapped; never
    reads or writes cached bytecode."""

    def __init__(self, fullname: str, path: str, record) -> None:
        super().__init__(fullname, path)
        self.record = record

    def get_code(self, fullname: str):
        source = self.get_data(self.path).decode("utf-8")
        tree = Conditions(self.path, source, self.record.where).visit(
            ast.parse(source, self.path))
        tree = ast.fix_missing_locations(tree)
        return compile(tree, self.path, "exec", dont_inherit=True)

    def exec_module(self, module) -> None:
        module.__dict__[_RECORD] = self.record
        super().exec_module(module)


class ConditionRecord:
    """An import hook for `src/bracketc/` and the truth values it saw."""

    def __init__(self) -> None:
        self.where: list[tuple[str, int, str]] = []
        self.seen: set[tuple[int, bool]] = set()

    def __call__(self, key: int, value):
        self.seen.add((key, bool(value)))
        return value

    def find_spec(self, fullname: str, path=None, target=None):
        if fullname.partition(".")[0] != "bracketc":
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or not str(spec.origin).startswith(str(PACKAGE)):
            return None
        return importlib.util.spec_from_file_location(
            fullname, spec.origin,
            loader=_Loader(fullname, spec.origin, self),
            submodule_search_locations=spec.submodule_search_locations)

    def one_sided(self) -> list[tuple[str, int, str, str]]:
        """`(path, line, text, what)` for each condition short of both
        values, in file order."""
        out = []
        for key, (path, line, text) in enumerate(self.where):
            values = {v for v in (True, False) if (key, v) in self.seen}
            if len(values) < 2:
                what = f"only {values.pop()}" if values else "never tested"
                out.append((path, line, text, what))
        return sorted(out, key=lambda c: (c[0], c[1]))


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    record = ConditionRecord()
    sys.meta_path.insert(0, record)
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
        sys.meta_path.remove(record)

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
    one_sided = record.one_sided()
    for path, line, text, what in one_sided:
        print(f"{Path(path).relative_to(ROOT)}:{line}: {text}: {what}")
    print(f"{len(one_sided)} condition(s) took only one truth value")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
