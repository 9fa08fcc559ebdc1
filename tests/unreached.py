"""List the statements of `src/bracketc/` that the test suite never runs,
and the conditions there that took only one truth value.

    python tests/unreached.py [pytest arguments]

Runs `pytest.main` (on `tests/` by default, with `--hypothesis-seed=0`
unless the arguments set a seed, so that the listing does not change from
run to run) with an import hook that compiles `src/bracketc/` with a probe
before each executable statement and each condition wrapped in a call
that records its truth value.  After the run it compiles, without running,
each module there that the run never imported, so that every module is
read and parsed once.  Then it prints one `path:line: statement` line for
each executable statement that never ran.  Every AST statement
counts as executable except docstrings, `def` and `class` lines, imports
and bare annotations.  A statement has run once execution reached it.

A condition is the test of an `if`, `elif` or `while`, the test of a
conditional expression, an `if` filter of a comprehension, or an operand
of `and` or `or`.  One `path:line: condition: only True` (or `only False`,
or `never tested`) line follows for each condition that did not take both
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
RECORD = "__unreached__"


def executable(node: ast.AST) -> bool:
    """Whether `node` is a statement that counts as executable."""
    if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
        return False
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
            and isinstance(node.value.value, str):
        return False  # a docstring
    return not (isinstance(node, ast.AnnAssign) and node.value is None)


class Probes(ast.NodeTransformer):
    """Puts `__unreached__.reached.add(key)` before each executable
    statement, where `key` is `(path, line, column)` and `placed[key]` the
    text of its line, and wraps each condition `c` in `__unreached__(k, c)`,
    which records `bool(c)` and returns `c`; `found[k]` is
    `(path, line, text)`."""

    def __init__(self, path: str, source: str,
                 placed: dict[tuple[str, int, int], str],
                 found: list[tuple[str, int, str]]) -> None:
        self.path, self.source = path, source
        self.lines = source.splitlines()
        self.placed, self.found = placed, found

    def generic_visit(self, node: ast.AST) -> ast.AST:
        super().generic_visit(node)
        for name, value in ast.iter_fields(node):
            if isinstance(value, list) and value \
                    and isinstance(value[0], ast.stmt):
                setattr(node, name,
                        [s for st in value for s in self._probed(st)])
        return node

    def _probed(self, st: ast.stmt) -> list[ast.stmt]:
        if not executable(st):
            return [st]
        key = (self.path, st.lineno, st.col_offset)
        self.placed[key] = self.lines[st.lineno - 1].strip()
        probe = ast.parse(f"{RECORD}.reached.add({key!r})").body[0]
        return [ast.copy_location(probe, st), st]

    def _wrap(self, node: ast.expr) -> ast.expr:
        text = " ".join(ast.get_source_segment(self.source, node).split())
        key = ast.Constant(len(self.found))
        self.found.append((self.path, node.lineno, text))
        call = ast.Call(ast.Name(RECORD, ast.Load()), [key, node], [])
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


class Record:
    """An import hook that compiles `src/bracketc/` instrumented, the
    statements and conditions it instrumented, and the statements and truth
    values that the instrumented code reached."""

    def __init__(self) -> None:
        self.compiled: set[str] = set()
        self.placed: dict[tuple[str, int, int], str] = {}
        self.where: list[tuple[str, int, str]] = []
        self.seen: set[tuple[int, bool]] = set()
        self.reached: set[tuple[str, int, int]] = set()

    def __call__(self, key: int, value):
        self.seen.add((key, bool(value)))
        return value

    def compile(self, source: str, path: str):
        """The code of `source`, instrumented to record into this record
        when run with `RECORD` bound to it."""
        self.compiled.add(path)
        probes = Probes(path, source, self.placed, self.where)
        tree = probes.visit(ast.parse(source, path))
        return compile(ast.fix_missing_locations(tree), path, "exec",
                       dont_inherit=True)

    def find_spec(self, fullname: str, path=None, target=None):
        if fullname.partition(".")[0] != "bracketc":
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or not str(spec.origin).startswith(str(PACKAGE)):
            return None
        return importlib.util.spec_from_file_location(
            fullname, spec.origin, loader=self,
            submodule_search_locations=spec.submodule_search_locations)

    def create_module(self, spec) -> None:
        return None  # the default module

    def exec_module(self, module) -> None:
        """Runs the module instrumented; never reads or writes cached
        bytecode."""
        path = module.__spec__.origin
        module.__dict__[RECORD] = self
        exec(self.compile(Path(path).read_text(encoding="utf-8"), path),
             module.__dict__)

    def never_ran(self) -> list[tuple[str, int, str]]:
        """`(path, line, text)` for each executable statement compiled that
        execution never reached, in file order."""
        return [(key[0], key[1], text)
                for key, text in sorted(self.placed.items())
                if key not in self.reached]

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

    args = argv or [str(ROOT / "tests")]
    if not any(a.startswith("--hypothesis-seed") for a in args):
        args = [*args, "--hypothesis-seed=0"]
    record = Record()
    sys.meta_path.insert(0, record)
    try:
        status = pytest.main(args)
    finally:
        sys.meta_path.remove(record)

    for path in map(str, sorted(PACKAGE.glob("*.py"))):
        if path not in record.compiled:  # never imported: listed whole
            record.compile(Path(path).read_text(encoding="utf-8"), path)
    never_ran = record.never_ran()
    for path, line, text in never_ran:
        print(f"{Path(path).relative_to(ROOT)}:{line}: {text}")
    print(f"{len(never_ran)} executable statement(s) never ran")
    one_sided = record.one_sided()
    for path, line, text, what in one_sided:
        print(f"{Path(path).relative_to(ROOT)}:{line}: {text}: {what}")
    print(f"{len(one_sided)} condition(s) took only one truth value")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
