"""Line reach of the test suite: the statements of ``src/`` that no test runs.

Run from the repository root:

    python tests/linereach.py [pytest arguments]

It installs a line tracer (``sys.settrace`` and ``threading.settrace``),
runs ``pytest`` in this process over ``tests/`` (or over the given
arguments), and prints ``path:line`` for every executable statement of
``src/`` that never ran, then a count per file.  Only in-process code is
seen: the CLI tests that start a subprocess reach nothing here.  Tracing
slows every line, so a test with a wall-clock budget can fail under this
tool although it passes without it; the test outcome is reported as it is,
and the exit code is pytest's.  It needs the standard library and pytest,
no coverage package.

A statement counts as executable unless it is a docstring, a ``def`` or
``class`` header (with its decorators), an import, ``global``,
``nonlocal``, or a bare annotation in a function body; those compile to no
code of their own at run time.  It counts as reached when any of its own
lines runs: the lines from its first to its last, less the lines of the
statements nested in it.
"""
from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_HEADERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIPPED = (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)
_BODIES = ("body", "orelse", "finalbody", "handlers", "cases")


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, *_HEADERS)) and node is parent.body[0]
            and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _nested(node: ast.AST) -> list[ast.stmt]:
    """The statements one level inside ``node`` (through ``except`` and ``case`` clauses)."""
    out = []
    for name in _BODIES:
        for child in getattr(node, name, ()):
            out += child.body if isinstance(child, (ast.ExceptHandler, ast.match_case)) else [child]
    return out


def statements(source: str) -> dict[int, set[int]]:
    """Executable statements of a module: first line -> the statement's own lines."""
    found: dict[int, set[int]] = {}

    def visit(parent: ast.AST, in_function: bool) -> None:
        for node in _nested(parent):
            inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(node, inner)
            if (isinstance(node, _HEADERS + _SKIPPED) or _is_docstring(node, parent)
                    or (in_function and isinstance(node, ast.AnnAssign) and node.value is None)):
                continue
            own = set(range(node.lineno, node.end_lineno + 1))
            for child in _nested(node):
                own -= set(range(child.lineno, child.end_lineno + 1))
            found[node.lineno] = own

    visit(ast.parse(source), False)
    return found


def unreached(files, ran: set[tuple[str, int]]) -> list[tuple[Path, int]]:
    """(path, first line) of each executable statement of ``files`` with no line in ``ran``."""
    out = []
    for path in files:
        name = str(path)
        for first, own in sorted(statements(path.read_text(encoding="utf-8")).items()):
            if not any((name, line) in ran for line in own):
                out.append((path, first))
    return out


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(SRC))
    prefix = str(SRC)
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = unreached(sorted(SRC.rglob("*.py")), ran)
    for path, line in missed:
        print("%s:%d" % (path.relative_to(ROOT), line))
    per_file = Counter(path.name for path, _ in missed)
    print("%d unreached statements: %s" % (
        len(missed), ", ".join("%s %d" % kv for kv in per_file.most_common())))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
