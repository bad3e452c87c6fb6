"""List the statements of ``src/passandswap`` that the tier-1 suite never runs.

Runs the tests of ``testpaths`` in this process under ``sys.settrace``,
tracing only frames whose code lies in ``src/passandswap``, then prints
each statement that never ran, by file, and the total.  A statement ran
when a line event fired on a line of its head: a simple statement's lines,
or a compound statement's lines up to its body, decorators included.
Docstrings and other bare constants, ``try``, ``global`` and ``nonlocal``
compile to no line of their own and are not counted.  Code that a test runs
in a child process (a subprocess of the CLI, say) is not traced, so its
statements may be listed although a test runs them.

Standard library and pytest only; extra arguments go to pytest::

    python benchmarks/uncovered.py
    python benchmarks/uncovered.py tests/test_closed.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "passandswap"
SILENT = (ast.Try, ast.Global, ast.Nonlocal)


def statements(path: Path) -> dict[int, range]:
    """The head lines of each counted statement of ``path``, by its line."""
    heads = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, SILENT) or (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        ):
            continue
        first = min([node.lineno] + [
            d.lineno for d in getattr(node, "decorator_list", ())
        ])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        heads[node.lineno] = range(first, max(first, last) + 1)
    return heads


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest in this process; its exit code and the ``(file, line)``
    pairs of ``src/passandswap`` that fired a line event."""
    prefix = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()
    inside: dict = {}  # code object -> whether it is package code

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        mine = inside.get(code)
        if mine is None:
            mine = inside[code] = code.co_filename.startswith(prefix)
        return local if mine else None

    import pytest

    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = run_traced(argv)
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        name = str(path)
        heads = statements(path)
        missed = [
            line for line, head in sorted(heads.items())
            if not any((name, h) in hits for h in head)
        ]
        total += len(heads)
        unrun += len(missed)
        if missed:
            print(f"\n{path.relative_to(ROOT)}: {len(missed)} never ran")
            for line in missed:
                print(f"  {line:5d}  {lines[line - 1].strip()}")
    print(f"\n{unrun} of {total} statements never ran "
          f"(pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
