#!/usr/bin/env python3
"""Statements of a package that a pytest run never executes.

    python scripts/linecov.py [--package DIR] [PYTEST_ARG ...]

Runs pytest in this process (default arguments: ``-q -p no:cacheprovider``
and the repository's ``tests``) under a stdlib line tracer
(``sys.settrace`` and ``threading.settrace``) that records only code in the
package directory (default: ``src/svbackend``, whose parent is put on
``sys.path``).  Then it prints, for each module of the package, how many of
its AST statements ran, and each one that never did as
``path:line: source``.  Docstrings, ``def``/``class`` lines and
``global``/``nonlocal`` declarations are not counted; a compound statement
counts by its header lines (``try:`` by its body).  Code that a test runs in
a subprocess is not traced.  Exits with pytest's status.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Statements not counted: definitions, ``try:`` (its body is counted) and
#: declarations that compile to no code.
SKIPPED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try, ast.Global, ast.Nonlocal,
)


def _is_docstring(node: ast.stmt) -> bool:
    """A string statement, which compiles to no code."""
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statement_lines(tree: ast.Module) -> dict[int, range]:
    """First line of each counted statement -> the lines any of which
    executing counts it as run."""
    lines = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or _is_docstring(node):
            continue
        body = getattr(node, "body", None)  # a compound statement's header ends before it
        end = node.end_lineno if not body else max(node.lineno, body[0].lineno - 1)
        lines[node.lineno] = range(node.lineno, end + 1)
    return lines


def report(package: Path, hits: dict[str, set[int]]) -> list[str]:
    out = []
    for path in sorted(package.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = hits.get(str(path.resolve()), set())
        stmts = statement_lines(ast.parse(source))
        missed = [n for n, span in sorted(stmts.items()) if not ran.intersection(span)]
        rel = path.relative_to(package.parent)
        out.append(f"{rel}: {len(stmts) - len(missed)} of {len(stmts)} statements ran")
        out += [f"  {rel}:{n}: {text[n - 1].strip()}" for n in missed]
    return out


def run(package: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    import pytest

    prefix = str(package.resolve()) + os.sep
    hits: dict[str, set[int]] = {}
    wanted: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            wanted[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            real = os.path.realpath(name)
            wanted[name] = hits.setdefault(real, set()) if real.startswith(prefix) else None
        return local if wanted[name] is not None else None

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--package", type=Path, default=ROOT / "src" / "svbackend")
    args, pytest_args = parser.parse_known_args(argv)
    package = args.package.resolve()
    sys.path.insert(0, str(package.parent))
    status, hits = run(package, pytest_args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    print("\n".join(report(package, hits)))
    return status


if __name__ == "__main__":
    sys.exit(main())
