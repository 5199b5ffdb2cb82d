"""Count the code lines of each module of ``src/copulalg`` and their total.

A code line is a line that some statement of the module spans, from the
first line of its decorators to its last line, and that is neither blank,
nor a comment alone, nor part of a docstring (the string that opens a
module, class or function body).

Run from the root of a checkout:

    python tools/code_lines.py [package directory]

It prints one ``<lines> <module>`` row per module and then
``<lines> total``. It reports and gates nothing.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "copulalg"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    tree = ast.parse(source)
    spanned = set()
    for stmt in tree.body:
        first = min([stmt.lineno] + [d.lineno for d in
                                     getattr(stmt, "decorator_list", ())])
        spanned.update(range(first, stmt.end_lineno + 1))
    spanned -= _docstring_lines(tree)
    text = source.splitlines()
    return sum(1 for i in spanned
               if text[i - 1].strip() and not text[i - 1].lstrip().startswith("#"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
