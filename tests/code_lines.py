"""Count the code lines of each file of ``src/matchrobust``.

Run from the repository root; pytest does not collect this file::

    python tests/code_lines.py

A code line holds at least one token of code. Blank lines, comment lines
and the lines of docstrings (a string literal standing alone as the first
statement of a module, class or function) are not counted. Prints one line
per file and then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "matchrobust"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def counts() -> dict[str, int]:
    """Code lines per file name of ``src/matchrobust``, in name order."""
    return {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def main() -> int:
    per_file = counts()
    for name, count in per_file.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(per_file.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
