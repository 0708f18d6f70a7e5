"""Count the code lines of Python files: every physical line that holds code.

Blank lines, comment-only lines and docstrings (module, class and function)
are left out. A statement that spans several lines counts each of them, and so
does a multi-line string that is not a docstring. Docstrings are found with
``ast``; the remaining lines are classified with ``tokenize``.

Usage: python scripts/count_code_lines.py FILE [FILE ...]

Prints one line per file and a total when more than one file is given.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of physical lines of ``source`` that hold code other than a docstring."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python scripts/count_code_lines.py FILE [FILE ...]", file=sys.stderr)
        return 2
    total = 0
    for name in argv:
        n = count_code_lines(Path(name).read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {name}")
    if len(argv) > 1:
        print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
