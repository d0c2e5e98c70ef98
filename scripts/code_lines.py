"""Print the code lines of each module of a checkout's src/rfst/, and their total.

A code line is a line that holds a token of code: blank lines, comment
lines and the docstrings of modules, classes and functions (the string
that is their first statement) do not count.  A statement that spans
several lines counts each of them.  For example:

    python scripts/code_lines.py
    python scripts/code_lines.py /path/to/other/checkout

The optional argument is the checkout to count (by default the one
this script is in).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that are not code: layout, comments and the file's own markers
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()  # (line, column) where each docstring starts
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE and token.start not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "rfst").glob("*.py"))
    if not modules:
        raise SystemExit(f"no modules under {root / 'src' / 'rfst'}")
    total = 0
    for path in modules:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
