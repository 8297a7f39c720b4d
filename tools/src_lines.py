"""Count the lines and the code lines of each module under a source tree.

A code line is a line that holds a token: comments, blank lines and the
docstrings of modules, classes and functions are not code.  A token that
spans several lines, such as a multi-line string, makes each of them a
code line.

Usage: ``python3 tools/src_lines.py [ROOT]`` (default ``src``).  Prints one
row per module, ``lines  code  path``, then the totals.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set:
    """Line numbers taken by module, class and function docstrings."""
    lines = set()
    nodes = [tree] + [n for n in ast.walk(tree) if isinstance(
        n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in nodes:
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """``(lines, code lines)`` of one module's source."""
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv: list) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src")
    total_lines = total_code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print("%6d %6d  %s" % (lines, code, path))
    print("%6d %6d  total" % (total_lines, total_code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
