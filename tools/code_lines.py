"""Count the code lines of Python sources: lines that carry a token of
code, leaving out blank lines, comment lines and docstrings.

    python tools/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py``; the default
is ``src/varmech``.  Prints one count per file, then the total.  A line
of a multi-line expression or string counts once per line it spans; a
docstring (the leading string of a module, class or function body)
counts not at all.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# Tokens that are not code: layout, comments and the end of the file.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """Line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of one Python file."""
    source = Path(path).read_bytes()
    with open(path, "rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src/varmech"]
    total = 0
    for path in python_files(paths):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
