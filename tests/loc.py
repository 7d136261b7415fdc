"""Line counter: code lines and physical lines of each module of a package.

Usage::

    python tests/loc.py --src src/morphprim

prints one line per ``.py`` file directly under ``--src``, in name order,
then a ``total`` line, each giving the file's code lines and its physical
lines.  A code line is one that holds a token other than a comment, a line
end or an indent, and lies inside no docstring: blank lines, comment-only
lines and the lines of a module's, class's or function's docstring do not
count.  Tokens come from ``tokenize`` and docstrings from ``ast``, so a
``#`` or a blank line inside a string counts as the string's.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that make no line a code line on their own
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """Code lines and physical lines of ``source``."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source))), len(source.splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="directory holding the modules")
    args = parser.parse_args(argv)
    paths = sorted(args.src.glob("*.py"))
    if not paths:
        parser.error(f"no .py file in {args.src}")
    total_code = total_lines = 0
    for path in paths:
        code, lines = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_lines += lines
        print(f"{path.stem}\t{code}\t{lines}")
    print(f"total\t{total_code}\t{total_lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
