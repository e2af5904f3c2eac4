"""Print the code-line count of each module of the lincfg package, and the total.

    python tools/code_lines.py [--src PATH]

A code line is a line that holds part of a statement. Blank lines,
comment-only lines and the docstrings of modules, classes and functions are
not counted; every other line of a statement that spans several lines is.
``--src`` names the directory that holds the ``lincfg`` package (a
checkout's ``src``; this tree's by default), so two trees compare as

    python tools/code_lines.py --src A/src
    python tools/code_lines.py --src B/src

One ``module count`` line is printed per module of the package, in name
order, then ``total count``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the lincfg package (default: this tree's)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted((args.src / "lincfg").glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
