"""The maintenance scripts in tools/ run against a package tree."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line
X = 1  # a comment after code


def f(a,
      b):
    """A function docstring."""
    s = """not a docstring,
    but a value"""
    return a + b
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    """tools/code_lines.py counts the lines of statements only: here X, the
    two of f's signature, the two of s and the return, 6 in all."""
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.code_lines(SOURCE) == 6
    (tmp_path / "lincfg").mkdir()
    (tmp_path / "lincfg" / "mod.py").write_text(SOURCE)
    (tmp_path / "lincfg" / "__init__.py").write_text('"""Only a docstring."""\n')
    assert tool.main(["--src", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "__init__.py 0\nmod.py 6\ntotal 6\n"
