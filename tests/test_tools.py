"""The maintenance scripts in tools/ run against a package tree."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    """tools/<name>.py, loaded as a module without running its main()."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


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
    tool = _tool("code_lines")
    assert tool.code_lines(SOURCE) == 6
    (tmp_path / "lincfg").mkdir()
    (tmp_path / "lincfg" / "mod.py").write_text(SOURCE)
    (tmp_path / "lincfg" / "__init__.py").write_text('"""Only a docstring."""\n')
    assert tool.main(["--src", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "__init__.py 0\nmod.py 6\ntotal 6\n"


def test_sample_hashes_gives_one_line_per_bench_config(tmp_path):
    """tools/sample_hashes.py, the check behind every bit-identity claim, at
    the smoke shape gives one `workload/config sha256` line for each of the
    11 bench configs, and keeps each samples.bin under --keep's directory. A
    rerun gives the same lines, each with a third field: 0, its samples'
    movement against the kept ones."""
    tool = _tool("sample_hashes")
    lines = tool.sample_hashes(1, smoke=True, keep=tmp_path)
    assert len(list(tmp_path.glob("*/*.bin"))) == 11
    again = tool.sample_hashes(1, smoke=True, keep=tmp_path)
    assert [line.rsplit(" ", 1) for line in again] == [[line, "0"] for line in lines]
    names = [line.split()[0] for line in lines]
    assert len(names) == len(set(names)) == 11
    assert names[:2] == ["wide-cfg/full", "batch-cfg/full"]
    assert all(len(line.split()[1]) == 64 for line in lines)


def test_sample_hashes_forwards_set_to_every_sample_call():
    """--set KEY=VALUE reaches every `lincfg sample` call as --KEY VALUE: at
    m = 4 every config still gives a line, two calls give the same lines,
    and the lines differ from those of the configs' own m."""
    tool = _tool("sample_hashes")
    assert tool._setting("m=4") == ("m", "4")
    lines = tool.sample_hashes(1, smoke=True, sets={"m": "4"})
    assert len(lines) == 11
    assert tool.sample_hashes(1, smoke=True, sets={"m": "4"}) == lines
    own = tool.sample_hashes(1, smoke=True)
    assert [line.split()[0] for line in own] == [line.split()[0] for line in lines]
    assert not set(own) & set(lines)
