"""Print every imported name that its module never reads.

    python tools/unused_imports.py [PATH ...]

Each PATH is a Python file or a directory searched for ``*.py``; by default
the ``src/lincfg``, ``tests`` and ``tools`` directories of this tree. One
``path:line name`` line is printed per imported name that its module never
loads, and the exit status is 1 if there is any, else 0. Exempt are
``from __future__`` imports, every import of a package's ``__init__.py``
(its re-exports), names listed in the module's ``__all__``, and import
statements with a ``# noqa`` comment on one of their lines. A name counts as
read wherever the module loads it, at any depth; only the ``ast`` module of
the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_PATHS = (ROOT / "src" / "lincfg", ROOT / "tests", ROOT / "tools")


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(e.value for e in node.value.elts
                         if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name the source imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    skip = read | _exported(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in skip:
                found.append((node.lineno, name))
    return sorted(found)


def _modules(paths) -> list[Path]:
    return sorted({f for p in map(Path, paths)
                   for f in ([p] if p.is_file() else p.rglob("*.py"))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=list(DEFAULT_PATHS),
                        help="files or directories to scan (default: src/lincfg, tests, tools)")
    args = parser.parse_args(argv)
    status = 0
    for path in _modules(args.paths):
        if path.name == "__init__.py":  # a package's imports are its re-exports
            continue
        found = unused_imports(path.read_text(encoding="utf-8"))
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        for line, name in found:
            print(f"{shown}:{line} {name}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
