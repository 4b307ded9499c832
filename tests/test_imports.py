"""Lint step: every imported name in the package and the tests is read.

An ast walk collects the names each module binds by import and the names
it reads; a name inside a quoted annotation does not count as read.  Two
kinds of imports are kept on purpose: the package's __init__.py re-exports
its API, and the planner modules import the (module, attribute) names that
planbench/tracing.py WRAPS, so that the benchmark's tracer can replace
them there.
"""

import ast
from pathlib import Path

from test_benchmark_hooks import load_wraps

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "pdrplan").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


def imported_names(tree):
    """(bound name, line) of every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_read():
    wrapped = {(f"{path}.py", attr) for path, attr, _, _ in load_wraps()
               if "." not in path}
    unused = []
    for path in FILES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        in_package = path.parent.name == "pdrplan"
        for name, line in imported_names(tree):
            if name in read or (in_package and (path.name, name) in wrapped):
                continue
            unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not unused, "imported but never read:\n" + "\n".join(unused)
