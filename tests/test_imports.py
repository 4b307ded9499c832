"""Lint steps: every imported name in the package and the tests is read,
and so is every attribute the package sets on self, every private
function or method it defines, and every parameter its functions take.

An ast walk collects the names each module binds by import and the names
it reads; a name inside a quoted annotation does not count as read.  Two
kinds of imports are kept on purpose: the package's __init__.py re-exports
its API, and the planner modules import the (module, attribute) names that
planbench/tracing.py WRAPS, so that the benchmark's tracer can replace
them there.

Attributes and private functions are matched by name over the package and
the tests together: `self.x = ...` counts as read if some `.x` is loaded
anywhere, and a private function `_f` if `_f` is loaded as a name or as an
attribute.  A local variable that shares an attribute's name does not
count as a read of the attribute.

A parameter counts as read if its function's body loads its name; self is
exempt.

A dataclass field counts as read if some `.field` is loaded in the package,
the tests or planbench/, which reads the planner's results from outside.
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


def _definitions(tree):
    """(kind, name, line) of every attribute assigned on self and every
    private (single leading underscore, not dunder) function or method."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield "attribute", node.attr, node.lineno
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name.startswith("_") and not node.name.endswith("__")):
            yield "function", node.name, node.lineno


def test_every_self_attribute_and_private_function_is_read():
    attrs_read, names_read = set(), set()
    trees = {}
    for path in FILES:
        tree = trees[path] = ast.parse(path.read_text(encoding="utf-8"),
                                       str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs_read.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names_read.add(node.id)
    unread = []
    for path, tree in trees.items():
        if path.parent.name != "pdrplan":
            continue
        for kind, name, line in _definitions(tree):
            read = name in attrs_read or (kind == "function"
                                          and name in names_read)
            if not read:
                unread.append(f"{path.relative_to(ROOT)}:{line}: {kind} {name}")
    assert not unread, "defined but never read:\n" + "\n".join(unread)


def test_every_parameter_is_read():
    unread = []
    for path in FILES:
        if path.parent.name != "pdrplan":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            for p in params:
                if p is not None and p.arg != "self" and p.arg not in read:
                    unread.append(f"{path.relative_to(ROOT)}:{fn.lineno}: "
                                  f"{fn.name}({p.arg})")
    assert not unread, "parameter never read:\n" + "\n".join(unread)


def _dataclass_fields(tree):
    """(class, field, line) of every annotated field of a @dataclass."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in cls.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass"
                   for d in decorators):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                              ast.Name):
                yield cls.name, stmt.target.id, stmt.lineno


def test_every_dataclass_field_is_read():
    readers = [*FILES, *sorted((ROOT / "planbench").glob("*.py"))]
    attrs_read = {node.attr for path in readers
                  for node in ast.walk(ast.parse(path.read_text(
                      encoding="utf-8"), str(path)))
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in FILES:
        if path.parent.name != "pdrplan":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for cls, name, line in _dataclass_fields(tree):
            if name not in attrs_read:
                unread.append(f"{path.relative_to(ROOT)}:{line}: {cls}.{name}")
    assert not unread, "dataclass field never read:\n" + "\n".join(unread)
