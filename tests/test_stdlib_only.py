"""The package imports nothing outside the standard library."""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "ratiobound")


def test_package_imports_only_stdlib():
    allowed = set(sys.stdlib_module_names) | {"__future__"}
    foreign = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [
                f"{name}: {m}" for m in modules if m.split(".")[0] not in allowed
            ]
    assert foreign == []


def test_modules_use_every_name_they_import():
    """No module but `__init__.py`, which re-exports, imports a name it
    never reads: a leftover import of deleted code fails here."""
    unused = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{name}:{line}: {b}" for b, line in imported.items() if b not in read]
    assert unused == []
