"""Static checks of the package source: it imports nothing outside the
standard library, uses every name it imports, and reaches every definition."""

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


# Modules, classes and functions that nothing in the package reaches, on
# purpose.  The paper's finite-ambiguity result is library-only: no command
# builds growth tuples from an automaton.  `samples.py` holds the example
# automata that the data files and the benchmark are generated from.
UNREACHED_ALLOWED = {
    "bounded.DeltaTuple",
    "bounded.ExpSumDecision",
    "bounded._powprod",
    "bounded._ratio_at",
    "bounded._ratio_witnesses",
    "bounded.decide_finitely_ambiguous",
    "bounded.finitely_ambiguous_formula",
    "samples",
}


def _reads(nodes):
    """Names and attribute names read by `nodes`, annotations excluded."""
    out = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        if isinstance(node, ast.arg):
            continue
        if isinstance(node, ast.AnnAssign):
            stack += [node.target] + ([node.value] if node.value else [])
            continue
        if isinstance(node, ast.FunctionDef):
            stack += node.decorator_list + [node.args] + node.body
            continue
        stack += ast.iter_child_nodes(node)
    return out


def test_every_definition_is_reached():
    """Every top-level function, class and method is reached from `cli.main`
    or from module-level code, so no code lives in the package that only
    tests call.  Names are matched, not resolved: a definition counts as
    reached when reached code reads its name, as a name or an attribute (a
    method, once its class is reached)."""
    defs = {}  # "module.name" or "module.Class.name" -> node
    roots = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        mod = name[:-3]
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots.append(node)
                continue
            defs[f"{mod}.{node.name}"] = node
            roots += node.decorator_list
            if isinstance(node, ast.ClassDef):
                roots += node.bases
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs[f"{mod}.{node.name}.{sub.name}"] = sub

    def body(node):
        if isinstance(node, ast.ClassDef):
            return [s for s in node.body if not isinstance(s, ast.FunctionDef)]
        return [node]

    read = _reads(roots) | {"main"}
    reached = set()
    while True:
        new = set()
        for q, node in defs.items():
            *owner, short = q.split(".")
            if q in reached or short not in read:
                continue
            if len(owner) == 2 and ".".join(owner) not in reached:
                continue
            new.add(q)
        if not new:
            break
        reached |= new
        for q in new:
            read |= _reads(body(defs[q]))
            if isinstance(defs[q], ast.ClassDef):
                # dunder methods run implicitly once the class is used
                read |= {
                    s.name
                    for s in defs[q].body
                    if isinstance(s, ast.FunctionDef) and s.name.startswith("__")
                }
    unreached = [
        q
        for q in defs
        if q not in reached
        and not any(q == a or q.startswith(a + ".") for a in UNREACHED_ALLOWED)
    ]
    assert unreached == []
