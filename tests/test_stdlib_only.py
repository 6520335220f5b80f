"""Static checks of the package source: it imports nothing outside the
standard library, has no module-level import cycle, imports inside
functions only where the command line loads a decider lazily, uses every
name it imports, reaches every definition and passes every defaulted
parameter.  The import checks also read the tests' shared `helpers.py` and
`oracles.py`."""

import ast
import os
import sys

TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, "..", "src", "ratiobound")
SHARED = [os.path.join(TESTS, name) for name in ("helpers.py", "oracles.py")]


def _package_files():
    return [os.path.join(SRC, n) for n in sorted(os.listdir(SRC)) if n.endswith(".py")]


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def test_package_imports_only_stdlib():
    allowed = set(sys.stdlib_module_names) | {"__future__"}
    foreign = []
    for path in _package_files():
        name = os.path.basename(path)
        for node in ast.walk(_parse(path)):
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
    for path in _package_files() + SHARED:
        name = os.path.basename(path)
        if name == "__init__.py":
            continue
        tree = _parse(path)
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


def _relative_imports(nodes):
    """(line, module) of each `from .x import` among `nodes`, searched
    without entering function bodies."""
    out = []
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            out.append((node.lineno, node.module))
        stack += ast.iter_child_nodes(node)
    return out


def test_module_imports_form_no_cycle():
    """The module-level `from .x import` graph of the package is acyclic, so
    every module imports completely before any module that depends on it."""
    graph = {
        os.path.basename(path)[:-3]: {m for _, m in _relative_imports(_parse(path).body)}
        for path in _package_files()
    }
    done, on_path, cycles = set(), [], []

    def visit(mod):
        if mod in on_path:
            cycles.append(on_path[on_path.index(mod) :] + [mod])
            return
        if mod in done:
            return
        on_path.append(mod)
        for dep in sorted(graph.get(mod, ())):
            visit(dep)
        on_path.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)
    assert cycles == []


# The only imports inside functions: the command handlers that run the
# bounded decider or a reduction import it when called, so that a unary,
# unambiguous, `oracle` or `classify` call never loads it.  Each entry is
# (file, function, module imported).
FUNCTION_IMPORTS_ALLOWED = {
    ("cli.py", "cmd_check", ".bounded"),
    ("cli.py", "cmd_export_formula", ".bounded"),
    ("cli.py", "cmd_generate", ".reductions"),
    ("cli.py", "cmd_reduce", ".reductions"),
}


def test_function_imports_are_the_pinned_lazy_ones():
    """Every other import sits at module level, where each module's
    dependencies show."""
    inside = set()
    for path in _package_files() + SHARED:
        name = os.path.basename(path)
        for fn in ast.walk(_parse(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    inside |= {(name, fn.name, alias.name) for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    inside.add((name, fn.name, "." * node.level + (node.module or "")))
    # an entry that no import matches allows nothing and goes
    assert inside == FUNCTION_IMPORTS_ALLOWED


# Modules, classes and functions that nothing in the package reaches, on
# purpose.  `samples.py` holds the example automata that the data files are
# generated from; it stays in the package because the benchmark imports it.
UNREACHED_ALLOWED = {"samples"}


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
    def allowed(q, a):
        return q == a or q.startswith(a + ".")

    unreached = [
        q for q in defs if q not in reached and not any(allowed(q, a) for a in UNREACHED_ALLOWED)
    ]
    assert unreached == []
    # an entry that names no definition allows nothing and goes
    stale = [a for a in UNREACHED_ALLOWED if not any(allowed(q, a) for q in defs)]
    assert stale == []


# Defaulted parameters that no call inside the package passes, on purpose:
# `cli.main` reads `sys.argv` unless a caller hands it the words.
UNPASSED_ALLOWED = {"cli.main.argv"}


def test_every_defaulted_parameter_is_passed():
    """Every defaulted parameter of a top-level function or method is passed,
    by keyword or by position, by some call in the package, so no option
    lives in the package that only tests set.  Names are matched, not
    resolved: a call counts when its callee's name (as a name or an
    attribute) is the function's; a `*` or `**` argument passes all."""
    defaulted = {}  # "module.function.param" -> position (None: keyword only)
    calls = []
    for path in _package_files():
        mod = os.path.basename(path)[:-3]
        tree = _parse(path)
        calls += [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        for node in tree.body:
            fns = [(node, False)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                # a method's first parameter is bound, unless it is static
                fns = [
                    (s, "staticmethod" not in {getattr(d, "id", None) for d in s.decorator_list})
                    for s in node.body
                    if isinstance(s, ast.FunctionDef)
                ]
            for fn, bound in fns:
                a = fn.args
                pos = a.posonlyargs + a.args
                for i in range(len(pos) - len(a.defaults), len(pos)):
                    defaulted[f"{mod}.{fn.name}.{pos[i].arg}"] = i - bound
                for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        defaulted[f"{mod}.{fn.name}.{arg.arg}"] = None

    def passes(call, fn, param, i):
        f = call.func
        if getattr(f, "id", None) != fn and getattr(f, "attr", None) != fn:
            return False
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        starred = any(isinstance(x, ast.Starred) for x in call.args)
        return i is not None and (len(call.args) > i or starred)

    unpassed = [
        q
        for q, i in defaulted.items()
        if q not in UNPASSED_ALLOWED
        and not any(passes(c, *q.split(".")[1:], i) for c in calls)
    ]
    assert unpassed == []
    # an entry that names no defaulted parameter allows nothing and goes
    assert UNPASSED_ALLOWED <= set(defaulted)
