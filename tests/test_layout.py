"""Checks on the layout of the package's source."""

import ast
import os
from collections import Counter

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "hyperfind")

# Definitions that nothing in the package names, each with the reason it stays.
ALLOWED_UNCALLED = {
    "SolverSession.reset": "perfbench/spans.py patches it by name",
}

# Record fields that nothing in the package reads, each with the reason it stays.
ALLOWED_UNREAD = {
    "Product.origin": "the product tests' oracle: tests/ check each product location's origin",
}


# Functions that key a table by `id(`, each with the reason it stays.
ALLOWED_ID_CALLS = {
    "Walk.children": "it keeps the tree off the nodes: a link from parent to child would make "
                     "every node a reference cycle",
    "ExistentialSide.prepare": "a trace's bound-(k-1) ancestor is found through the observed "
                               "tuple its parent shares",
    "ExistentialSide.witness": "a universal trace's bound-(k-1) ancestor is found through the "
                               "observed tuple its parent shares",
    "ExistentialSide.block": "each path conjunct is renamed once per search",
}


def _references(tree: ast.AST) -> Counter:
    """Each name the tree mentions: as a name, an attribute or an import."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function, class and method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def _own_nodes(node: ast.AST):
    """The nodes under `node`, but not those of the functions and classes
    defined in it."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
            stack.extend(ast.iter_child_nodes(child))


def _trees():
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read(), name)
    return trees


def _declared_fields(node: ast.ClassDef):
    """The names a class body lists in `__slots__` or `_fields`: the fields
    of a `logic.Record`, and the slots of any other slotted class."""
    for stmt in node.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id in ("__slots__", "_fields")
                        for t in stmt.targets)):
            yield from (elt.value for elt in stmt.value.elts)


def test_every_record_field_is_read():
    trees = _trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            # Only `x.f`, or `getattr(x, "f", ...)`, reads a field: one set only
            # through its constructor (`C(f=...)`) is kept alive by nothing.
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    fields = [f"{node.name}.{name}" for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for name in _declared_fields(node)]
    assert "IntLit.value" in fields and "BenchRow.error" in fields
    unread = [field for field in fields if field.rsplit(".", 1)[1] not in read]
    assert sorted(set(unread) - set(ALLOWED_UNREAD)) == [], \
        "a record field that nothing in the package reads"
    assert sorted(set(ALLOWED_UNREAD) - set(unread)) == [], \
        "allowlisted, but read in the package: drop it from ALLOWED_UNREAD"


def test_every_definition_has_a_caller():
    trees = _trees()
    # A re-export from `__init__.py` is no caller: a definition that only the
    # package's exports name is kept alive by its own tests alone.
    mentioned = sum((_references(tree) for name, tree in trees.items()
                     if name != "__init__.py"), Counter())
    uncalled = []
    for tree in trees.values():
        for qualname, node in _definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            # A mention inside the definition itself (recursion) does not count.
            if mentioned[node.name] - _references(node)[node.name] == 0:
                uncalled.append(qualname)
    unexplained = sorted(set(uncalled) - set(ALLOWED_UNCALLED))
    assert unexplained == [], "defined but never named elsewhere in the package"
    assert sorted(set(ALLOWED_UNCALLED) - set(uncalled)) == [], \
        "allowlisted, but named in the package: drop it from ALLOWED_UNCALLED"


def test_identity_keyed_tables_are_allowlisted():
    # A table keyed by `id(obj)` must keep obj alive, or a later object can
    # take its id; each one stays only for a reason given above.
    callers = set()
    for name, tree in _trees().items():
        for qualname, node in [(name, tree), *_definitions(tree)]:
            if any(isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                   and child.func.id == "id" for child in _own_nodes(node)):
                callers.add(qualname)
    assert sorted(callers - set(ALLOWED_ID_CALLS)) == [], \
        "a table keyed by object identity: give a reason in ALLOWED_ID_CALLS, or key it by value"
    assert sorted(set(ALLOWED_ID_CALLS) - callers) == [], \
        "allowlisted, but calls no id(): drop it from ALLOWED_ID_CALLS"
