"""Every name a module of the package or of the tests imports is used in it,
and every function and class the package defines is used somewhere.

A statement marked "# noqa: F401" is exempt from the first check: parwalk.cli
keeps a few names bound that it does not call, because perfbench/tracing.py
wraps them there.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "parwalk").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path: Path) -> list:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            # import a.b binds a
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is exported, which is a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    assert len(SOURCES) > 20
    unused = {p.relative_to(ROOT).as_posix(): unused_imports(p) for p in SOURCES}
    assert {path: names for path, names in unused.items() if names} == {}


def references(tree) -> Counter:
    """How often tree refers to each identifier: as a name, as an attribute,
    or as a string equal to it (perfbench/tracing.py names the functions it
    wraps by strings). A listing in __all__ is not a reference."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            refs.subtract(elt.value for elt in node.value.elts)
        elif isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
    return refs


def test_every_definition_of_the_package_is_referenced():
    # outside its own definition, in the package, the tests or the benchmark
    paths = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    total = sum((references(tree) for tree in trees.values()), Counter())
    unreferenced = [
        f"{path.name}:{node.name}"
        for path in PACKAGE
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and total[node.name] - references(node)[node.name] <= 0
    ]
    assert unreferenced == []
