"""Every name a module of the package or of the tests imports is used in it.

A statement marked "# noqa: F401" is exempt: parwalk.cli keeps a few
names bound that it does not call, because perfbench/tracing.py wraps them
there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "parwalk").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


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
