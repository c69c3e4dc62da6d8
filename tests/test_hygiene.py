"""Source hygiene: every name a module imports is used in that module,
every public name the package exports exists, and every public function
or class is used somewhere.

There is no linter in the toolchain, so these AST scans are the guard.
``__init__`` is exempt from the import scan, since its imports are the
package's public names, and its re-exports do not count as uses.
"""

import ast
from pathlib import Path

import pytest

import cltlsynth

SRC = Path(cltlsynth.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]
USERS = MODULES + sorted((REPO / "tests").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside quoted annotations, such as Optional["InnerEncoder"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Optional\n"
                          "x: Optional[int] = None\n") == ["line 1: os", "line 2: List"]
    assert unused_imports("from typing import Optional\ny: 'Optional[int]'\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_exported_name_resolves():
    assert [name for name in cltlsynth.__all__ if not hasattr(cltlsynth, name)] == []


def public_definitions(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_used(source: str) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_definition_is_used():
    # a use is any reference outside the definition itself, in the package
    # (its own module included), its tests or the benchmark
    used = set().union(*(names_used(path.read_text()) for path in USERS))
    unused = [f"{path.name}: {name}" for path in MODULES
              for name in public_definitions(path.read_text()) if name not in used]
    assert unused == []
