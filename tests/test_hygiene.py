"""Source hygiene: every name a module or test module imports is used in
that module, every public name the package exports exists, every public function or
class is used somewhere, every private module-level definition is
read in its own module, every package name the benchmark imports or
reads from a package module exists, and HiGHS is reached only through
``highs.py``.

There is no linter in the toolchain, so these AST scans are the guard.
``__init__`` is exempt from the import scan, since its imports are the
package's public names, and its re-exports do not count as uses.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import cltlsynth

SRC = Path(cltlsynth.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]
TESTS = sorted((REPO / "tests").glob("*.py"))
PERFBENCH = sorted((REPO / "perfbench").glob("*.py"))
USERS = MODULES + TESTS + PERFBENCH
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def names_read(tree: ast.AST) -> set[str]:
    """Names the tree reads, counting those inside quoted annotations such
    as Optional["InnerEncoder"]."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


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
    used = names_read(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Optional\n"
                          "x: Optional[int] = None\n") == ["line 1: os", "line 2: List"]
    assert unused_imports("from typing import Optional\ny: 'Optional[int]'\n") == []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_definitions(source: str) -> list[str]:
    """Module-level ``_``-prefixed functions, classes and assignments that
    their own module never reads; dunder names such as ``__all__`` are read
    by Python itself."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    used = names_read(tree)
    return [name for name in defined if name.startswith("_")
            and not name.endswith("__") and name not in used]


def test_scan_finds_an_unread_private_definition():
    assert unread_private_definitions(
        "_A = 1\n_B: int = 2\ndef _f(): return _B\nclass _C: pass\n"
        "class _D: pass\nx: '_D' = _f()\n__all__ = []\n") == ["_A", "_C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_read(path):
    assert unread_private_definitions(path.read_text()) == []


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


def unresolved_package_names(source: str) -> list[str]:
    """Names imported ``from cltlsynth...`` that do not exist, and
    attributes read from an imported package module, such as
    ``solver.write_lp``, that the module lacks."""
    tree = ast.parse(source)
    modules, missing = {}, []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "cltlsynth"):
            continue
        for alias in node.names:
            name = f"{node.module}.{alias.name}"
            try:
                value = importlib.import_module(name)  # a submodule
            except ImportError:
                try:
                    value = getattr(importlib.import_module(node.module), alias.name)
                except (ImportError, AttributeError):
                    missing.append(name)
                    continue
            if isinstance(value, types.ModuleType):
                modules[alias.asname or alias.name] = value
    missing += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)]
    return missing


def test_scan_finds_a_missing_package_name():
    assert unresolved_package_names(
        "from cltlsynth import solver, gone\n"
        "from cltlsynth.oracle import Lasso, missing\n"
        "from cltlsynth.nowhere import x\n"
        "solver.write_lp = solver.absent\n") == [
        "cltlsynth.gone", "cltlsynth.oracle.missing", "cltlsynth.nowhere.x", "solver.absent"]


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_every_benchmark_import_resolves(path):
    assert unresolved_package_names(path.read_text()) == []


def imports_highs_binding(source: str) -> bool:
    """Whether the source reaches SciPy's HiGHS binding, ``_highspy``: by an
    import statement, by a string that is a dotted module name under it
    (as a loader that looks the module up by name holds), or by loading
    an extension module from its file with ``ExtensionFileLoader``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value] if DOTTED_NAME.fullmatch(node.value) else []
        elif isinstance(node, ast.Call):
            if "ExtensionFileLoader" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None)):
                return True
            continue
        else:
            continue
        if any("_highspy" in name for name in names):
            return True
    return False


def calls_milp(source: str) -> bool:
    return any(isinstance(node, ast.Call)
               and "milp" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
               for node in ast.walk(ast.parse(source)))


def test_scan_finds_highs_users():
    assert imports_highs_binding("from scipy.optimize._highspy._core import _Highs\n")
    assert imports_highs_binding("from scipy.optimize import _highspy\n")
    assert imports_highs_binding("import scipy.optimize._highspy._core as hc\n")
    assert not imports_highs_binding("from scipy.optimize import milp\n")
    assert imports_highs_binding('sys.modules.get("scipy.optimize._highspy._core")\n')
    assert imports_highs_binding("importlib.machinery.ExtensionFileLoader(name, path)\n")
    assert imports_highs_binding("ExtensionFileLoader(name, path)\n")
    assert not imports_highs_binding('print("the _highspy binding is private")\n')
    assert calls_milp("milp(c)\n") and calls_milp("scipy.optimize.milp(c)\n")
    assert not calls_milp("from scipy.optimize import milp\nsolve(c)\n")


def test_only_the_solver_module_calls_highs():
    assert [p.name for p in USERS if imports_highs_binding(p.read_text())] == ["highs.py"]
    assert [p.name for p in MODULES if calls_milp(p.read_text())] == []
