"""Every module-level import and private name of a polyrad module is loaded
by that module.

Deletions tend to leave imports and ``_``-prefixed helpers behind; this
walks each module's syntax tree with the standard library only.
``__init__`` re-exports the public API, so its imports are the point of the
module and are not checked.  The runtime needs numpy alone: importing the
command line loads no scipy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyrad

MODULES = sorted(p for p in Path(polyrad.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict:
    """Bound name -> line of each module-level import (not __future__)."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _private_names(tree: ast.Module) -> dict:
    """Name -> line of each module-level ``_``-prefixed def, class or
    assignment target (dunder names excluded)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.endswith("__"):
                names[name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set:
    """Names loaded anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "RadialGrid"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _referenced_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _referenced_names(tree)
    unused = {name: line for name, line in _private_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused private names {unused}"


def test_walk_flags_an_unused_private_name():
    tree = ast.parse("_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
                     "def _f():\n    return _A\n"
                     "class _K:\n    pass\n"
                     "def g(x: '_K'):\n    _B = 0\n    return _f()\n")
    used = _referenced_names(tree)
    assert {n for n in _private_names(tree) if n not in used} == {"_B", "_C"}


def test_walk_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, Tuple\n"
                     "def f(x: Tuple) -> 'int':\n    return x\n")
    used = _referenced_names(tree)
    assert {n for n in _imported_names(tree) if n not in used} == {"os", "Optional"}


def test_cli_import_loads_no_scipy():
    src = str(Path(polyrad.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import polyrad.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
