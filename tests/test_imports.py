"""Every module-level import and private name of a polyrad module is loaded
by that module, and every exception class of ``errors.py`` is raised or
caught by name somewhere in the package.

Deletions tend to leave imports, ``_``-prefixed helpers and error classes
behind; this walks each module's syntax tree with the standard library only.
``__init__`` re-exports the public API, so its imports are the point of the
module and are not checked.  The runtime needs numpy alone: importing the
command line loads no scipy, and the exact term algebra in ``radial.py``
imports the standard library only.  The library sketch in README.md runs, and
every name README.md cites in backticks as ``module.NAME`` exists.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import polyrad

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(p for p in Path(polyrad.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imports(nodes):
    """(module, bound name, line) of each import among ``nodes`` (not
    __future__); a relative import's module keeps its leading dots."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.asname or alias.name, node.lineno


def _imported_names(tree: ast.Module) -> dict:
    """Bound name -> line of each module-level import (not __future__)."""
    return {name: line for _, name, line in _imports(tree.body)}


def _non_stdlib_imports(tree: ast.Module) -> set:
    """The modules imported anywhere in ``tree`` that are not in the
    standard library."""
    return {module for module, _, _ in _imports(ast.walk(tree))
            if module.split(".")[0] not in sys.stdlib_module_names}


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


def test_radial_imports_only_the_standard_library():
    # exact values are ints and Fractions; floats come from functionals
    path = Path(polyrad.__file__).parent / "radial.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not _non_stdlib_imports(tree)
    local = ast.parse("import json\nfrom . import errors\n"
                      "def f():\n    import numpy.linalg as la\n    from fractions import F\n")
    assert _non_stdlib_imports(local) == {".", "numpy.linalg"}


def _class_names(tree: ast.Module) -> set:
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _raised_or_caught(tree: ast.Module) -> set:
    """Names raised (``raise X`` or ``raise X(...)``) or caught by name
    (``except X``, ``except (X, mod.Y)``) anywhere in the tree."""
    names = set()

    def add(node):
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Tuple):
            for element in node.elts:
                add(element)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)

    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            add(node.exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            add(node.type)
    return names


def test_every_error_class_is_raised_or_caught():
    # a class that nothing raises or catches by name is surface with no use
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in MODULES}
    used = set().union(*map(_raised_or_caught, trees.values()))
    dead = _class_names(trees["errors"]) - used
    assert not dead, f"errors.py: classes never raised or caught by name {sorted(dead)}"


def test_walk_flags_a_dead_error_class():
    errors = ast.parse("class A(Exception):\n    pass\nclass B(A):\n    pass\n"
                       "class C(A):\n    pass\nclass D(A):\n    pass\n")
    user = ast.parse("try:\n    raise B('x')\nexcept (mod.C, ValueError):\n    pass\n")
    assert _class_names(errors) - _raised_or_caught(user) == {"A", "D"}


def test_cli_import_loads_no_scipy():
    src = str(Path(polyrad.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import polyrad.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"


def test_readme_library_sketch_runs():
    # the sketch imports public names; a cut of the API must not break it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], str(README), "exec"), {})


def _cited_names(text: str, modules: set) -> set:
    """(module, NAME) for each ``module.NAME`` inside a backticked span of
    ``text`` whose module is one of ``modules``; a file name such as
    ``suite.py`` is not a citation."""
    return {(module, name)
            for span in re.findall(r"`([^`\n]+)`", text)
            for module, name in re.findall(r"(?<![\w.])(\w+)\.(?!py\b)([A-Za-z_]\w*)", span)
            if module in modules}


def test_readme_cited_names_exist():
    # a deletion must take its README mentions with it
    modules = {p.stem: f"polyrad.{p.stem}" for p in MODULES}
    modules["polyrad"] = "polyrad"
    cited = _cited_names(README.read_text(encoding="utf-8"), set(modules))
    missing = sorted(f"{module}.{name}" for module, name in cited
                     if not hasattr(importlib.import_module(modules[module]), name))
    assert cited and not missing, f"README.md cites missing names {missing}"


def test_walk_finds_cited_names():
    text = ("`suite.EPS_SET` and `ode.family_state(m, r)`, not `np.exp`,\n"
            "`x.suite.B`, suite.C or `functionals.py`; `polyrad.cli`")
    assert _cited_names(text, {"suite", "ode", "functionals", "polyrad"}) == {
        ("suite", "EPS_SET"), ("ode", "family_state"), ("polyrad", "cli")}
