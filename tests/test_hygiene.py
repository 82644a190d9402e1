"""Source hygiene: every module-level import of a package module is used,
no package module imports a private name from a sibling module, and every
name the benchmark's tracer wraps exists."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "causalcoh"


def _bound_imports(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every name a module-level import binds."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(_bound_imports(tree).items(), key=lambda kv: kv[1])
            if name not in used]


def private_sibling_imports(path: Path) -> list[str]:
    """Every ``from .x import _name``, at any depth of the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_unused_module_level_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == []


def test_unused_import_detector_sees_what_it_should(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from math import comb as choose, gcd\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return gcd(*x)\n")
    assert unused_imports(probe) == ["probe.py:2: os", "probe.py:3: Fraction",
                                     "probe.py:4: choose"]


def test_no_private_names_imported_from_sibling_modules():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [entry for path in modules for entry in private_sibling_imports(path)] == []


def test_private_import_detector_sees_what_it_should(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import calabi as _calabi\n"
        "from .tensors import TensorField, _flat\n"
        "from os.path import _get_sep\n"
        "def f():\n"
        "    from ..young import _index_table as table\n"
        "    return table\n")
    assert private_sibling_imports(probe) == ["probe.py:2: _flat",
                                              "probe.py:5: _index_table"]


def test_benchmark_tracer_finds_every_name_it_wraps():
    # bench/layers.py wraps functions and methods by module and name, so a
    # rename that every other test accepts stops `bench/run.py --trace 1`
    # with an AttributeError; install() mutates the modules, hence a subprocess
    root = SRC.parent.parent
    path = [str(root / "src"), str(root / "bench"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", "from layers import Tracer; Tracer().install()"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


# The name bench/layers.py wraps; only polynomials.py may bind it.
BENCHMARK_ALIAS = "MultiPolynomial"


def identifier_uses(path: Path, name: str) -> list[str]:
    """Every line that reads, binds or imports ``name`` as an identifier
    (a name, an attribute or an import); strings and comments do not count."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = {node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == name)
             or (isinstance(node, ast.Attribute) and node.attr == name)
             or (isinstance(node, ast.alias) and name in (node.name, node.asname))}
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_benchmark_alias_stays_out_of_the_api():
    import causalcoh
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "polynomials.py")
    modules += sorted(Path(__file__).resolve().parent.glob("*.py"))
    assert modules
    assert [entry for path in modules for entry in identifier_uses(path, BENCHMARK_ALIAS)] == []
    assert BENCHMARK_ALIAS not in dir(causalcoh)


def test_identifier_detector_sees_what_it_should(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from causalcoh.polynomials import MultiPolynomial\n"
        "import causalcoh.polynomials as p\n"
        "x = p.MultiPolynomial\n"
        "y = 'MultiPolynomial'  # MultiPolynomial\n"
        "MultiPolynomial = None\n")
    assert identifier_uses(probe, BENCHMARK_ALIAS) == ["probe.py:1", "probe.py:3", "probe.py:5"]
    assert identifier_uses(SRC / "polynomials.py", BENCHMARK_ALIAS) != []
