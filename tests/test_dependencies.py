"""The package's runtime needs only what ``pyproject.toml`` lists: numpy.

scipy stays a test dependency (the tests use ``scipy.special`` as an oracle),
so importing the command-line entry point must load no scipy module, and
every third-party package a ``src/hierconn`` module imports must be listed in
``[project].dependencies``, each listed one imported somewhere.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def test_importing_the_cli_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = (
        "import sys, hierconn.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')[:3])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]", f"scipy modules loaded: {proc.stdout.strip()}"


def imported_packages(tree: ast.Module):
    """Top-level package of each absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_third_party_imports_are_the_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"]}
    importers: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "hierconn").glob("*.py")):
        for package in set(imported_packages(ast.parse(path.read_text()))):
            if package not in sys.stdlib_module_names and package not in ("__future__", "hierconn"):
                importers.setdefault(package, []).append(path.name)
    undeclared = {package: names for package, names in importers.items() if package not in declared}
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"
    unused = declared - set(importers)
    assert not unused, f"in [project].dependencies but imported nowhere: {sorted(unused)}"
