"""Every module-level name and method in the package is used somewhere, and
every name a module imports is used in that module.

A def, class or assignment at the top level of a ``src/hierconn`` module, or
a def in a top-level class body, whose name appears nowhere else as a word in
``src/``, ``tests/`` or ``perfbench/`` is dead code. So is a name that a
``src/hierconn`` module imports and never reads, however an outside caller
(a test's monkeypatch, the benchmark tracer) might reach it; ``__init__.py``
is exempt, its imports are the package's re-exports. The checks only read
those files.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name
            yield from (n.name for n in node.body if isinstance(n, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_every_module_level_name_is_used():
    words = Counter(
        word
        for top in ("src", "tests", "perfbench")
        for path in (ROOT / top).rglob("*.py")
        for word in re.findall(r"\w+", path.read_text())
    )
    unused = [
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "hierconn").glob("*.py"))
        for name in module_level_names(ast.parse(path.read_text()))
        if not (name.startswith("__") and name.endswith("__")) and words[name] < 2
    ]
    assert not unused, "defined but never used:\n" + "\n".join(unused)


def imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted((ROOT / "src" / "hierconn").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported_names(tree) if name not in read]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
