"""Every module-level name and method in the package is used somewhere.

A def, class or assignment at the top level of a ``src/hierconn`` module, or
a def in a top-level class body, whose name appears nowhere else as a word in
``src/``, ``tests/`` or ``perfbench/`` is dead code. The check only reads
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
