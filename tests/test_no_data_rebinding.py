"""No code in the package rebinds a tensor's ``data``.

A model's tensors are views into ``ModelParams.flat``; a plain assignment to
``.data`` detaches a tensor from it, and the optimizer, snapshots, casts and
checkpoints, which work on ``flat``, would then skip or misread it. Only
``Tensor.__init__`` may assign ``.data``; everything else writes in place
(``t.data[...] = x``, ``t.data *= s``). The check only reads ``src/hierconn``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"Tensor.__init__"}


def data_assignments(tree: ast.AST, scope: tuple[str, ...] = ()):
    """(enclosing def or class path, line) of each plain assignment to a ``.data`` attribute."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from data_assignments(node, (*scope, node.name))
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for sub in (n for target in targets for n in ast.walk(target)):
                stored = isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                if stored and sub.attr == "data":
                    yield ".".join(scope), node.lineno
        yield from data_assignments(node, scope)


def test_scan_flags_plain_assignments_only():
    source = (
        "def f(t, u):\n"
        "    t.data = 1\n"
        "    t.data, u = 2, 3\n"
        "    t.data[...] = 4\n"
        "    t.data *= 5\n"
        "    u.data.x = 6\n"
    )
    assert list(data_assignments(ast.parse(source))) == [("f", 2), ("f", 3)]


def test_no_plain_assignment_rebinds_data():
    rebinding = [
        f"{path.name}:{line} in {scope or 'module'}"
        for path in sorted((ROOT / "src" / "hierconn").glob("*.py"))
        for scope, line in data_assignments(ast.parse(path.read_text()))
        if scope not in ALLOWED
    ]
    assert not rebinding, "assignments that rebind a tensor's data:\n" + "\n".join(rebinding)
