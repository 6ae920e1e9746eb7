"""Only linalg uses linalg's private names.

linalg.rank and linalg.det pick the elimination kernel; a module or demo
that called a private kernel directly would bypass that choice.  Tests
may still call the private kernels as oracles.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _private_linalg_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name == "linalg" and not node.attr.startswith("__"):
                yield node.lineno, node.attr


def test_no_private_linalg_names_outside_linalg():
    uses = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for folder in ("src", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "linalg.py"
        for line, name in _private_linalg_uses(path)
    ]
    assert not uses, "private linalg names used outside linalg: " + ", ".join(uses)
