"""Every function in the package has a caller.

A function or method that is neither decorated nor a dunder must have its
name appear somewhere in src/, tests/ or demos/ besides its own def line.
The match is textual, so a mention in a string or docstring counts as a
use; the guard only catches names that nothing refers to at all.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kleinepw"


def _undecorated_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not node.decorator_list and not dunder:
                yield node.name, node.lineno


def test_every_function_has_a_caller():
    words, defs = Counter(), Counter()
    for folder in ("src", "tests", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            words.update(re.findall(r"\w+", text))
            defs.update(re.findall(r"\bdef\s+(\w+)", text))
    dead = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _undecorated_functions(path)
        if words[name] == defs[name]
    ]
    assert not dead, "functions without a caller: " + ", ".join(dead)
