"""Every function in the package has a caller, and every module-level
constant a reader.

A function or method that is neither decorated nor a dunder must have its
name appear somewhere in src/, tests/ or demos/ besides its own def line.
A module-level constant must have its name appear in src/, tests/, demos/
or perfbench/ besides its own assignment.  The match is textual, so a
mention in a string or docstring counts as a use; the guard only catches
names that nothing refers to at all.
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


def _module_constants(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, node.lineno


def _texts(folders):
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            yield path.read_text(encoding="utf-8")


def test_every_function_has_a_caller():
    words, defs = Counter(), Counter()
    for text in _texts(("src", "tests", "demos")):
        words.update(re.findall(r"\w+", text))
        defs.update(re.findall(r"\bdef\s+(\w+)", text))
    dead = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _undecorated_functions(path)
        if words[name] == defs[name]
    ]
    assert not dead, "functions without a caller: " + ", ".join(dead)


def test_every_module_constant_has_a_reader():
    words = Counter()
    for text in _texts(("src", "tests", "demos", "perfbench")):
        words.update(re.findall(r"\w+", text))
    constants = [(path, name, line) for path in sorted(PACKAGE.glob("*.py"))
                 for name, line in _module_constants(path)]
    assigned = Counter(name for _, name, _ in constants)
    dead = [f"{path.name}:{line} {name}" for path, name, line in constants
            if words[name] == assigned[name]]
    assert not dead, "module constants without a reader: " + ", ".join(dead)
