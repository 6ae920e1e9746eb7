"""Every function in the package has a product caller, and every
module-level constant a reader.

A function or method of the package, unless it is a dunder or a
@check-registered verification check, must be referred to by the product:
the package itself (src/), the demos, or the benchmark driver
(perfbench/*.py, which wraps package functions by name).  A test is not a
caller: code that only tests call belongs in the tests.  References are
read from the syntax tree: a name, an attribute, an imported name, or a
string that is exactly a (dotted) name, as getattr and the benchmark's
wrap lists use; a word inside a docstring or a message does not count.
REFERENCE_ORACLES names the few functions kept for the tests to compare
against, each with its reason.

A module-level constant must have its name appear in src/, tests/, demos/
or perfbench/ besides its own assignment.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kleinepw"

# function name -> why it stays without a product caller
REFERENCE_ORACLES = {
    "projective_key": "group: the oracle that projective_class_count is checked against",
    "chart_matrix": "fixtures: the transcription that the derived chart is checked against",
}

_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_check(decorator):
    return (isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "check")


def _package_functions(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and not any(_is_check(d) for d in node.decorator_list):
                yield node.name, node.lineno


def _references(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED_NAME.fullmatch(node.value)):
            yield from node.value.split(".")


def _product_references():
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    return {name for path in paths for name in _references(path)}


def test_every_function_has_a_caller():
    used = _product_references()
    dead = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _package_functions(path)
        if name not in used and name not in REFERENCE_ORACLES
    ]
    assert not dead, "functions without a product caller: " + ", ".join(dead)


def test_reference_oracles_are_defined_and_unused_by_the_product():
    used = _product_references()
    defined = {name for path in PACKAGE.glob("*.py") for name, _ in _package_functions(path)}
    assert set(REFERENCE_ORACLES) <= defined
    assert not used & set(REFERENCE_ORACLES), "an allowlisted oracle has a product caller"


def _module_constants(path):
    for node in _tree(path).body:
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
