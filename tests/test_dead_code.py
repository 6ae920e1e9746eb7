"""Every function in the package has a product caller, every defaulted
parameter a product call that passes it, and every module-level constant a
reader.

The product is the package itself (src/), the demos and the benchmark
driver (perfbench/*.py, which wraps package functions by name).  A test is
not a caller: code that only tests call belongs in the tests.  References
are read from the syntax tree; a word inside a docstring or a message does
not count.

Callers.  A function or method of the package, unless it is a dunder or a
@check-registered verification check, must be referred to by the product.
A module-level function is referred to by a name, an attribute, an
imported name, or a string that is exactly a (dotted) name, as getattr and
the benchmark's wrap lists use.  A method is referred to only through an
attribute (`x.norm`), an alias in a class body (`__floordiv__ =
exact_div`), or a part after the first of a dotted string
(`"GroupTable.conjugacy_classes"`): a bare name or a one-word string is
some other thing of that name, a local variable or a JSON key.
REFERENCE_ORACLES names the few functions kept for the tests to compare
against, each with its reason.

Parameters.  Each defaulted parameter of a function or method whose name
is defined once in the package must be passed, by keyword or by position,
in at least one product call of that name; a parameter that every caller
leaves at its default is a constant.  A name defined more than once
(mat_mul, var, det, inverse, conj, is_zero, ...) cannot be told apart at
the call site, so its definitions are skipped.

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
    "chart_matrix": "fixtures: the transcription that the derived chart is checked against",
}

_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _product_trees():
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    return [_tree(path) for path in paths]


def _is_check(decorator):
    return (isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "check")


def _definitions(path):
    """(node, is_method) for each function of the module that is not a
    dunder or a registered check; a method is defined in a class body."""
    tree = _tree(path)
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and not any(_is_check(d) for d in node.decorator_list):
                yield node, id(node) in methods


def _package_definitions():
    return [(path, node, is_method) for path in sorted(PACKAGE.glob("*.py"))
            for node, is_method in _definitions(path)]


def _references(tree):
    """(name, through_attribute) for each reference in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED_NAME.fullmatch(node.value)):
            first, *rest = node.value.split(".")
            yield first, False
            yield from ((part, True) for part in rest)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                    yield item.value.id, True


def _product_references():
    """The names referred to at all, and those referred to as methods."""
    refs = [ref for tree in _product_trees() for ref in _references(tree)]
    return {name for name, _ in refs}, {name for name, attr in refs if attr}


def test_every_function_has_a_caller():
    named, as_method = _product_references()
    dead = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node, is_method in _package_definitions()
        if node.name not in (as_method if is_method else named)
        and node.name not in REFERENCE_ORACLES
    ]
    assert not dead, "functions without a product caller: " + ", ".join(dead)


def test_reference_oracles_are_defined_and_unused_by_the_product():
    named, _ = _product_references()
    defined = {node.name for _, node, _ in _package_definitions()}
    assert set(REFERENCE_ORACLES) <= defined
    assert not named & set(REFERENCE_ORACLES), "an allowlisted oracle has a product caller"


def _defaulted(node, is_method):
    """(parameter name, its position in a call through an attribute, or
    None if keyword-only) for each defaulted parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    bound = is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                  for d in node.decorator_list)
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(tree):
    """(called name, positional count or None if starred, keyword names or
    None if **-unpacked) for each call by name or attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield name, None if starred else len(node.args), None if None in keywords else keywords


def _passes(call, parameter, position):
    count, keywords = call
    return (keywords is None or parameter in keywords
            or (position is not None and (count is None or count > position)))


def test_every_defaulted_parameter_is_passed():
    definitions = _package_definitions()
    defined = Counter(node.name for _, node, _ in definitions)
    calls = {}
    for tree in _product_trees():
        for name, count, keywords in _calls(tree):
            calls.setdefault(name, []).append((count, keywords))
    unpassed = [
        f"{path.name}:{node.lineno} {node.name}({parameter})"
        for path, node, is_method in definitions if defined[node.name] == 1
        for parameter, position in _defaulted(node, is_method)
        if not any(_passes(call, parameter, position) for call in calls.get(node.name, ()))
    ]
    assert not unpassed, "defaulted parameters no product call passes: " + ", ".join(unpassed)


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
