"""Layering guards.

Only linalg uses linalg's private names: linalg.rank and linalg.det pick
the elimination kernel, and a module or demo that called a private kernel
directly would bypass that choice.  Tests may still call the private
kernels as oracles.

epw imports group (for the matrix order), so group imports nothing from
epw; epw imports nothing from fixtures, so it cannot fall back on the
transcriptions it is checked against; cyclo is a leaf and imports nothing from the package; the k x k
minors and the subset expansion (maximal_minors), the Hermitian test and the matrix helpers (identity, trace,
conjugate transpose, inverse) and the exact symmetric elimination (the
LDL^T behind signatures and short vectors) have one home, linalg; the
exterior powers reach no determinant routine but the subset expansion
(maximal_minors, expansion_det), and linalg keeps no cofactor _minor; the Kronecker packing
(_pack, _unpacker) has one home, cyclo; the monomial order has one home,
poly (grevlex_key), so groebner's heaps cannot drift from it; and
groebner has one builder of Pluecker relations.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kleinepw"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _private_linalg_uses(path):
    for node in ast.walk(_tree(path)):
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


def _imports_of(path, module):
    """Lines of the file that import the package module or a name from it."""
    uses = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            names = [(node.module or "").rsplit(".", 1)[-1]] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name.rsplit(".", 1)[-1] for a in node.names]
        else:
            continue
        if module in names:
            uses.append(node.lineno)
    return uses


def test_group_imports_nothing_from_epw():
    uses = _imports_of(PACKAGE / "group.py", "epw")
    assert not uses, f"group.py imports from epw at lines {uses}"


def test_epw_imports_nothing_from_fixtures():
    uses = _imports_of(PACKAGE / "epw.py", "fixtures")
    assert not uses, f"epw.py imports from fixtures at lines {uses}"


def _package_imports(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "kleinepw":
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "kleinepw" for a in node.names):
                yield node.lineno


def test_cyclo_imports_nothing_from_the_package():
    uses = list(_package_imports(PACKAGE / "cyclo.py"))
    assert not uses, f"cyclo.py imports from the package at lines {uses}"


def _defined_outside(home, names):
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != home
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and node.name in names
    ]


def test_minors_are_defined_only_in_linalg():
    # the subset expansion too: a module with its own expansion loop would
    # be a second determinant kernel
    defs = _defined_outside("linalg.py", ("_minor", "exterior_power_matrix", "maximal_minors",
                                          "expansion_det"))
    assert not defs, "minor helpers outside linalg: " + ", ".join(defs)


def _linalg_calls():
    """{linalg function: names of the linalg functions it calls}."""
    functions = {node.name: node for node in _tree(PACKAGE / "linalg.py").body
                 if isinstance(node, ast.FunctionDef)}
    return {name: {call.func.id for call in ast.walk(node)
                   if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                   and call.func.id in functions}
            for name, node in functions.items()}


def test_exterior_powers_reach_only_the_subset_expansion():
    # the cofactor route _minor was a second determinant routine beside the
    # subset expansion; it lives on in tests/kernel_oracles.py as the oracle
    calls = _linalg_calls()
    assert "_minor" not in calls
    for name in ("exterior_power_matrix", "exterior_power_trace"):
        reached, frontier = set(), {name}
        while frontier:
            reached |= frontier
            frontier = set().union(*(calls[f] for f in frontier)) - reached
        kernels = reached - {name, "_expansion_rows"}
        assert kernels and kernels <= {"maximal_minors", "expansion_det"}, (name, kernels)


def test_symmetric_elimination_is_defined_only_in_linalg():
    # lattices once kept its own rational LDL^T (_ldl, _floor_sqrt) beside
    # linalg's signature: two kernels for one decomposition
    names = ("symmetric_elimination", "symmetric_signature", "_ldl", "_floor_sqrt")
    defs = _defined_outside("linalg.py", names)
    assert not defs, "symmetric elimination outside linalg: " + ", ".join(defs)
    assert "symmetric_elimination" in _function_names(PACKAGE / "linalg.py")


def test_packing_is_defined_only_in_cyclo():
    defs = _defined_outside("cyclo.py", ("_pack", "_unpacker"))
    assert not defs, "Kronecker packing outside cyclo: " + ", ".join(defs)


def test_monomial_order_is_defined_only_in_poly():
    defs = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "poly.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and "grevlex" in node.name
    ]
    assert not defs, "grevlex order defined outside poly: " + ", ".join(defs)


def test_is_hermitian_is_defined_only_in_linalg():
    defs = _defined_outside("linalg.py", ("is_hermitian", "is_hermitian_matrix"))
    assert not defs, "Hermitian tests outside linalg: " + ", ".join(defs)


def _function_names(path):
    """Names of the module-level functions; methods such as
    CycloNum.inverse are not matrix helpers."""
    return [node.name for node in _tree(path).body if isinstance(node, ast.FunctionDef)]


def test_matrix_helpers_are_defined_only_in_linalg():
    helpers = {"identity", "trace", "conj_transpose", "inverse"}
    defs = [f"{path.name} {name}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"
            for name in _function_names(path) if name in helpers]
    assert not defs, "matrix helpers outside linalg: " + ", ".join(defs)
    missing = helpers.difference(_function_names(PACKAGE / "linalg.py"))
    assert not missing, f"linalg lacks {sorted(missing)}"


def test_group_keeps_no_copy_of_the_matrix_helpers():
    deleted = {"mat_identity", "mat_trace", "mat_conj_transpose", "mat_inverse",
               "mat_is_identity"}
    defs = sorted(deleted.intersection(_function_names(PACKAGE / "group.py")))
    assert not defs, "group.py defines " + ", ".join(defs)


def test_groebner_has_one_pluecker_builder():
    builders = [name for name in _function_names(PACKAGE / "groebner.py")
                if "pluecker" in name or "grassmannian" in name]
    assert len(builders) == 1, builders
