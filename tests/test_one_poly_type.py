"""One polynomial type: MultiPoly, with FPoly as MultiPoly over F_p.

FPoly adds the prime, a result hook that reduces coefficients mod p, an
inverse hook that inverts them mod p, and its F_p constructors; evaluate
is MultiPoly's, so its value is reduced by the caller.  Its ring operations
are MultiPoly's, built through the result hook; a copy of them on FPoly would
be a second implementation to keep in step with the first.  For the same
reason poly.py defines MultiPoly alone: one-variable work (gcd,
squarefree decomposition of line sections) runs on one-variable
MultiPolys, through MultiPoly.divmod, not on a dense second class.
"""

import ast
import re
from pathlib import Path

from kleinepw.groebner import FPoly, _PackedZ
from kleinepw.poly import MultiPoly

ROOT = Path(__file__).resolve().parent.parent

RING_OPERATIONS = ("__add__", "__sub__", "__neg__", "__mul__", "derivative",
                   "total_degree", "is_homogeneous")

# the dense univariate class and its helpers, deleted with it
RETIRED = re.compile(r"\b(Poly1|squarefree_part|binary_form_to_poly1)\b")


def test_fpoly_inherits_the_ring_operations():
    # groebner._PackedZ, MultiPoly over Z on packed monomials, changes only
    # the monomial-product hook
    for cls in (FPoly, _PackedZ):
        assert issubclass(cls, MultiPoly)
        copies = [name for name in RING_OPERATIONS if name in cls.__dict__]
        assert not copies, f"{cls.__name__} defines its own " + ", ".join(copies)
    assert set(_PackedZ.__dict__) - {"__module__", "__doc__", "__slots__"} == {"_monomial_product"}


def test_poly_defines_one_class():
    tree = ast.parse((ROOT / "src" / "kleinepw" / "poly.py").read_text(encoding="utf-8"))
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes == ["MultiPoly"]


def test_no_second_univariate_type_remains():
    paths = [ROOT / "README.md"] + [
        path
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != Path(__file__).resolve()
    ]
    hits = [
        f"{path.relative_to(ROOT)}:{n}"
        for path in paths
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if RETIRED.search(line)
    ]
    assert not hits, "retired polynomial names remain at " + ", ".join(hits)
