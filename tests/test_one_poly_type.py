"""FPoly is MultiPoly over F_p, not a second polynomial type.

FPoly adds the prime, a result hook that reduces coefficients mod p,
monic, its F_p constructors and a mod-p evaluate.  Its ring operations
are MultiPoly's, built through that hook; a copy of them on FPoly would
be a second implementation to keep in step with the first.
"""

from kleinepw.groebner import FPoly
from kleinepw.poly import MultiPoly

RING_OPERATIONS = ("__add__", "__sub__", "__neg__", "__mul__", "derivative",
                   "total_degree", "is_homogeneous")


def test_fpoly_inherits_the_ring_operations():
    assert issubclass(FPoly, MultiPoly)
    copies = [name for name in RING_OPERATIONS if name in FPoly.__dict__]
    assert not copies, "FPoly defines its own " + ", ".join(copies)
