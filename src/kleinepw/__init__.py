"""Exact-arithmetic reconstruction of the Klein EPW sextic and its symmetries.

The package rebuilds, over exact rationals and cyclotomic numbers, a
degree-six hypersurface in P^5 carrying a faithful action of the simple
group of order 660, together with the surrounding apparatus: the
5-dimensional matrix representation and its character data, the rank-10
Lagrangian subspace of trivectors defining the hypersurface, stratum and
fixed-point analysis, integral quadratic lattices with their finite
discriminant forms, Hermitian lattices over an imaginary quadratic
order, and finite-field Groebner-basis smoothness certificates.

No floating point is used anywhere: coefficients are arbitrary-precision
rationals, cyclotomic numbers on the power basis, or elements of the
order Z[w] with w^2 = -w - 3.
"""

from . import epw, fixtures, group, groebner, hermitian, lattices, linalg, verify
from .cyclo import CycloNum, QuadInt, euler_phi, lambda_embed, sqrt_minus_11
from .poly import MultiPoly, squarefree_decomposition
from .textform import emit_polynomial, parse_polynomial

__all__ = [
    "CycloNum",
    "QuadInt",
    "euler_phi",
    "lambda_embed",
    "sqrt_minus_11",
    "MultiPoly",
    "squarefree_decomposition",
    "emit_polynomial",
    "parse_polynomial",
    "epw",
    "fixtures",
    "group",
    "groebner",
    "hermitian",
    "lattices",
    "linalg",
    "verify",
]
