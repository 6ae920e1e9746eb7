"""Build the invariant sextic from scratch and inspect its structure.

The rank-10 Lagrangian is the graph of a signed bijection v between
2-vectors and 3-vectors on coordinates 1..5.  On the affine chart x0 = 1
the degeneracy locus is the determinant of a 10 x 10 matrix of linear
forms; homogenizing gives a degree-6 hypersurface in P^5 with integer
coefficients.  Two independent routes must agree: fraction-free
elimination over the polynomial ring, and evaluation at the 462 integer
points of the radius-6 simplex followed by exact Newton interpolation; the
radius 6 is certified from the chart's kernel, not assumed.
"""

from kleinepw import epw, fixtures
from kleinepw.poly import squarefree_decomposition
from kleinepw.textform import emit_polynomial

A = epw.build_A()
print("Lagrangian basis rows (nonzero coordinates):")
for row in A:
    parts = [
        f"{'+' if c > 0 else '-'}e{''.join(map(str, epw.TRIPLES6[i]))}"
        for i, c in enumerate(row)
        if c
    ]
    print("   ", " ".join(parts))

print("\nIsotropy: wedge pairing of any two basis rows vanishes:",
      all(epw.wedge_pairing(A[i], A[j]) == 0 for i in range(10) for j in range(10)))
print("Self-dual under the sign-flip duality:", epw.self_duality_check(A))

f = epw.sextic_equation()
g = epw.sextic_via_interpolation()
print("\nElimination and interpolation routes agree:", f == g)
print("Monomials:", len(f.terms))
print("\nCanonical equation:\n", emit_polynomial(f))

print("\nRestriction to the line through [1:0:...:0] and [0:1:1:1:1:1]:")
line = epw.restrict_to_line(f, [1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1])
print("   ", emit_polynomial(line, ["s", "t"]))
pol, _ = epw.dehomogenize(line)
for factor, mult in squarefree_decomposition(pol):
    print(f"    factor {emit_polynomial(factor, ['u'])} with multiplicity {mult}")
print("Two double points and two simple points: the line crosses the")
print("hypersurface in 4 points, two of them on its singular surface.")
