"""Integral lattices behind the construction: discriminant forms and counts.

The degree-2 cohomology of the associated fourfold carries quadratic
lattices whose discriminant groups control gluing and uniqueness
arguments.  Everything here is exact integer linear algebra: Smith
normal forms, finite quadratic forms, and complete short-vector
enumeration (Fincke-Pohst) on the integer rows of an exact LDL^T.
"""

from fractions import Fraction

from kleinepw import lattices as lat

hperp = lat.parse_lattice_spec("U+U+E8(-1)+E8(-1)+(-2)+(-2)")
print("polarization complement: rank", hperp.rank, "det", hperp.det())
d = lat.disc_group(hperp)
print("   discriminant group orders", d.orders, "form diagonal",
      [str(d.gram[i][i]) for i in range(2)])

K = lat.Lattice([[-2, -1], [-1, -6]])
print("\nrank-2 block K = [[-2,-1],[-1,-6]]: det", K.det())
dk = lat.disc_group(K)
print("   disc(K) = Z/11 with q =", dk.gram[0][0], "on the natural generator")
print("   isomorphic to (-2/11):",
      dk.is_isomorphic(lat.FiniteQuadraticForm((11,), [[Fraction(-2, 11)]])))

pic = lat.direct_sum(lat.rank1(2), lat.e8(-1), lat.e8(-1), K, K)
print("\nrank-21 Picard assembly: isotropic discriminant elements:",
      lat.disc_group(pic).isotropic_elements() or "none",
      "(so it admits no overlattice)")

hodge = lat.direct_sum(lat.rank1(2), lat.rank1(2), lat.e8(-1), lat.e8(-1), K, K)
print("rank-22 Hodge assembly: signature", hodge.signature())

T = lat.direct_sum(lat.rank1(22), lat.rank1(22))
tor = lat.disc_group(T).torsion_subform(2)
target = lat.disc_group(lat.direct_sum(lat.rank1(-2), lat.rank1(-2)))
print("\ngluing isometries from the 2-torsion of Disc((22)^2) to Disc((-2)^2):",
      len(tor.isometries(target)))

M = lat.direct_sum(lat.Lattice([[2, 1], [1, 6]]), lat.rank1(22))
print("\nsquare-2 vectors of [[2,1],[1,6]] + (22):",
      lat.vectors_of_norm(M, 2))
comp, basis = lat.orthogonal_complement(M, (1, 0, 0))
print("   orthogonal complement Gram:", [list(r) for r in comp.gram])

print("\nroot count of the even unimodular rank-8 lattice:",
      len(lat.vectors_of_norm(lat.e8(-1), -2)))

l4 = lat.Lattice([[-4, 0, 0, 0], [0, -4, 0, 0], [0, 0, -6, 0], [0, 0, 0, -8]])
norms, _ = lat.represented_norms(l4, 40)
print("\ndiag(-4,-4,-6,-8) represents", sorted(n for n in norms if n >= -20),
      "and never -2:", -2 not in norms)
