"""Hermitian lattices over Z[w], w^2 = -w - 3, and a principal polarization.

A rank-5 positive definite unimodular Hermitian form with an order-11
symmetry induces, on the wedge square of its underlying module, a rank-10
form.  The script recomputes that induced form entry by entry, compares
it against the transcribed rank-10 matrix, and reads the polarization
invariants off the characteristic polynomial: a unit determinant means
the polarization is principal.
"""

from kleinepw import fixtures, linalg
from kleinepw import hermitian as herm
from kleinepw.cyclo import QuadInt

H = fixtures.hprime_matrix()
print("rank-5 Gram matrix over Z[w]:")
for row in H:
    print("   ", [repr(e) for e in row])
print("Hermitian:", linalg.is_hermitian(H))
print("positive definite:", herm.is_positive_definite(H))
print("determinant:", herm.herm_det(H), "(unimodular)")
print("leading minors:", herm.leading_minor_values(H))

W = linalg.exterior_power_matrix(H, 2)  # the 2 x 2 minors of H
ok, witness = herm.matches_mat10(W)
print("\ninduced rank-10 form matches the transcription entrywise:", ok)
print("determinant:", herm.herm_det(W))
print("positive definite:", herm.is_positive_definite(W))

inv = herm.polarization_invariants(W)
print("\npolarization invariants (degree data from the characteristic polynomial):")
print("   ", inv)
print("first entry 1 means the induced polarization is principal")

ident = tuple(tuple(QuadInt(1 if i == j else 0) for j in range(10)) for i in range(10))
print("\nsanity: invariants of the identity are the binomial coefficients:",
      herm.polarization_invariants(ident) == herm.binomial_invariants(10))
