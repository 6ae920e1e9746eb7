"""Generate the order-660 simple group and print its small character table.

Two generators (an order-5 permutation and an order-11 diagonal matrix)
close to a maximal subgroup of order 55.  The third generator comes from
the odd part of the finite Fourier transform on the 11-element field,
scaled by a square root of -11 so its determinant is exactly 1.  The
breadth-first closure then has exactly 660 matrices, and conjugation
orbits give eight classes whose sizes and orders are pinned.
"""

import time

from kleinepw import fixtures, group, linalg

t0 = time.time()
a, c = group.gen_a(), group.gen_c()
print("order of a:", group.mat_order(a))
print("order of c:", group.mat_order(c))
borel = group.generate_group([a, c])
print("closure of {a, c}:", len(borel), "matrices")

s = group.weil_outside_borel()
print("extra generator: order", group.mat_order(s), "trace", linalg.trace(s))

table = group.generate_group([a, c, s])
print("full closure:", len(table), f"matrices ({time.time()-t0:.1f}s)")

labeled = table.labeled_classes()
print("\nclass  order  size   chi_xi        chi_wedge2")
xi = group.functor_xi()
w2 = group.functor_wedge2()
for label, order, size in fixtures.CLASS_DATA:
    rep = labeled[label][0]
    print(
        f"{label:<6} {order:>5} {size:>5}   "
        f"{repr(group.character(xi, table, rep)):<13} "
        f"{repr(group.character(w2, table, rep))}"
    )

print("\ntrivial multiplicity in Sym^2 of the wedge square:",
      group.trivial_multiplicity(group.functor_sym2_wedge2(), table),
      "(the invariant quadric is unique)")

print("\nfixed points on the singular surface by element order:")
for label, order in (("c", 11), ("a", 5), ("b", 6), ("b2", 3)):
    n = group.lefschetz_surface_count(table, labeled[label][0])
    print(f"    order {order}: {n}")
