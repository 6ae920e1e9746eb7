"""Walk the fixed loci of the group action and locate them on the sextic.

Every point of P^5 has a stratum: the dimension of the intersection of
the Lagrangian with the 10-space of trivectors divisible by the point.
The hypersurface is stratum >= 1 and its singular surface is stratum 2.
Fixed loci of group elements are unions of eigenspaces; the script
reports, for each element order, where those eigenspaces sit.
"""

from kleinepw import epw, fixtures, group

a, c, s = group.gen_a(), group.gen_c(), group.weil_outside_borel()
table = group.generate_group([a, c, s])
labeled = table.labeled_classes()
A = epw.build_A()
f = fixtures.sextic_poly()

print("strata of the coordinate points:")
print("    [e0]:", epw.stratum(A, [1, 0, 0, 0, 0, 0]), "(off the hypersurface)")
for i in range(1, 6):
    x = [0] * 6
    x[i] = 1
    print(f"    [e{i}]:", epw.stratum(A, x), "(on the singular surface)")

print("\nhyperplane section dimensions (5 - intersection dimension):")
for j in range(6):
    cov = [0] * 6
    cov[j] = 1
    print(f"    coordinate hyperplane {j}: dimension {epw.gm_dimension(A, cov)}")

for label, order in (("c", 11), ("a", 5), ("b3", 2)):
    g6 = group._v6_matrix(table.elements[labeled[label][0]])
    print(f"\nfixed locus of an order-{order} element:")
    count, components = epw.sextic_fixed_point_count([list(r) for r in g6], A, f)
    for _, dim, value in components:
        if dim == 1:
            print(f"    point, stratum {value}")
        elif dim == 2:
            print(f"    line, intersection multiplicities {value}")
        else:
            print(f"    linear space of dimension {dim - 1} (positive-dimensional")
            print("      intersection with the hypersurface)")
    if count is not None:
        print(f"    total fixed points on the hypersurface: {count}")
