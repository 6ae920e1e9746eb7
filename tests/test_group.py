import random
from fractions import Fraction

import pytest

from kleinepw import epw, fixtures, group, linalg
from kleinepw.cyclo import CycloNum, lambda_embed


def test_generator_orders(generators):
    a, c, s = generators
    assert group.mat_order(a) == 5
    assert group.mat_order(c) == 11
    assert linalg.det([list(r) for r in a]) == 1
    assert linalg.det([list(r) for r in c]) == 1


def test_diagonal_exponents_are_squares(generators):
    _, c, _ = generators
    z = CycloNum.zeta(11)
    exps = (1, 4, 5, 9, 3)
    assert sorted(exps) == sorted({(k * k) % 11 for k in range(1, 11)})
    for i, e in enumerate(exps):
        assert c[i][i] == z**e


def test_small_closures(generators):
    a, c, _ = generators
    assert len(group.generate_group([group.mat_identity()])) == 1
    assert len(group.generate_group([c])) == 11
    borel = group.generate_group([a, c])
    assert len(borel) == 55
    assert group.mat_key(generators[2]) not in borel.index


def test_weil_element(generators):
    s = generators[2]
    assert linalg.det([list(r) for r in s]) == 1
    assert group.mat_order(s) == 2  # square is projectively (indeed exactly) trivial
    assert group.mat_trace(s) == 1


def test_closure_cap():
    bad = tuple(
        tuple(2 * e for e in row) for row in group.gen_c()
    )  # scalar multiple: infinite closure
    with pytest.raises(group.ClosureExceeded):
        group.generate_group([bad], cap=200)


def test_full_closure_and_classes(table660):
    assert len(table660) == 660
    proj = {group.projective_key(m) for m in table660.elements}
    assert len(proj) == 660
    sizes = sorted(len(c) for c in table660.conjugacy_classes())
    assert sizes == [1, 55, 60, 60, 110, 110, 132, 132]


def _classes_by_exact_conjugation(table):
    """The oracle route: orbits of x -> g x g^-1 under the generators, by
    exact matrix products and the inverse by order."""
    pairs = [(g, group.mat_inverse(g)) for g in table.gens]
    assigned = set()
    classes = []
    for start in range(len(table)):
        if start in assigned:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            x = table.elements[frontier.pop()]
            for g, ginv in pairs:
                y = table.index_of(group.mat_mul(group.mat_mul(g, x), ginv))
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        assigned |= orbit
        classes.append(sorted(orbit))
    return classes


def test_classes_match_exact_conjugation(table660):
    assert table660.conjugacy_classes() == _classes_by_exact_conjugation(table660)


def test_products_and_orders_match_exact_matrices(table660, labeled_classes):
    rng = random.Random(11)
    for _ in range(100):
        i, j = rng.randrange(660), rng.randrange(660)
        prod = group.mat_mul(table660.elements[i], table660.elements[j])
        assert table660.product_index(i, j) == table660.index_of(prod)
    sample = [cls[0] for cls in labeled_classes.values()]
    sample += [rng.randrange(660) for _ in range(40)]
    for i in sample:
        assert table660.element_order(i) == group.mat_order(table660.elements[i])
        square = group.mat_mul(table660.elements[i], table660.elements[i])
        assert table660.square_index(i) == table660.index_of(square)


def test_table_queries_need_no_matrix_products(generators, monkeypatch):
    table = group.generate_group(list(generators))

    def refuse(a, b):
        raise AssertionError("exact matrix product after the closure")

    monkeypatch.setattr(group, "mat_mul", refuse)
    sizes = sorted(len(c) for c in table.conjugacy_classes())
    assert sizes == [1, 55, 60, 60, 110, 110, 132, 132]
    labeled = table.labeled_classes()
    for label, order, _ in fixtures.CLASS_DATA:
        assert table.element_order(labeled[label][0]) == order
    b = labeled["b"][0]
    assert table.square_index(b) in labeled["b2"]
    assert table.product_index(b, table.square_index(b)) in labeled["b3"]


def test_class_labels_and_orders(table660, labeled_classes):
    for label, order, size in fixtures.CLASS_DATA:
        cls = labeled_classes[label]
        assert len(cls) == size
        assert table660.element_order(cls[0]) == order
    # classes are closed under squaring consistently: the order-6 class
    # squares into the order-3 class
    b = labeled_classes["b"][0]
    assert table660.square_index(b) in labeled_classes["b2"]
    a = labeled_classes["a"][0]
    assert table660.square_index(a) in labeled_classes["a2"]


def test_character_table(table660, labeled_classes):
    rows = fixtures.character_rows()
    functors = {
        "xi": group.functor_xi(),
        "xi_dual": group.functor_xi_dual(),
        "wedge2_xi": group.functor_wedge2(),
    }
    labels = [lab for lab, _, _ in fixtures.CLASS_DATA]
    for name, f in functors.items():
        for lab, want in zip(labels, rows[name]):
            got = group.character(f, table660, labeled_classes[lab][0])
            assert got == want, (name, lab)


def test_dual_character_on_c(table660, labeled_classes):
    lam = lambda_embed()
    c_idx = labeled_classes["c"][0]
    assert group.character(group.functor_xi(), table660, c_idx) == lam
    assert group.character(group.functor_xi_dual(), table660, c_idx) == lam.conj()


def test_character_orthogonality(table660):
    for f in (group.functor_xi(), group.functor_xi_dual(), group.functor_wedge2()):
        total = None
        for cls in table660.conjugacy_classes():
            v = group.character(f, table660, cls[0])
            term = v * v.conj() * len(cls)
            total = term if total is None else total + term
        assert total == 660


def test_wedge2_character_identity(table660):
    xi = group.functor_xi()
    w2 = group.functor_wedge2()
    for cls in table660.conjugacy_classes():
        idx = cls[0]
        lhs = group.character(w2, table660, idx)
        chi = group.character(xi, table660, idx)
        chi2 = group.character(xi, table660, table660.square_index(idx))
        assert lhs * 2 == chi * chi - chi2


def test_functoriality_random_pairs(table660):
    rng = random.Random(5)
    functors = [group.functor_xi_dual(), group.functor_wedge2(), group.functor_v6()]
    for f in functors:
        for _ in range(20):
            i = rng.randrange(660)
            j = rng.randrange(660)
            gi, gj = table660.elements[i], table660.elements[j]
            prod = group.mat_mul(gi, gj)
            assert group.mat_mul(f.matrix(gi), f.matrix(gj)) == f.matrix(prod)
    sym = group.functor_sym2_wedge2()
    for _ in range(2):
        i, j = rng.randrange(660), rng.randrange(660)
        gi, gj = table660.elements[i], table660.elements[j]
        prod = group.mat_mul(gi, gj)
        assert group.mat_mul(sym.matrix(gi), sym.matrix(gj)) == sym.matrix(prod)


def test_trivial_multiplicities(table660):
    assert group.trivial_multiplicity(group.functor_sym2_wedge2(), table660) == 1
    assert group.trivial_multiplicity(group.functor_xi(), table660) == 0
    w2 = group.functor_wedge2()
    tensor = group.functor_tensor(w2, group.functor_dual_of(w2))
    assert group.trivial_multiplicity(tensor, table660) == 1


def test_lefschetz_counts(table660, labeled_classes):
    expects = {"c": 5, "a": 2, "b": 3, "b2": 3}
    for lab, want in expects.items():
        assert group.lefschetz_surface_count(table660, labeled_classes[lab][0]) == want
    with pytest.raises(ValueError):
        group.lefschetz_surface_count(table660, labeled_classes["b3"][0])
    with pytest.raises(ValueError):
        group.lefschetz_surface_count(table660, labeled_classes["1"][0])


def test_invariant_form_trivial_functor(table660):
    triv = group.RepFunctor(
        "trivial", 1, matrix_fn=lambda m: ((CycloNum.from_rational(1, 11),),)
    )
    m = group.invariant_hermitian(triv, table660)
    assert m[0][0] == 660


def test_invariant_form_wedge2(table660, generators):
    w2 = group.functor_wedge2()
    m = group.invariant_hermitian(w2, table660)
    assert group.is_hermitian(m)
    assert group.hermitian_invariance_check(w2, m, list(generators))
    assert group.hermitian_positive_definite(m)


def test_total_positivity():
    lam = lambda_embed()
    z = CycloNum.zeta(11)
    real_unit = z + z.conj()  # 2 cos(2 pi / 11), positive but not totally
    assert group.is_totally_positive(CycloNum.from_rational(3, 11))
    assert not group.is_totally_positive(CycloNum.from_rational(-3, 11))
    assert group.is_totally_positive((2 + real_unit) * (2 + real_unit))
    w = (1 + 2 * lam) * (1 + 2 * lam.conj())  # = norm... -11 * -1: real
    assert w.is_real()
    with pytest.raises(ValueError):
        group.is_totally_positive(z)


def test_stabilizers(table660):
    e0 = [[1], [0], [0], [0], [0], [0]]
    assert len(group.stabilizer(table660, e0)) == 660
    e1 = [[0], [1], [0], [0], [0], [0]]
    assert len(group.stabilizer(table660, e1)) == 11
    line = [[1, 0], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1]]
    stab = group.stabilizer(table660, line)
    orders = {table660.element_order(i) for i in stab}
    assert len(stab) >= 10
    assert 5 in orders and 2 in orders


def test_v_equivariance_validates_generators(generators):
    v = [[Fraction(x) for x in row] for row in epw.build_v()]
    for g in generators:
        w2 = [list(r) for r in group._wedge2_matrix(g)]
        w3 = epw.exterior_power_matrix([list(r) for r in g], 3)
        assert linalg.mat_eq(linalg.mat_mul(v, w2), linalg.mat_mul(w3, v))
