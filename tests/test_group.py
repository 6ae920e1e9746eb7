import random
import traceback
from collections import Counter
from fractions import Fraction

import pytest

from kleinepw import cli, cyclo, epw, fixtures, group, linalg, verify
from kleinepw.cyclo import CycloNum, lambda_embed

from kernel_oracles import packed_mat_mul
from projective_keys import projective_key

# the 6-dimensional representation trivial on coordinate 0, as the
# fixed-point code extends the 5 x 5 matrices
FUNCTOR_V6 = group.RepFunctor("chi0_plus_xi", matrix_fn=group._v6_matrix)


def _identity(n=5):
    zero = CycloNum.from_rational(0, 11)
    return tuple(map(tuple, linalg.identity(n, zero + 1, zero)))


def _inverse_by_order(m):
    """The oracle route for inverses of finite-order matrices: m^(order-1),
    by exact matrix products."""
    acc = _identity(len(m))
    for _ in range(group.mat_order(m) - 1):
        acc = group.mat_mul(acc, m)
    return acc


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
    assert len(group.generate_group([_identity()])) == 1
    assert len(group.generate_group([c])) == 11
    borel = group.generate_group([a, c])
    assert len(borel) == 55
    assert group.mat_key(generators[2]) not in borel.index


def test_weil_element(generators):
    s = generators[2]
    assert linalg.det([list(r) for r in s]) == 1
    assert group.mat_order(s) == 2  # square is projectively (indeed exactly) trivial
    assert linalg.trace(s) == 1


def test_closure_cap():
    bad = tuple(
        tuple(2 * e for e in row) for row in group.gen_c()
    )  # scalar multiple: infinite closure
    with pytest.raises(group.ClosureExceeded, match=f"cap {group.CLOSURE_CAP}$"):
        group.generate_group([bad])


def test_full_closure_and_classes(table660):
    assert len(table660) == 660
    proj = {projective_key(m) for m in table660.elements}
    assert len(proj) == 660
    sizes = sorted(len(c) for c in table660.conjugacy_classes())
    assert sizes == [1, 55, 60, 60, 110, 110, 132, 132]


def test_projective_count_matches_projective_keys(table660):
    assert table660.projective_class_count() == 660
    assert len({projective_key(m) for m in table660.elements}) == 660
    minus_one = tuple(tuple(-e for e in row) for row in _identity())
    cyclic = group.generate_group([group.gen_c(), minus_one])
    assert len(cyclic) == 22
    assert sum(1 for m in cyclic.elements if group.mat_is_scalar(m)) == 2
    assert cyclic.projective_class_count() == 11
    assert len({projective_key(m) for m in cyclic.elements}) == 11


def _classes_by_exact_conjugation(table):
    """The oracle route: orbits of x -> g x g^-1 under the generators, by
    exact matrix products and the inverse by order."""
    pairs = [(g, _inverse_by_order(g)) for g in table.gens]
    assigned = set()
    classes = []
    for start in range(len(table)):
        if start in assigned:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            x = table.elements[frontier.pop()]
            for g, ginv in pairs:
                y = table.index[group.mat_key(group.mat_mul(group.mat_mul(g, x), ginv))]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        assigned |= orbit
        classes.append(sorted(orbit))
    return classes


def test_classes_match_exact_conjugation(table660):
    assert table660.conjugacy_classes() == _classes_by_exact_conjugation(table660)


def test_inverse_matches_the_inverse_by_order(table660):
    rng = random.Random(13)
    picks = list(table660.gens) + [table660.elements[rng.randrange(660)] for _ in range(20)]
    for m in picks:
        inv = linalg.inverse(m)
        assert group.mat_key(inv) == group.mat_key(_inverse_by_order(m))
        assert group.mat_key(group._dual_matrix(m)) == group.mat_key(linalg.transpose(inv))


def test_products_and_orders_match_exact_matrices(table660, labeled_classes):
    rng = random.Random(11)
    for _ in range(100):
        i, j = rng.randrange(660), rng.randrange(660)
        prod = group.mat_mul(table660.elements[i], table660.elements[j])
        assert table660.product_index(i, j) == table660.index[group.mat_key(prod)]
    sample = [cls[0] for cls in labeled_classes.values()]
    sample += [rng.randrange(660) for _ in range(40)]
    for i in sample:
        assert table660.element_order(i) == group.mat_order(table660.elements[i])
        square = group.mat_mul(table660.elements[i], table660.elements[i])
        assert table660.square_index(i) == table660.index[group.mat_key(square)]


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


def test_closure_makes_dense_products_only_for_the_weil_generator(generators, monkeypatch):
    calls = []
    dense = cyclo._packed_product

    def counted(n, g, factor):
        calls.append(1)
        return dense(n, g, factor)

    monkeypatch.setattr(cyclo, "_packed_product", counted)
    # one packed product per coset of the Borel subgroup <a, c>: 660 / 55
    assert len(group.generate_group(list(generators))) == 660
    assert len(calls) == 12
    del calls[:]
    assert len(group.generate_group([group.gen_a(), group.gen_c()])) == 55
    assert not calls


def test_closure_makes_no_cyclonum_product(generators, monkeypatch):
    def refuse(self, other):
        raise AssertionError("CycloNum product in the closure")

    monkeypatch.setattr(CycloNum, "__mul__", refuse)
    monkeypatch.setattr(CycloNum, "__rmul__", refuse)
    assert len(group.generate_group(list(generators))) == 660


def test_closure_shares_one_cyclonum_per_entry_value(table660):
    # 660 matrices of 25 entries over the 67 distinct values of the closure
    entries = [x for m in table660.elements for row in m for x in row]
    values = {(x.num, x.den) for x in entries}
    assert len({id(x) for x in entries}) == len(values) < len(entries)


def test_stabilizer_makes_no_rank_call(table660, monkeypatch):
    def refuse(m):
        raise AssertionError("rank call in the stabilizer")

    monkeypatch.setattr(linalg, "rank", refuse)
    assert len(group.stabilizer(table660, [[0], [1], [0], [0], [0], [0]])) == 11


def _dense_closure(gens):
    """The oracle route: the breadth-first closure with every right product
    taken by the packed kernel, monomial or not."""
    elements = [_identity(len(gens[0]))]
    index = {group.mat_key(elements[0]): 0}
    words, right = [()], []
    for i, g in enumerate(elements):
        row = []
        for k, h in enumerate(gens):
            prod = packed_mat_mul(g, h)
            j = index.setdefault(group.mat_key(prod), len(elements))
            if j == len(elements):
                elements.append(prod)
                words.append(words[i] + (k,))
            row.append(j)
        right.append(tuple(row))
    return [group.mat_key(m) for m in elements], tuple(words), tuple(right)


def test_monomial_products_match_the_dense_closure(generators, table660):
    minus_one = tuple(tuple(-e for e in row) for row in _identity())
    # a monomial matrix whose scalars 2 and 1/2 are no roots of unity takes
    # the dense kernel; with diag(z, z^-1) it closes to 22 elements
    zero, z = CycloNum.from_rational(0, 11), CycloNum.zeta(11)
    swap = ((zero, zero + 2), (zero + Fraction(1, 2), zero))
    a, c, s = generators
    # the coset closure relabels breadth-first: with the monomial subgroup
    # H trivial ([s]), with the Weil generator first, and with H = <c> of
    # index 60
    cases = [
        (list(generators), table660),
        ([a, c], None),
        ([c, minus_one], None),
        ([swap, ((z, zero), (zero, z.inverse()))], None),
        ([s], None),
        ([s, a, c], None),
        ([c, s], None),
    ]
    assert len(group.generate_group(cases[3][0])) == 22
    for gens, table in cases:
        table = table or group.generate_group(gens)
        keys = [group.mat_key(m) for m in table.elements]
        assert (keys, table.words, table.right) == _dense_closure(gens)
        assert list(table.index) == keys


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


def test_exterior_power_trace_on_group_elements(table660, labeled_classes):
    """On the class representatives and 20 seeded closure elements, the
    principal-minor sum is the trace of the full exterior power, k = 1..5,
    and the wedge-square character is the trace of the functor's matrix."""
    rng = random.Random(23)
    picks = [cls[0] for cls in labeled_classes.values()]
    picks += [rng.randrange(660) for _ in range(20)]
    w2 = group.functor_wedge2()
    for idx in picks:
        m = table660.elements[idx]
        for k in range(1, 6):
            want = linalg.trace(linalg.exterior_power_matrix(m, k))
            assert linalg.exterior_power_trace(m, k) == want
        assert group.character(w2, table660, idx) == linalg.trace(w2.matrix(m))


def test_inverse_index_and_the_dual_character(table660, labeled_classes, monkeypatch):
    """On the class representatives and 20 seeded elements, inverse_index
    names the inverse: both products walk to the identity, and its key is
    that of linalg.inverse.  The xi* character is then read from the table,
    with no inverse computed, and equals the trace of the contragredient
    matrix."""
    rng = random.Random(29)
    picks = [cls[0] for cls in labeled_classes.values()]
    picks += [rng.randrange(660) for _ in range(20)]
    dual = group.functor_xi_dual()
    want = {}
    for idx in picks:
        inv = table660.inverse_index(idx)
        assert table660.product_index(idx, inv) == 0 == table660.product_index(inv, idx)
        m = table660.elements[idx]
        assert table660.index[group.mat_key(linalg.inverse(m))] == inv
        want[idx] = linalg.trace(dual.matrix(m))

    def refuse(m):
        raise AssertionError("the xi* character computed an inverse")

    monkeypatch.setattr(linalg, "inverse", refuse)
    for idx in picks:
        assert group.character(dual, table660, idx) == want[idx]


def test_functoriality_random_pairs(table660):
    rng = random.Random(5)
    functors = [group.functor_xi_dual(), group.functor_wedge2(), FUNCTOR_V6]
    for f in functors:
        for _ in range(20):
            i = rng.randrange(660)
            j = rng.randrange(660)
            gi, gj = table660.elements[i], table660.elements[j]
            prod = group.mat_mul(gi, gj)
            assert linalg.mat_eq(group.mat_mul(f.matrix(gi), f.matrix(gj)), f.matrix(prod))


def test_trivial_multiplicities(table660):
    assert group.trivial_multiplicity(group.functor_sym2_wedge2(), table660) == 1
    assert group.trivial_multiplicity(group.functor_xi(), table660) == 0


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
        "trivial", matrix_fn=lambda m: ((CycloNum.from_rational(1, 11),),)
    )
    m = group.invariant_hermitian(triv, table660)
    assert m[0][0] == 660


def test_invariant_form_wedge2(table660, generators):
    w2 = group.functor_wedge2()
    m = group.invariant_hermitian(w2, table660)
    assert linalg.is_hermitian(m)
    images = [w2.matrix(g) for g in generators]
    assert group.hermitian_invariance_check(m, images)
    assert group.hermitian_positive_definite(m)
    # the term-by-term sum is the oracle for the route verify ships
    assert m == group.unitary_group_sum(images, 660)
    assert group.mat_is_scalar(m) and m[0][0] == 660


def _borel_conjugated_by_diagonal():
    """gen_a and gen_c conjugated by diag(1, ..., 5), which is not unitary,
    and their 55-element closure."""
    d = [CycloNum.from_rational(k, 11) for k in range(1, 6)]
    zero = CycloNum.from_rational(0, 11)
    diag = tuple(tuple(d[i] if i == j else zero for j in range(5)) for i in range(5))
    diag_inv = tuple(
        tuple(d[i].inverse() if i == j else zero for j in range(5)) for i in range(5)
    )
    gens = tuple(
        group.mat_mul(group.mat_mul(diag, g), diag_inv)
        for g in (group.gen_a(), group.gen_c())
    )
    return gens, group.generate_group(list(gens))


def test_non_unitary_generators_fail_invform():
    gens, borel = _borel_conjugated_by_diagonal()
    assert len(borel) == 55
    w2 = group.functor_wedge2()
    assert group.unitary_group_sum([w2.matrix(g) for g in gens], len(borel)) is None
    # the premise matters: here the true group sum is not a scalar matrix
    assert not group.mat_is_scalar(group.invariant_hermitian(w2, borel))
    ctx = verify.VerifyContext()
    ctx.generators, ctx.table = gens, borel
    assert verify._invform(ctx) == (verify.FAIL, {"stage": "unitary"})


# the witnesses of the group suite, as the term-by-term sum and the
# projective keys gave them
GROUP_SUITE_WITNESSES = {
    "chartable.lambda-identities": {"lambda": {
        "conductor": 11, "pretty": "\u03bb",
        "coefficients": ["0", "1", "0", "1", "1", "1", "0", "0", "0", "1"]}},
    "chartable.rows": {},
    "group.borel-55": {"size": 55},
    "group.character-orthogonality": {},
    "group.class-sizes": {"sizes": [1, 55, 60, 60, 110, 110, 132, 132]},
    "group.closure-660": {"matrices": 660},
    "group.eigenvalue-exponents": {"exponents": [1, 4, 5, 9, 3]},
    "group.order-profile": {"orders": {"1": 1, "a": 5, "a2": 5, "b": 6, "b2": 3,
                                       "b3": 2, "c": 11, "c2": 11}},
    "group.stabilizers": {"coordinate-point": 11, "vertex": 660},
    "group.wedge-character-identity": {},
    "group.weil-normalization": {},
    "invform.group-sum": {"dimension": 10},
    "lefschetz.surface-counts": {"counts": {3: 3, 5: 2, 6: 3, 11: 5}},
    "quadric.invariance": {},
    "quadric.trivial-multiplicity": {"multiplicity": 1, "xi-multiplicity": 0},
}


def test_group_suite_needs_no_group_sum(generators, table660, monkeypatch):
    def refuse(*args):
        raise AssertionError("term-by-term route in the group suite")

    monkeypatch.setattr(group, "invariant_hermitian", refuse)
    ctx = verify.VerifyContext()
    ctx.generators, ctx.table = tuple(generators), table660
    reports = verify.run_suite("group", ctx)
    assert {r.check_id: r.verdict for r in reports} == dict.fromkeys(
        GROUP_SUITE_WITNESSES, verify.PASS
    )
    assert {r.check_id: r.witness for r in reports} == GROUP_SUITE_WITNESSES


def test_verify_group_builds_wedge_matrices_only_for_the_generators(monkeypatch, capsys):
    """The wedge-square characters are sums of principal minors, and the
    10 x 10 matrices of the three generators are built once, by
    VerifyContext.wedge2_generators, for the group-summed form's two
    invariance checks and for quadric.invariance.  The checks read the
    classes from VerifyContext.labeled; only trivial_multiplicity's two
    calls compute them again."""
    sites = Counter()
    full = linalg.exterior_power_matrix
    classes = group.GroupTable.conjugacy_classes
    class_calls = []

    def counted(m, k):
        names = {frame.name for frame in traceback.extract_stack()}
        sites["wedge2_generators" if "wedge2_generators" in names else "elsewhere"] += 1
        return full(m, k)

    def counted_classes(table):
        class_calls.append(1)
        return classes(table)

    monkeypatch.setattr(linalg, "exterior_power_matrix", counted)
    monkeypatch.setattr(group.GroupTable, "conjugacy_classes", counted_classes)
    assert cli.main(["--json", "verify", "group"]) == 0
    capsys.readouterr()
    assert sites == {"wedge2_generators": 3}
    assert len(class_calls) == 3


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


def _stabilizer_by_images(table, subspace_cols, images):
    """The oracle route: the elements whose 6 x 6 image keeps the rank of
    the span, one exact image and one rank per element."""
    cols = [list(col) for col in zip(*subspace_cols)]
    base = linalg.rank(cols)
    return [
        idx for idx, fm in enumerate(images)
        if linalg.rank(cols + [linalg.mat_vec(fm, c) for c in cols]) == base
    ]


def test_orbit_stabilizer_matches_the_image_loop(table660):
    rng = random.Random(23)
    images = [FUNCTOR_V6.matrix(m) for m in table660.elements]

    def rational(k):
        return [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)]
                for _ in range(6)]

    def moved(cols):
        # the image under a random element: cyclotomic entries, and a
        # conjugate stabilizer of the same size
        fm = images[rng.randrange(1, 660)]
        return [list(row) for row in zip(*(linalg.mat_vec(fm, c) for c in zip(*cols)))]

    e1 = [[0], [1], [0], [0], [0], [0]]
    plane = [[1, 0], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1]]
    subspaces = [rational(1), e1, plane, rational(2), moved(e1), moved(plane),
                 moved(rational(1))]
    sizes = []
    for cols in subspaces:
        got = group.stabilizer(table660, cols)
        assert got == _stabilizer_by_images(table660, cols, images)
        sizes.append(len(got))
    assert sizes[1] == sizes[4] == 11 and sizes[2] == sizes[5] >= 10


def test_v_equivariance_validates_generators(generators):
    v = [[Fraction(x) for x in row] for row in epw.build_v()]
    for g in generators:
        w2 = linalg.exterior_power_matrix(g, 2)
        w3 = linalg.exterior_power_matrix([list(r) for r in g], 3)
        assert linalg.mat_eq(linalg.mat_mul(v, w2), linalg.mat_mul(w3, v))
