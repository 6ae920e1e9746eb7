import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from kleinepw import cli, cyclo, epw, fixtures, group, linalg, verify
from kleinepw.cyclo import CycloNum
from kleinepw.poly import MultiPoly, squarefree_decomposition

from kernel_oracles import conductor_kept_fixed_locus, power_cache_substitute


def basis_trivector(triple):
    row = [0] * 20
    row[epw.TRIPLE_INDEX[tuple(triple)]] = 1
    return row


def random_lagrangian(rng, steps=6):
    """Random Lagrangian: image of the coordinate Lagrangian spanned by the
    e_0jk under random integer symplectic transvections t_v(x) = x + w(x,v) v."""
    rows = [basis_trivector((0,) + p) for p in epw.PAIRS5]
    for _ in range(steps):
        v = [rng.randint(-1, 1) for _ in range(20)]
        if not any(v):
            continue
        rows = [
            [x + epw.wedge_pairing(r, v) * y for x, y in zip(r, v)] for r in rows
        ]
    return rows


def is_lagrangian(rows):
    if linalg.rank(rows) != len(rows):
        return False
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            if epw.wedge_pairing(rows[i], rows[j]) != 0:
                return False
    return True


def test_v_assignments():
    v = epw.build_v()
    col = epw.PAIR5_INDEX[(1, 2)]
    assert v[epw.TRIPLE5_INDEX[(2, 4, 5)]][col] == 1
    col = epw.PAIR5_INDEX[(1, 5)]
    assert v[epw.TRIPLE5_INDEX[(1, 3, 4)]][col] == -1
    # signed permutation: one nonzero entry per row and per column
    for row in v:
        assert sum(1 for x in row if x) == 1
    for j in range(10):
        assert sum(1 for i in range(10) if v[i][j]) == 1


def test_v_symmetry():
    # v(x) ^ y == x ^ v(y) on all basis pairs, as 5-forms
    v = epw.build_v()

    def five_coeff(pair, col):
        """Coefficient of e_12345 in e_pair ^ v(e_q), q the col-th pair."""
        total = 0
        for triple, row in zip(epw.TRIPLES5, v):
            s, merged = epw.merge_indices(pair, triple)
            if merged == (1, 2, 3, 4, 5):
                total += s * row[col]
        return total

    for i, p in enumerate(epw.PAIRS5):
        for j, q in enumerate(epw.PAIRS5):
            assert five_coeff(p, j) == five_coeff(q, i)


def test_lagrangian_matrix():
    a = epw.build_A()
    assert len(a) == 10 and all(len(r) == 20 for r in a)
    assert all(c in (-1, 0, 1) for r in a for c in r)
    assert linalg.rank(a) == 10
    for i in range(10):
        for j in range(10):
            assert epw.wedge_pairing(a[i], a[j]) == 0
    # first row is e_012 + e_245
    row = a[0]
    nz = {epw.TRIPLES6[i]: c for i, c in enumerate(row) if c}
    assert nz == {(0, 1, 2): 1, (2, 4, 5): 1}


def test_wedge_pairing_examples():
    e012 = basis_trivector((0, 1, 2))
    e345 = basis_trivector((3, 4, 5))
    e045 = basis_trivector((0, 4, 5))
    assert epw.wedge_pairing(e012, e345) == 1
    assert epw.wedge_pairing(e012, e045) == 0
    assert epw.wedge_pairing(e345, e012) == -1


def test_chart_matrix_matches_transcription():
    derived = epw.chart_matrix_derived()
    fixture = fixtures.chart_matrix()
    for i in range(10):
        for j in range(10):
            assert derived[i][j] == fixture[i][j], (i, j)


def test_sextic_routes_and_fixture():
    f1 = epw.sextic_equation()
    assert f1 == fixtures.sextic_poly()
    assert len(f1.terms) == 37
    f2 = epw.sextic_via_interpolation()
    assert f2 == f1


def test_chart_degree_bound_is_certified():
    chart = epw.chart_matrix_derived()
    assert epw._chart_degree_bound(chart) == 6
    # an x1 added to one entry, and one linear term's sign flipped, both
    # leave x ^ e_i outside the linear part's kernel
    bumped = [row[:] for row in chart]
    bumped[0][0] = bumped[0][0] + MultiPoly.var(0, 5)
    flipped = [row[:] for row in chart]
    i, j = next((i, j) for i, row in enumerate(chart) for j, entry in enumerate(row)
                if entry.total_degree() == 1)
    e = next(e for e in chart[i][j].terms if any(e))
    flipped[i][j] = MultiPoly(5, {k: -c if k == e else c for k, c in chart[i][j].terms.items()})
    for mutant in (bumped, flipped):
        with pytest.raises(ArithmeticError, match="kill"):
            epw._chart_degree_bound(mutant)


def test_certified_radius_matches_the_full_simplex():
    """The 3,003-point route of radius 10, the size bound, is the oracle of
    the certified radius 6; radius 5 is too small and misses."""
    chart = epw.chart_matrix_derived()
    interpolated = epw.sextic_via_interpolation()
    affine = MultiPoly(5, {e[1:]: c for e, c in interpolated.terms.items()})
    assert epw._simplex_det(chart) == affine
    assert epw._simplex_det(chart, 5) != affine


def test_verify_epw_interpolates_on_the_radius_6_simplex(monkeypatch, capsys):
    """verify epw takes the 462 determinants of the radius-6 simplex, not
    the 3,003 of the radius-10 one."""
    full = linalg.bareiss_det
    calls = []

    def counted(m):
        if sys._getframe(1).f_code is epw._simplex_det.__code__:
            calls.append(1)
        return full(m)

    monkeypatch.setattr(linalg, "bareiss_det", counted)
    assert cli.main(["--json", "verify", "epw"]) == 0
    capsys.readouterr()
    assert len(calls) == 462


def _tensor_grid_sextic():
    """Oracle for the simplex route: the chart determinant at the 7^5
    tensor grid, recovered axis by axis through the inverse Vandermonde
    matrix.  Exact only when the degree in each variable is at most 6,
    which the sextic happens to satisfy."""
    nodes = (-3, -2, -1, 0, 1, 2, 3)
    # affine entries as (index into (1, x1..x5), coefficient) pairs
    chart = [[[(1 + e.index(1) if any(e) else 0, c) for e, c in entry.terms.items()]
              for entry in row] for row in epw.chart_matrix_derived()]
    n = len(nodes)
    values = {}
    for point in itertools.product(range(n), repeat=5):
        xs = (1,) + tuple(nodes[i] for i in point)
        values[point] = linalg.bareiss_det(
            [[sum(c * xs[k] for k, c in entry) for entry in row] for row in chart]
        )
    vandermonde = [[Fraction(t) ** j for j in range(n)] + [Fraction(int(i == k)) for k in range(n)]
                   for i, t in enumerate(nodes)]
    inv = [row[n:] for row in linalg.rref(vandermonde)[0]]
    for axis in range(5):
        grouped = {}
        for key, val in values.items():
            grouped.setdefault(key[:axis] + key[axis + 1:], [0] * n)[key[axis]] = val
        values = {
            rest[:axis] + (exp,) + rest[axis:]: sum(inv[exp][i] * vec[i] for i in range(n))
            for rest, vec in grouped.items()
            for exp in range(n)
        }
    assert all(c.denominator == 1 for c in values.values())
    return MultiPoly(5, {e: int(c) for e, c in values.items()}).homogenize(6)


def test_tensor_grid_oracle_matches_simplex_route():
    simplex = epw.sextic_via_interpolation()
    assert _tensor_grid_sextic() == simplex == fixtures.sextic_poly()


def test_strata():
    a = epw.build_A()
    assert epw.stratum(a, [1, 0, 0, 0, 0, 0]) == 0
    for i in range(1, 6):
        x = [0] * 6
        x[i] = 1
        assert epw.stratum(a, x) == 2
    with pytest.raises(ValueError):
        epw.stratum(a, [0] * 6)
    # the 20-column certificate: [rows of A | basis of e1 ^ 2-vectors] has rank 18
    w_rows = [
        r
        for r in (epw.wedge_vector_pair([0, 1, 0, 0, 0, 0], p) for p in epw.PAIRS6)
        if any(r)
    ]
    assert linalg.rank(a + w_rows) == 18


def test_gm_dimensions():
    a = epw.build_A()
    assert epw.gm_dimension(a, [0, 0, 0, 0, 0, 1]) == 3
    assert epw.gm_dimension(a, [1, 0, 0, 0, 0, 0]) == 5
    dims = {epw.gm_dimension(a, [int(i == j) for i in range(6)]) for j in range(6)}
    assert dims == {3, 5}


def test_gm_dimension_with_fraction_kernel_matches_unscaled_minors():
    # the kernels of these covectors have no integer basis from rref, so
    # gm_dimension's scaled integer vectors are compared with the minors of
    # the Fraction basis itself
    a = epw.build_A()
    for cov in ([2, 3, 0, 0, 0, 5], [0, 0, 0, 3, 2, 0], [3, 1, 4, 1, 5, 9]):
        basis = linalg.kernel_basis([cov])
        assert any(x.denominator != 1 for vec in basis for x in vec)
        w_rows = linalg.exterior_power_matrix(basis, 3)
        # the three-rank formula, which assumes neither row set a basis
        meet = linalg.rank(a) + linalg.rank(w_rows) - linalg.rank(a + w_rows)
        assert epw.gm_dimension(a, cov) == 5 - meet


def test_self_duality():
    a = epw.build_A()
    assert epw.self_duality_check(a) is True
    assert epw.self_duality_oracle(a) is True
    coord = [basis_trivector((0,) + p) for p in epw.PAIRS5]
    assert is_lagrangian(coord)
    assert epw.self_duality_check(coord) is False
    assert epw.self_duality_oracle(coord) is False


def test_self_duality_check_rejects_without_the_oracle(monkeypatch):
    # a flipped row that pairs nonzero with a row already decides False, so
    # the direct route stays independent of the oracle it is checked against
    def oracle(a_rows):
        raise AssertionError("self_duality_check called the oracle")

    monkeypatch.setattr(epw, "self_duality_oracle", oracle)
    coord = [basis_trivector((0,) + p) for p in epw.PAIRS5]
    assert epw.self_duality_check(coord) is False


def test_random_lagrangians_against_oracle():
    rng = random.Random(7)
    for _ in range(5):
        lagr = random_lagrangian(rng)
        assert is_lagrangian(lagr)
        assert epw.self_duality_check(lagr) == epw.self_duality_oracle(lagr)


def test_dual_rebuild(generators):
    assert epw.dual_rebuild_check(list(generators))
    # the inverse transpose of the signed permutation v is v itself
    assert epw.dual_v() == epw.build_v()


def test_dual_rebuild_packs_only_the_weil_generators_dense_products(generators, monkeypatch):
    # dual_v() is a signed permutation, and a and c are monomial, so their
    # duals and exterior powers are too: only the Weil generator's
    # gdual^T g and dual_v() times its wedge square take the packed kernel
    calls = []
    packed = cyclo._packed_product
    monkeypatch.setattr(cyclo, "_packed_product", lambda *args: calls.append(1) or packed(*args))
    assert epw.dual_rebuild_check(list(generators))
    assert len(calls) == 2
    # verify epw adds one product building the Weil generator and one
    # mat_order in the fixed loci
    del calls[:]
    assert all(r.verdict == verify.PASS for r in verify.run_suite("epw", verify.VerifyContext()))
    assert len(calls) == 4


def test_dual_rebuild_rejects_the_plain_inverse(generators, monkeypatch):
    # g^-1 satisfies the intertwining as well as g^-T does, since v
    # intertwines every group element; only gdual^T g = I tells them apart
    # (the 5-cycle gen_a has g^-1 = g^T != g^-T)
    monkeypatch.setattr(group, "_dual_matrix", linalg.inverse)
    assert not epw.dual_rebuild_check(list(generators))


def test_dual_rebuild_rejects_a_map_that_does_not_intertwine(generators, monkeypatch):
    flipped = epw.build_v()
    flipped[0] = [-x for x in flipped[0]]
    monkeypatch.setattr(epw, "dual_v", lambda: flipped)
    assert not epw.dual_rebuild_check(list(generators))


def test_graph_rows_are_the_assignment_table():
    rows = epw.graph_rows(epw.build_v())
    for row, pair in zip(rows, epw.PAIRS5):
        sign, triple = epw._V_ASSIGNMENTS[pair]
        nz = {epw.TRIPLES6[i]: c for i, c in enumerate(row) if c}
        assert nz == {(0,) + pair: 1, triple: sign}


def test_restrict_to_line_examples():
    f = fixtures.sextic_poly()
    g = epw.restrict_to_line(f, [1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1])
    assert g == fixtures.order5_line_poly()
    pol, inf = epw.dehomogenize(g)
    assert inf == 0
    assert pol == MultiPoly(1, {(k,): c for k, c in enumerate([5, -12, 0, 10, 0, 0, 1])})
    pattern = sorted(
        m for fac, m in squarefree_decomposition(pol) for _ in range(fac.total_degree())
    )
    assert pattern == [1, 1, 2, 2]
    with pytest.raises(ValueError):
        epw.restrict_to_line(f, [1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0])
    # a line inside the sextic gives the zero form
    zero_line = epw.restrict_to_line(MultiPoly.zero(6), [1, 0] + [0] * 4, [0, 1] + [0] * 4)
    assert zero_line.is_zero()


def test_fixed_loci(table660, labeled_classes):
    tbl, lab = table660, labeled_classes
    c6 = group._v6_matrix(tbl.elements[lab["c"][0]])
    dims = sorted(len(kb) for _, kb in epw.fixed_locus([list(r) for r in c6]))
    assert dims == [1] * 6
    a6 = group._v6_matrix(tbl.elements[lab["a"][0]])
    dims = sorted(len(kb) for _, kb in epw.fixed_locus([list(r) for r in a6]))
    assert dims == [1, 1, 1, 1, 2]
    s6 = group._v6_matrix(tbl.elements[lab["b3"][0]])
    dims = sorted(len(kb) for _, kb in epw.fixed_locus([list(r) for r in s6]))
    assert dims == [2, 4]


def test_fixed_point_counts_fast(table660, labeled_classes):
    a_rows = epw.build_A()
    f = fixtures.sextic_poly()
    for lab, order in (("c", 11), ("a", 5)):
        g6 = group._v6_matrix(table660.elements[labeled_classes[lab][0]])
        count, _ = epw.sextic_fixed_point_count([list(r) for r in g6], a_rows, f)
        assert count == fixtures.SEXTIC_FIXED_COUNTS[order]
    s6 = group._v6_matrix(table660.elements[labeled_classes["b3"][0]])
    count, _ = epw.sextic_fixed_point_count([list(r) for r in s6], a_rows, f)
    assert count is None


@pytest.mark.slow
def test_fixed_point_counts_slow(table660, labeled_classes):
    a_rows = epw.build_A()
    f = fixtures.sextic_poly()
    for lab, order in (("b", 6), ("b2", 3)):
        g6 = group._v6_matrix(table660.elements[labeled_classes[lab][0]])
        count, components = epw.sextic_fixed_point_count([list(r) for r in g6], a_rows, f)
        assert count == fixtures.SEXTIC_FIXED_COUNTS[order]
        for _, dim, pattern in components:
            if dim == 2:
                assert pattern == [1, 1, 1, 1, 2]


def test_order2_line_squarefree(table660, labeled_classes):
    s6 = group._v6_matrix(table660.elements[labeled_classes["b3"][0]])
    for _, kb in epw.fixed_locus([list(r) for r in s6]):
        if len(kb) == 2:
            pattern = epw.line_intersection_pattern(fixtures.sextic_poly(), *kb)
            assert pattern == [1] * 6


def _three_rank_meet(a_rows, w_rows):
    """dim(span a_rows meet span w_rows) by the three-rank formula, lifted
    to one field when an entry is cyclotomic."""
    def rank(rows):
        return linalg.rank(cyclo.common_field(rows))

    return rank(a_rows) + rank(w_rows) - rank(list(a_rows) + list(w_rows))


def _stratum_oracle(a_rows, x):
    """The unscaled three-rank formula on all fifteen rows of x ^ (2-vectors)."""
    return _three_rank_meet(a_rows, [epw.wedge_vector_pair(x, p) for p in epw.PAIRS6])


def _mixed(rows, rng):
    """rows mixed by a seeded unimodular matrix: a product of elementary
    row operations, so the same span in a basis that is not echelon."""
    rows = [list(r) for r in rows]
    for _ in range(30):
        i, j = rng.sample(range(len(rows)), 2)
        t = rng.choice([-2, -1, 1, 2])
        rows[i] = [x + t * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return rows


def test_stratum_of_cyclotomic_eigenvectors_matches_the_unscaled_ranks(
        table660, labeled_classes):
    # the basis vectors of every eigenspace of the non-trivial classes:
    # cyclotomic points, in every stratum, reduced against the Lagrangian's
    # basis, a non-echelon basis of it and a Fraction one
    a_rows = epw.build_A()
    bases = [a_rows, _mixed(a_rows, random.Random(23)),
             [[Fraction(c, 3) for c in row] for row in a_rows]]
    seen = set()
    for label, cls in labeled_classes.items():
        if label == "1":
            continue
        for _, kb in epw.fixed_locus(group._v6_matrix(table660.elements[cls[0]])):
            for x in kb:
                want = _stratum_oracle(a_rows, x)
                for basis in bases:
                    assert epw.stratum(basis, x) == want, (label, x)
                seen.add(want)
    assert seen == {0, 1, 2}


def test_rational_cyclonum_points_take_the_integer_route(generators, monkeypatch):
    # c is diagonal: its eigenpoints are unit vectors written in conductor
    # 11, and their strata reduce no CycloNum entry
    c6 = group._v6_matrix(generators[1])
    points = [kb[0] for _, kb in epw.fixed_locus(c6)]
    assert {x.n for p in points for x in p} == {11}
    a_rows = epw.build_A()
    fractions = [[x.to_fraction() for x in p] for p in points]
    want = [epw.stratum(a_rows, p) for p in fractions]
    cyclotomic = []
    for name in ("rank", "rref"):
        kernel = getattr(linalg, name)

        def recorded(m, kernel=kernel):
            cyclotomic.extend(x for row in m for x in row if isinstance(x, CycloNum))
            return kernel(m)

        monkeypatch.setattr(linalg, name, recorded)
    epw._echelon.cache_clear()
    assert [epw.stratum(a_rows, p) for p in points] == want == [0, 2, 2, 2, 2, 2]
    assert not cyclotomic


def test_fixed_locus_of_a_rational_matrix_is_solved_in_q_zeta_n(generators):
    # a is a permutation matrix written in conductor 11: its eigenspaces
    # lie in Q(zeta_5), and span what the conductor-55 route finds
    a6 = group._v6_matrix(generators[0])
    got = epw.fixed_locus(a6)
    want = conductor_kept_fixed_locus(a6)
    assert {x.n for _, kb in want for v in kb for x in v} == {55}
    assert {x.n for _, kb in got for v in kb for x in v} == {5}
    assert [ev for ev, _ in got] == [ev for ev, _ in want]
    for (_, kb), (_, old) in zip(got, want):
        rank = linalg.rank(cyclo.common_field(kb))
        assert rank == len(kb) == len(old) == linalg.rank(cyclo.common_field(kb + old))


def test_diagonal_fixed_locus_is_read_off_the_diagonal(generators, monkeypatch):
    # c and c2 are diagonal: their eigenspaces come off the diagonal, with
    # no matrix power and no elimination, and equal the kernel_basis route's,
    # eigenvalue for eigenvalue and vector for vector, in the same field; a
    # and b3 are not diagonal and still take that route
    mats = {label: group._v6_matrix(group.class_representative(generators, label))
            for label in ("c", "c2", "a", "b3")}
    want = {label: conductor_kept_fixed_locus(m) for label, m in mats.items()}
    calls = []
    for module, name in ((group, "mat_order"), (linalg, "kernel_basis")):
        def counted(m, kernel=getattr(module, name), name=name):
            calls.append(name)
            return kernel(m)

        monkeypatch.setattr(module, name, counted)
    for label, m in mats.items():
        calls.clear()
        got = epw.fixed_locus(m)
        assert [ev for ev, _ in got] == [ev for ev, _ in want[label]]
        assert [kb for _, kb in got] == [kb for _, kb in want[label]]
        if label in ("c", "c2"):
            assert not calls, label
            assert [{x.n for v in kb for x in v} for _, kb in got] == [
                {x.n for v in kb for x in v} for _, kb in want[label]]
        else:
            assert "kernel_basis" in calls, label


def test_stratum_of_rational_multiples_matches_the_unscaled_ranks(capsys):
    rng = random.Random(14)
    a_int = epw.build_A()
    a_frac = [[Fraction(c, 2) for c in row] for row in a_int]
    f = fixtures.sextic_poly()
    points = [[Fraction(int(i == k)) for i in range(6)] for k in range(6)]
    points += [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(6)]
               for _ in range(6)]
    while len(points) < 18:
        # integer points on the sextic with coordinates of two sizes, so
        # that their multiples reach stratum 1 with unequal denominators
        x = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        if len({abs(c) for c in x if c}) > 1 and f.evaluate(x) == 0 and x not in points:
            points.append(x)
    seen = set()
    for x in points:
        for q in (1, 2, 3, 6):
            t = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), q)
            y = [t * c for c in x]
            want = _stratum_oracle(a_int, y)
            assert epw.stratum(a_int, y) == want
            assert epw.stratum(a_frac, y) == want
            seen.add(want)
    assert {0, 1, 2} <= seen
    # the CLI reports the sextic value at the point as given
    text = "1/2,-2/3,0,5/7,1,0"
    point = [Fraction(c) for c in text.split(",")]
    code = cli.main(["--json", "stratum", "--point", text])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["sextic-value"] == verify.frac_str(f.evaluate(point)) != "0"
    assert payload["stratum"] == _stratum_oracle(a_int, point) == 0


def test_stratum_sextic_consistency_random():
    rng = random.Random(11)
    a_rows = epw.build_A()
    f = fixtures.sextic_poly()
    checked = 0
    while checked < 100:
        x = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        if not any(x):
            continue
        assert (epw.stratum(a_rows, x) >= 1) == (f.evaluate(x) == 0)
        checked += 1


def test_sextic_invariance(generators):
    f = fixtures.sextic_poly()
    for g in generators:
        g6 = group._v6_matrix(g)
        images = []
        for i in range(6):
            img = MultiPoly(6)
            for j in range(6):
                e = g6[i][j]
                if not e.is_zero():
                    img = img + MultiPoly.var(j, 6, e)
            images.append(img)
        assert f.substitute(images) == f


def test_sextic_invariance_multiplies_no_cyclonums(monkeypatch):
    # the substitution expands packed ints: not one CycloNum product runs,
    # neither for the dense Weil generator nor in the verify check (whose
    # generators and 6 x 6 images are built before counting starts)
    f = fixtures.sextic_poly()
    ctx = verify.VerifyContext()
    generators = ctx.generators
    v6 = {id(g): group._v6_matrix(g) for g in generators}
    monkeypatch.setattr(group, "_v6_matrix", lambda g: v6[id(g)])
    calls = []
    product = CycloNum.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(CycloNum, "__mul__", counted)
    monkeypatch.setattr(CycloNum, "__rmul__", counted)
    assert verify._sextic_invariance(ctx) == (verify.PASS, {})
    assert not calls
    assert cyclo.substitute_linear(f.terms, v6[id(generators[2])]) == f.terms
    assert not calls


def test_horner_substitution_matches_the_power_cache(monkeypatch):
    # f(g y) for the v6 images of a, c and s, term for term against the
    # power-cache expansion, and the packed term-pair products it costs on
    # the dense Weil image: 31,123 by the power cache
    f = fixtures.sextic_poly()
    images = [group._v6_matrix(g) for g in verify.VerifyContext().generators]
    pairs = []
    keyed = cyclo._keyed_product

    def counted(a, b):
        pairs.append(len(a) * len(b))
        return keyed(a, b)

    monkeypatch.setattr(cyclo, "_keyed_product", counted)
    for g6 in images:
        got = cyclo.substitute_linear(f.terms, g6)
        want = power_cache_substitute(f.terms, g6)
        assert {e: (c.n, c.num, c.den) for e, c in got.items()} == {
            e: (c.n, c.num, c.den) for e, c in want.items()}
        assert got == f.terms
    del pairs[:]
    cyclo.substitute_linear(f.terms, images[2])
    assert sum(pairs) <= 13277


def test_quadric_invariance(generators):
    q = fixtures.invariant_quadric()
    b = [[Fraction(0)] * 10 for _ in range(10)]
    for e, coeff in q.terms.items():
        idx = [i for i, k in enumerate(e) if k]
        if len(idx) == 1:
            b[idx[0]][idx[0]] += Fraction(coeff)
        else:
            i, j = idx
            b[i][j] += Fraction(coeff, 2)
            b[j][i] += Fraction(coeff, 2)
    for g in generators:
        m = linalg.exterior_power_matrix(g, 2)
        mt = [list(r) for r in zip(*m)]
        lhs = linalg.mat_mul(linalg.mat_mul(mt, b), m)
        assert linalg.mat_eq(lhs, [[Fraction(x) for x in row] for row in b])


def _bases(rng):
    """The Lagrangian as given, halved (Fractions), mixed by a unimodular
    matrix (integer and halved), and a random 10-dimensional subspace
    vanishing on three coordinates, whose echelon form has other pivot
    columns and denominators."""
    a = epw.build_A()
    mixed = _mixed(a, rng)
    other = [[0 if j in (0, 4, 11) else rng.randint(-3, 3) for j in range(20)]
             for _ in range(10)]
    red, pivots = linalg.rref(other)
    assert pivots != list(range(10)) and len(pivots) == 10
    assert any(x.denominator > 1 for row in red for x in row)
    half = [[Fraction(c, 2) for c in row] for row in mixed]
    return {"A": a, "a_frac": [[Fraction(c, 2) for c in row] for row in a],
            "mixed": mixed, "mixed_frac": half, "random": other}


def test_intersection_route_matches_the_three_rank_formula():
    rng = random.Random(22)
    bases = _bases(rng)
    f = fixtures.sextic_poly()
    points = [[int(i == k) for i in range(6)] for k in range(6)]
    points += [[rng.randint(-3, 3) for _ in range(6)] for _ in range(12)]
    points += [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(6)]
               for _ in range(8)]
    # rational multiples of two integer points of the sextic
    for x in ([0, 0, 2, -1, 2, 2], [1, 0, 1, 1, 1, 1]):
        t = Fraction(rng.randint(1, 7), rng.randint(2, 5))
        points.append([t * c for c in x])
    points = [x for x in points if any(x)]
    seen = set()
    for name, a_rows in bases.items():
        for x in points:
            want = _stratum_oracle(a_rows, x)
            assert epw.stratum(a_rows, x) == want, (name, x)
            seen.add((name, want))
        for _ in range(6):
            cov = [rng.randint(-2, 2) for _ in range(6)]
            if not any(cov):
                continue
            w_rows = linalg.exterior_power_matrix(linalg.kernel_basis([cov]), 3)
            assert epw.gm_dimension(a_rows, cov) == 5 - _three_rank_meet(a_rows, w_rows)
        # row sets that are not bases: the formula counts their lengths
        w_rows = [epw.wedge_vector_pair(points[8], p) for p in epw.PAIRS6]
        w_rows += [list(a_rows[0]), [2 * c for c in a_rows[0]]]
        want = len(a_rows) + len(w_rows) - linalg.rank(list(a_rows) + w_rows)
        assert epw.trivector_subspace_intersection(a_rows, w_rows) == want
        assert epw.trivector_subspace_intersection(a_rows + a_rows[:1], w_rows) == want + 1
    assert all(f.evaluate(x) == 0 for x in points[-2:])
    assert {want for name, want in seen if name != "random"} == {0, 1, 2}

