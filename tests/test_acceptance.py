"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every comparison is equality; the only
tolerances are the stated runtime ceilings, asserted per criterion.
"""

import time
from fractions import Fraction

import pytest

from kleinepw import epw, fixtures, group, hermitian, lattices, linalg, verify
from kleinepw.cyclo import CycloNum, QuadInt, lambda_embed
from kleinepw.groebner import (
    decomposable_pullback_ideal,
    distinct_mod,
    gm_threefold_ideal,
    projective_empty,
    smoothness_check,
)
from kleinepw.poly import MultiPoly, gcd, squarefree_decomposition
from kleinepw.textform import emit_polynomial, parse_polynomial

from projective_keys import projective_key


class Criterion:
    def __init__(self, number, title, limit_seconds):
        self.number = number
        self.title = title
        self.limit = limit_seconds
        self.start = None

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:>2}] {verdict}  {self.title}  ({elapsed:.1f}s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget: {elapsed:.1f}s"
            )
        return False


def test_criterion_01_sextic_reproduction():
    with Criterion(1, "sextic reproduction, both routes", 60):
        fixture = fixtures.sextic_poly()
        bareiss = epw.sextic_equation()
        interp = epw.sextic_via_interpolation()
        assert bareiss == fixture
        assert interp == fixture
        text = emit_polynomial(bareiss)
        assert parse_polynomial(text, 6) == fixture
        assert len(fixture.terms) == 37


def test_criterion_02_group_reconstruction():
    with Criterion(2, "order-660 closure with class data", 120):
        gens = [group.gen_a(), group.gen_c(), group.weil_outside_borel()]
        table = group.generate_group(gens)
        assert len(table) == 660
        assert len({projective_key(m) for m in table.elements}) == 660
        sizes = sorted(len(c) for c in table.conjugacy_classes())
        assert sizes == [1, 55, 60, 60, 110, 110, 132, 132]
        labeled = table.labeled_classes()
        profile = [table.element_order(labeled[lab][0]) for lab, _, _ in fixtures.CLASS_DATA]
        assert profile == [1, 11, 11, 5, 5, 6, 3, 2]


def test_criterion_03_character_table(table660, labeled_classes):
    with Criterion(3, "character table rows, exact", 30):
        lam = lambda_embed()
        assert lam * lam + lam + 3 == 0
        rows = fixtures.character_rows()
        functors = {
            "chi0": None,
            "xi": group.functor_xi(),
            "xi_dual": group.functor_xi_dual(),
            "wedge2_xi": group.functor_wedge2(),
        }
        for name, f in functors.items():
            for (lab, _, _), want in zip(fixtures.CLASS_DATA, rows[name]):
                got = (
                    CycloNum.from_rational(1, 11)
                    if f is None
                    else group.character(f, table660, labeled_classes[lab][0])
                )
                assert got == want, (name, lab)


def test_criterion_04_invariant_quadric(table660, generators):
    with Criterion(4, "unique invariant quadric", None):
        assert group.trivial_multiplicity(group.functor_sym2_wedge2(), table660) == 1
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
            m = [list(r) for r in group._wedge2_matrix(g)]
            mt = [list(r) for r in zip(*m)]
            assert linalg.mat_eq(
                linalg.mat_mul(linalg.mat_mul(mt, b), m),
                [[Fraction(x) for x in row] for row in b],
            )


def test_criterion_05_lefschetz_counts(table660, labeled_classes):
    with Criterion(5, "surface fixed-point counts 5, 2, 3, 3", None):
        got = {
            order: group.lefschetz_surface_count(table660, labeled_classes[lab][0])
            for lab, order in (("c", 11), ("a", 5), ("b", 6), ("b2", 3))
        }
        assert got == {11: 5, 5: 2, 6: 3, 3: 3}


def test_criterion_06_strata():
    with Criterion(6, "strata, section dimensions, self-duality", None):
        a = epw.build_A()
        assert epw.stratum(a, [1, 0, 0, 0, 0, 0]) == 0
        for i in range(1, 6):
            x = [0] * 6
            x[i] = 1
            assert epw.stratum(a, x) == 2
        assert epw.gm_dimension(a, [0, 0, 0, 0, 0, 1]) == 3
        assert epw.gm_dimension(a, [1, 0, 0, 0, 0, 0]) == 5
        assert epw.self_duality_check(a) is True


def test_criterion_07_line_sections(table660, labeled_classes):
    with Criterion(7, "order-5 and order-2 line sections", None):
        f = fixtures.sextic_poly()
        g = epw.restrict_to_line(f, [1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1])
        assert g == fixtures.order5_line_poly()
        pol, inf = epw.dehomogenize(g)
        assert inf == 0
        dec = squarefree_decomposition(pol)
        assert sum(fac.total_degree() for fac, _ in dec) == 4
        assert gcd(pol, pol.derivative(0)) == MultiPoly(1, {(2,): 1, (1,): 1, (0,): -1})
        pattern = sorted(m for fac, m in dec for _ in range(fac.total_degree()))
        assert pattern == [1, 1, 2, 2]
        s6 = group._v6_matrix(table660.elements[labeled_classes["b3"][0]])
        for _, kb in epw.fixed_locus([list(r) for r in s6]):
            if len(kb) == 2:
                assert epw.line_intersection_pattern(f, *kb) == [1] * 6


def test_criterion_08_lattice_suite():
    with Criterion(8, "discriminant forms, gluing count, isotropy", 60):
        hperp = lattices.parse_lattice_spec("U+U+E8(-1)+E8(-1)+(-2)+(-2)")
        dh = lattices.disc_group(hperp)
        assert dh.orders == (2, 2)
        assert dh.is_isomorphic(
            lattices.FiniteQuadraticForm(
                (2, 2), [[Fraction(-1, 2), 0], [0, Fraction(-1, 2)]]
            )
        )
        k = lattices.Lattice([[-2, -1], [-1, -6]])
        dk = lattices.disc_group(
            lattices.direct_sum(lattices.e8(-1), lattices.e8(-1), k, k)
        )
        assert sorted(dk.orders) == [11, 11]
        assert dk.is_isomorphic(
            lattices.FiniteQuadraticForm(
                (11, 11), [[Fraction(-2, 11), 0], [0, Fraction(-2, 11)]]
            )
        )
        m = lattices.direct_sum(lattices.Lattice([[2, 1], [1, 6]]), lattices.rank1(22))
        assert sorted(lattices.vectors_of_norm(m, 2)) == [(-1, 0, 0), (1, 0, 0)]
        comp, _ = lattices.orthogonal_complement(m, (1, 0, 0))
        assert sorted(lattices.disc_group(comp).orders) == [22, 22]
        assert comp.det() == 484
        pic = lattices.direct_sum(
            lattices.rank1(2), lattices.e8(-1), lattices.e8(-1), k, k
        )
        assert pic.rank == 21
        assert lattices.disc_group(pic).isotropic_elements() == []
        dt = lattices.disc_group(
            lattices.direct_sum(lattices.rank1(22), lattices.rank1(22))
        )
        target = lattices.disc_group(
            lattices.direct_sum(lattices.rank1(-2), lattices.rank1(-2))
        )
        assert len(dt.torsion_subform(2).isometries(target)) == 2


def test_criterion_09_representability():
    with Criterion(9, "representability sweeps", 120):
        l4 = lattices.Lattice(
            [[-4, 0, 0, 0], [0, -4, 0, 0], [0, 0, -6, 0], [0, 0, 0, -8]]
        )
        norms, _ = lattices.represented_norms(l4, 200)
        assert -2 not in norms
        assert all(v in norms for v in range(-200, -3, 2))
        l5 = lattices.Lattice(
            [
                [-4, 0, 0, 0, 0],
                [0, -4, 0, 0, 0],
                [0, 0, -4, 0, 0],
                [0, 0, 0, -6, 0],
                [0, 0, 0, 0, -8],
            ]
        )
        _, prim = lattices.represented_norms(l5, 100)
        assert all((-d) // 4 in prim for d in range(16, 401, 8))


def test_criterion_10_hermitian_suite():
    with Criterion(10, "Hermitian forms and polarization invariants", 30):
        h = fixtures.hprime_matrix()
        assert linalg.is_hermitian(h)
        assert hermitian.is_positive_definite(h)
        assert hermitian.herm_det(h) == 1
        w = hermitian.induced_wedge2(h)
        ok, witness = hermitian.matches_mat10(w)
        assert ok, witness
        assert hermitian.herm_det(w) == 1
        assert hermitian.is_positive_definite(w)
        ident = tuple(
            tuple(QuadInt(1 if i == j else 0) for j in range(10)) for i in range(10)
        )
        assert hermitian.polarization_invariants(ident) == hermitian.binomial_invariants(10)


def test_criterion_11_invariant_form(table660, generators):
    with Criterion(11, "group-summed invariant Hermitian form", 300):
        ctx = verify.VerifyContext()
        ctx.generators, ctx.table = tuple(generators), table660
        m = ctx.invariant_form
        assert linalg.is_hermitian(m)
        assert group.hermitian_invariance_check(m, ctx.wedge2_generators)
        assert group.hermitian_positive_definite(m)


def test_criterion_12_groebner_gates():
    with Criterion(12, "finite-field emptiness and smoothness gates", 7200):
        primes = (32003, 65537)
        pullback = decomposable_pullback_ideal()
        for p in primes:
            assert projective_empty(distinct_mod(pullback, p))[0] is True
        threefold = gm_threefold_ideal()
        for p in primes:
            ok, _ = smoothness_check(threefold, 4, p)
            assert ok is True
