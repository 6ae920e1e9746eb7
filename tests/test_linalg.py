import random
from fractions import Fraction

import pytest

from kleinepw import lattices, linalg
from kleinepw.cyclo import CycloNum, QuadInt, euler_phi
from kleinepw.groebner import FPoly
from kleinepw.poly import MultiPoly


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def rand_cyclo_matrix(rng, rows, cols):
    def entry():
        vec = [0] * euler_phi(11)
        for _ in range(2):
            vec[rng.randint(0, 9)] = rng.randint(-2, 2)
        return CycloNum(11, vec, 1)

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def test_rank_examples():
    assert linalg.rank(linalg.identity(10)) == 10
    assert linalg.rank([[0] * 5 for _ in range(3)]) == 0
    assert linalg.rank([[1, 2], [2, 4]]) == 1


def test_det_examples():
    assert linalg.det(linalg.identity(4)) == 1
    assert linalg.det([[2, 0], [0, 3]]) == 6
    assert linalg.det([[-2, -1], [-1, -6]]) == 11


def test_kernel_examples():
    assert linalg.kernel_basis(linalg.identity(3)) == []
    kb = linalg.kernel_basis([[0, 0], [0, 0]])
    assert len(kb) == 2
    kb = linalg.kernel_basis([[1, 1]])
    assert len(kb) == 1 and kb[0][0] == -kb[0][1] != 0


def test_rank_nullity_random():
    rng = random.Random(0)
    for _ in range(100):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        r = linalg.rank(m)
        kb = linalg.kernel_basis(m)
        assert r + len(kb) == len(m[0])
        for vec in kb:
            assert all(v == 0 for v in linalg.mat_vec(m, vec))
    for _ in range(100):
        m = rand_cyclo_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        r = linalg.rank(m)
        kb = linalg.kernel_basis(m)
        assert r + len(kb) == len(m[0])


def test_det_multiplicative():
    rng = random.Random(1)
    for _ in range(30):
        a = rand_matrix(rng, 4, 4)
        b = rand_matrix(rng, 4, 4)
        assert linalg.det(linalg.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


def test_char_poly():
    assert linalg.char_poly([[1, 0], [0, 1]]) == [1, -2, 1]  # (T-1)^2
    assert linalg.char_poly([[1, 0], [0, 2]]) == [2, -3, 1]  # (T-1)(T-2)
    # companion matrix of T^2 + T + 3
    assert linalg.char_poly([[0, -3], [1, -1]]) == [3, 1, 1]
    rng = random.Random(2)
    for _ in range(10):
        m = rand_matrix(rng, 3, 3)
        cp = linalg.char_poly(m)
        assert cp[3] == 1
        assert cp[0] == linalg.det([[-x for x in row] for row in m])
        # Cayley-Hamilton
        acc = [[Fraction(0)] * 3 for _ in range(3)]
        power = linalg.identity(3)
        for c in cp:
            acc = [[acc[i][j] + c * power[i][j] for j in range(3)] for i in range(3)]
            power = linalg.mat_mul(power, m)
        assert all(x == 0 for row in acc for x in row)


def test_snf_examples():
    d, L, R = linalg.smith_normal_form([[-2, -1], [-1, -6]])
    assert d == [1, 11]
    d, L, R = linalg.smith_normal_form([[22, 0], [0, 22]])
    assert d == [22, 22]
    d, L, R = linalg.smith_normal_form([list(r) for r in lattices.e8(-1).gram])
    assert d == [1] * 8


def test_snf_random_reassembly():
    rng = random.Random(3)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_matrix(rng, rows, cols, -6, 6)
        d, L, R = linalg.smith_normal_form(m)
        assert abs(linalg.det(L)) == 1
        assert abs(linalg.det(R)) == 1
        prod = linalg.mat_mul(linalg.mat_mul(L, m), R)
        for i in range(rows):
            for j in range(cols):
                assert prod[i][j] == (d[i] if i == j and i < len(d) else 0)
        for i in range(len(d) - 1):
            if d[i]:
                assert d[i + 1] % d[i] == 0
            else:
                assert d[i + 1] == 0


def test_integer_kernel():
    basis = linalg.int_kernel_basis([[2, 1, 0]])
    assert len(basis) == 2
    for b in basis:
        assert 2 * b[0] + b[1] == 0


def _signature(gram):
    return lattices.Lattice(gram).signature()


def test_signature():
    assert _signature([[2, 0], [0, -3]]) == (1, 1)
    assert _signature([[0, 1], [1, 0]]) == (1, 1)
    assert _signature([[2]]) == (1, 0)
    assert _signature([list(r) for r in lattices.e8(-1).gram]) == (0, 8)


def test_congruence_pivot():
    # a zero diagonal entry takes a congruence pivot, +-(row and column j)
    # added to row and column k; for [[0, 1], [1, -2]] adding gives 0 again
    # and the pivot must subtract
    assert _signature([[0, 1], [1, -2]]) == (1, 1)
    assert _signature([[0, 1, 0], [1, -2, 0], [0, 0, 3]]) == (2, 1)
    assert _signature([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == (1, 2)
    assert _signature([[1, 0, 0], [0, 0, 2], [0, 2, 0]]) == (2, 1)
    for degenerate in ([[1, 2], [2, 4]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="degenerate"):
            linalg.symmetric_elimination(degenerate)
        with pytest.raises(ValueError, match="degenerate Gram matrix"):
            lattices.Lattice(degenerate)


def test_symmetric_elimination_is_an_ldlt():
    # on a definite form no pivot step runs, so the rows decompose the form
    # itself: x^T G x = sum_k (rows[k] . x)^2 / (D_k D_(k+1))
    rng = random.Random(4)
    for spec in ("E8(-1)+(-2)", "[[2,1,0],[1,4,1],[0,1,6]]", "E8+(3)+(5)"):
        lat = lattices.parse_lattice_spec(spec)
        rows, minors = linalg.symmetric_elimination(lat.gram)
        assert minors[-1] == lat.det() == linalg.det(lat.gram)
        assert all(row[k] == minors[k + 1] and not any(row[:k]) for k, row in enumerate(rows))
        for _ in range(10):
            x = [rng.randint(-3, 3) for _ in range(lat.rank)]
            form = sum(Fraction(sum(r * v for r, v in zip(row, x)) ** 2, a * b)
                       for row, a, b in zip(rows, minors, minors[1:]))
            assert form == lat.inner(x, x)


def rand_linear_multipoly(rng, nvars):
    """Random affine-linear integer polynomial, zero about a quarter of the time."""
    if rng.random() < 0.25:
        return MultiPoly.zero(nvars)
    terms = {(0,) * nvars: rng.randint(-3, 3)}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = 1
        terms[tuple(e)] = rng.randint(-2, 2)
    return MultiPoly(nvars, terms)


def rand_fpoly(rng, p, nvars):
    """Random FPoly of degree at most 2 with a few terms, sometimes zero."""
    if rng.random() < 0.2:
        return FPoly(p, nvars)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * nvars
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = rng.randrange(1, p)
    return FPoly(p, nvars, terms)


def test_expansion_det_fpoly_matches_integer_bareiss_at_points():
    rng = random.Random(7)
    p, nvars = 32003, 3
    for n in (1, 2, 3, 4):
        m = [[rand_fpoly(rng, p, nvars) for _ in range(n)] for _ in range(n)]
        d = linalg.expansion_det(m, FPoly(p, nvars, {(0,) * nvars: 1}))
        assert isinstance(d, FPoly) and d.p == p and d.nvars == nvars
        for _ in range(5):
            point = [rng.randrange(p) for _ in range(nvars)]
            values = [[entry.evaluate(point) for entry in row] for row in m]
            assert d.evaluate(point) % p == linalg.det(values) % p


def test_expansion_det_multipoly_matches_poly_bareiss():
    rng = random.Random(3)
    nvars = 3
    for n in (2, 3, 4):
        for _ in range(4):
            m = [[rand_linear_multipoly(rng, nvars) for _ in range(n)] for _ in range(n)]
            d = linalg.expansion_det(m, MultiPoly.const(nvars, 1))
            assert d == linalg.bareiss_det(m)


@pytest.mark.parametrize(
    "zero, one",
    [
        (FPoly(101, 2), FPoly(101, 2, {(0, 0): 1})),
        (MultiPoly.zero(2), MultiPoly.const(2, 1)),
        (QuadInt(0), QuadInt(1)),
    ],
    ids=["FPoly", "MultiPoly", "QuadInt"],
)
def test_expansion_det_zero_row_gives_typed_zero(zero, one):
    two = one + one
    m = [[one, two, one], [zero, zero, zero], [two, one, one]]
    d = linalg.expansion_det(m, one)
    assert type(d) is type(one)
    assert d.is_zero()
    assert d == zero


_ZETA5 = CycloNum.zeta(5)
# ints beside CycloNums: linalg lifts the ints into the cyclotomic field
_MIXED = [[1, _ZETA5], [_ZETA5.conj(), 3]]


@pytest.mark.parametrize(
    "fn, m, want",
    [
        (linalg.det, [[2, -1, 0], [1, 3, Fraction(1, 2)], [0, 4, 5]], None),
        (linalg.det, rand_cyclo_matrix(random.Random(5), 3, 3), None),
        (linalg.det, _MIXED, 2),
        (linalg.rank, [[1, 2, 3], [2, 4, 6], [0, 1, 1]], None),
        (linalg.rank, rand_cyclo_matrix(random.Random(6), 3, 4), None),
        (linalg.rank, _MIXED, 2),
        (linalg.leading_minors, _MIXED, [1, 2]),
        (linalg.char_poly, [[1, 2, 0], [0, 1, -1], [3, 0, 2]], None),
        (linalg.smith_normal_form, [[2, 4, 4], [-6, 6, 12], [10, -4, -16]], None),
        (linalg.symmetric_elimination, [[2, 1, 0], [1, -3, 0], [0, 0, 5]], None),
    ],
    ids=["det-Q", "det-cyclo", "det-mixed", "rank-Z", "rank-cyclo", "rank-mixed",
         "leading_minors-mixed", "char_poly", "smith_normal_form", "symmetric_elimination"],
)
def test_tuple_rows_give_the_list_rows_result(fn, m, want):
    before = [list(row) for row in m]
    got = fn(m)
    assert fn(tuple(tuple(row) for row in m)) == got
    assert m == before
    if want is not None:
        assert got == want
