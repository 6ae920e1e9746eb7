import random
from fractions import Fraction
from math import floor, isqrt

import pytest

from kleinepw import lattices as lat
from kleinepw import linalg


def test_constructors():
    assert lat.hyperbolic_plane().det() == -1
    e8m = lat.e8(-1)
    assert e8m.det() == 1
    assert all(e8m.gram[i][i] % 2 == 0 for i in range(e8m.rank))  # even
    assert e8m.signature() == (0, 8)
    assert lat.rank1(-2).gram == ((-2,),)
    with pytest.raises(ValueError):
        lat.Lattice([[1, 2], [2, 4]])  # degenerate
    with pytest.raises(ValueError):
        lat.Lattice([[1, 2], [3, 4]])  # not symmetric


def test_direct_sum_and_rank():
    hperp = lat.parse_lattice_spec("U+U+E8(-1)+E8(-1)+(-2)+(-2)")
    assert hperp.rank == 22
    full = lat.parse_lattice_spec("U+U+U+E8(-1)+E8(-1)+(-2)")
    assert full.rank == 23
    assert lat.parse_lattice_spec("[[0,1],[1,0]]").det() == -1
    with pytest.raises(ValueError):
        lat.parse_lattice_spec("Q+U")


def test_json_summands_anywhere_in_a_sum():
    first = lat.parse_lattice_spec("[[2,1],[1,2]]+E8(1)")
    assert (first.rank, first.det()) == (10, 3)
    assert first.gram[:2] == ((2, 1) + (0,) * 8, (1, 2) + (0,) * 8)
    middle = lat.parse_lattice_spec("U + [[2,1],[1,2]] + (-2)")
    assert (middle.rank, middle.det()) == (5, 6)
    assert middle.gram[2][2:4] == (2, 1)
    for spec in ("[[2,1],[1,2]+E8(1)", "U+(-2", "E8(1))+U"):
        with pytest.raises(ValueError, match="unbalanced brackets"):
            lat.parse_lattice_spec(spec)


def test_disc_group_examples():
    assert lat.disc_group(lat.e8(-1)).order == 1
    d = lat.disc_group(lat.Lattice([[-2, -1], [-1, -6]]))
    assert d.orders == (11,)
    # natural generator takes value -6/11 mod 2; generator change by 2
    # identifies it with -2/11
    assert d.gram[0][0] == Fraction(-6, 11) % 2
    assert d.is_isomorphic(lat.FiniteQuadraticForm((11,), [[Fraction(-2, 11)]]))
    d2 = lat.disc_group(lat.direct_sum(lat.rank1(-2), lat.rank1(-2)))
    assert d2.orders == (2, 2)
    assert d2.gram[0][0] == Fraction(-1, 2) % 2


def test_disc_of_direct_sum_is_sum():
    k = lat.Lattice([[-2, -1], [-1, -6]])
    da = lat.disc_group(lat.direct_sum(k, lat.rank1(-2)))
    target = lat.FiniteQuadraticForm(
        (2, 11), [[Fraction(-1, 2), 0], [0, Fraction(-6, 11)]]
    )
    assert da.is_isomorphic(target)


def test_fqf_isometries():
    a = lat.FiniteQuadraticForm((11,), [[Fraction(-6, 11)]])
    b = lat.FiniteQuadraticForm((11,), [[Fraction(-2, 11)]])
    assert a.is_isomorphic(b)  # witness k = 2
    c = lat.FiniteQuadraticForm((2,), [[Fraction(1, 2)]])
    d = lat.FiniteQuadraticForm((2,), [[Fraction(3, 2)]])
    assert not c.is_isomorphic(d)


def test_gluing_isometry_count():
    dt = lat.disc_group(lat.direct_sum(lat.rank1(22), lat.rank1(22)))
    assert dt.orders == (22, 22)
    tor = dt.torsion_subform(2)
    assert tor.orders == (2, 2)
    assert tor.gram[0][0] == Fraction(121, 22) % 2 == Fraction(3, 2)
    target = lat.disc_group(lat.direct_sum(lat.rank1(-2), lat.rank1(-2)))
    isoms = tor.isometries(target)
    assert len(isoms) == 2
    images = {tuple(sorted(im)) for im in isoms}
    assert images == {((0, 1), (1, 0))}  # the two factor-switchings


def test_isotropic_elements():
    k = lat.Lattice([[-2, -1], [-1, -6]])
    pic = lat.direct_sum(lat.rank1(2), lat.e8(-1), lat.e8(-1), k, k)
    assert pic.rank == 21
    assert lat.disc_group(pic).isotropic_elements() == []
    assert lat.disc_group(lat.hyperbolic_plane()).order == 1
    d8 = lat.disc_group(lat.rank1(8))
    assert d8.gram[0][0] == Fraction(1, 8)
    assert d8.isotropic_elements() == [(4,)]


def test_hodge_rank22():
    k = lat.Lattice([[-2, -1], [-1, -6]])
    hodge = lat.direct_sum(
        lat.rank1(2), lat.rank1(2), lat.e8(-1), lat.e8(-1), k, k
    )
    assert hodge.rank == 22
    assert hodge.signature() == (2, 20)


def test_disc_order_is_det():
    rng = random.Random(0)
    for _ in range(20):
        while True:
            g = [[0] * 3 for _ in range(3)]
            for i in range(3):
                g[i][i] = 2 * rng.randint(-4, 4)
                for j in range(i):
                    g[i][j] = g[j][i] = rng.randint(-2, 2)
            if linalg.det(g) != 0:
                break
        m = lat.Lattice(g)
        assert lat.disc_group(m).order == abs(m.det())


def test_short_vectors_e8():
    roots = lat.vectors_of_norm(lat.e8(-1), -2)
    assert len(roots) == 240
    assert {tuple(-x for x in v) for v in roots} == set(roots)
    with pytest.raises(ValueError):
        lat.short_vectors(lat.hyperbolic_plane(), 2)


def test_short_vectors_bounds_and_box_oracle():
    g = lat.Lattice([[2, 1], [1, 6]])
    vecs = lat.short_vectors(g, 12)
    assert all(g.inner(v, v) == n and 0 < n <= 12 for v, n in vecs)
    # independent box-search oracle
    box = []
    for x in range(-4, 5):
        for y in range(-3, 4):
            n = g.inner((x, y), (x, y))
            if (x, y) != (0, 0) and n <= 12:
                box.append(((x, y), n))
    assert sorted(box) == vecs


def _fraction_short_vectors(gram, bound):
    """Fincke-Pohst on Fractions over an exact rational LDL^T: the route
    that the integer enumeration replaced, kept as its oracle.  gram must
    be definite."""
    sign = 1 if gram[0][0] > 0 else -1
    n = len(gram)
    q = [[Fraction(sign * x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    l = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = q[i][i]
        assert d[i] > 0
        for j in range(i + 1, n):
            l[i][j] = q[i][j] / d[i]
        for r in range(i + 1, n):
            for s in range(r, n):
                q[r][s] -= d[i] * l[i][r] * l[i][s]
                q[s][r] = q[r][s]
    out = []
    x = [0] * n

    def recurse(i, remaining):
        if i < 0:
            if any(x):
                used = bound - remaining
                assert used.denominator == 1
                out.append((tuple(x), sign * int(used)))
            return
        center = sum(l[i][j] * x[j] for j in range(i + 1, n))
        radius = remaining / d[i]
        root = isqrt(radius.numerator * radius.denominator) // radius.denominator
        for xi in range(floor(-center - root - 1), floor(-center + root + 1) + 2):
            used = d[i] * (xi + center) ** 2
            if used <= remaining:
                x[i] = xi
                recurse(i - 1, remaining - used)
        x[i] = 0

    recurse(n - 1, Fraction(bound))
    out.sort()
    return out


def _definite_summand(rng, kind, sign):
    """A rank-1 form, or a definite JSON Gram matrix of size 2 or 3."""
    if kind == "rank1":
        return lat.rank1(sign * rng.randint(1, 6))
    n = 2 if kind == "json2" else 3
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.randint(1, 6)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        if all(linalg.det([row[:k] for row in g[:k]]) > 0 for k in range(1, n + 1)):
            return lat.parse_lattice_spec(str([[sign * v for v in row] for row in g]))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("kind", ["rank1", "json2", "json3"])
def test_integer_enumeration_matches_fraction_route(sign, kind):
    # seeded definite sums, E8 first and last; the list must agree element
    # for element and in order
    rng = random.Random(f"{sign}{kind}")

    def summand(k=kind):
        return _definite_summand(rng, k, sign)

    e8 = lat.e8(sign)
    cases = [(lat.direct_sum(e8, summand()), rng.randint(2, 5)),
             (lat.direct_sum(summand(), e8), rng.randint(2, 5)),
             (lat.direct_sum(summand("rank1"), summand(), summand("json2")), rng.randint(2, 8)),
             (lat.direct_sum(summand(), summand("rank1")), 8)]
    for m, bound in cases:
        assert lat.short_vectors(m, bound) == _fraction_short_vectors(m.gram, bound)


@pytest.mark.parametrize("diag, bound", [((4, 4, 6, 8), 200), ((4, 4, 4, 6, 8), 100)])
def test_integer_enumeration_on_the_representability_forms(diag, bound):
    n = len(diag)
    for sign in (1, -1):
        m = lat.Lattice([[sign * diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
        assert lat.short_vectors(m, bound) == _fraction_short_vectors(m.gram, bound)


def test_short_vectors_rejects_indefinite():
    # U, U + E8 and E8 + U need the congruence pivot; (2) + (-3) does not
    for spec in ("U", "U+E8", "E8+U", "(2)+(-3)"):
        with pytest.raises(ValueError, match="needs a definite lattice"):
            lat.short_vectors(lat.parse_lattice_spec(spec), 2)


def test_norm2_complement():
    m = lat.direct_sum(lat.Lattice([[2, 1], [1, 6]]), lat.rank1(22))
    v2 = sorted(lat.vectors_of_norm(m, 2))
    assert v2 == [(-1, 0, 0), (1, 0, 0)]
    comp, basis = lat.orthogonal_complement(m, (1, 0, 0))
    assert sorted(lat.disc_group(comp).orders) == [22, 22]
    assert comp.det() == 484


def test_representability_sweeps():
    l4 = lat.Lattice(
        [[-4, 0, 0, 0], [0, -4, 0, 0], [0, 0, -6, 0], [0, 0, 0, -8]]
    )
    norms, _ = lat.represented_norms(l4, 200)
    assert -2 not in norms
    assert all(v in norms for v in range(-200, -3, 2))
    assert not lat.vectors_of_norm(l4, -2)
    assert lat.vectors_of_norm(l4, -10)
    l5 = lat.Lattice(
        [
            [-4, 0, 0, 0, 0],
            [0, -4, 0, 0, 0],
            [0, 0, -4, 0, 0],
            [0, 0, 0, -6, 0],
            [0, 0, 0, 0, -8],
        ]
    )
    _, prim = lat.represented_norms(l5, 100)
    assert all((-d) // 4 in prim for d in range(16, 401, 8))
    assert -4 in prim


def test_inner_is_the_double_sum():
    rng = random.Random(3)
    l = lat.parse_lattice_spec("U+E8(-1)+(-2)")
    n = l.rank
    for _ in range(20):
        v = [rng.randint(-3, 3) for _ in range(n)]
        w = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        want = sum(v[i] * l.gram[i][j] * w[j] for i in range(n) for j in range(n))
        assert l.inner(v, w) == want == l.inner(w, v)


def test_one_elimination_per_lattice(monkeypatch, capsys):
    # the constructor runs the one symmetric elimination; the determinant,
    # the signature and the enumerations read it and run no other kernel
    from kleinepw.cli import main

    l = lat.parse_lattice_spec("E8(-1)+(-2)")
    want_det = linalg.det(l.gram)
    calls = []
    real = linalg.symmetric_elimination

    def counted(gram):
        calls.append(len(gram))
        return real(gram)

    def refuse(*args):
        raise AssertionError("a lattice recomputed its determinant or signature")

    monkeypatch.setattr(linalg, "symmetric_elimination", counted)
    monkeypatch.setattr(linalg, "det", refuse)
    assert l.det() == want_det == -2
    assert l.signature() == (0, 9)
    assert len(lat.vectors_of_norm(l, -2)) == 242
    assert lat.short_vectors(l, 2) == lat.short_vectors(l, 2)
    assert calls == []
    assert main(["lattice", "--spec", "E8(-1)+(-2)", "--short-vectors", "2"]) == 0
    assert "determinant -2, signature (0, 9)" in capsys.readouterr().out
    # one elimination for each summand and one for the sum
    assert calls == [8, 1, 9]
