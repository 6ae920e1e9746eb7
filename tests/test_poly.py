import random
from fractions import Fraction
from itertools import product

import pytest

from kleinepw.groebner import FPoly
from kleinepw.poly import MultiPoly, gcd, grevlex_key, grevlex_packing, squarefree_decomposition
from kleinepw.textform import MAX_VARIABLES, PolyParseError, emit_polynomial, parse_polynomial


def rand_poly(rng, nvars=3, terms=4, deg=3):
    p = MultiPoly.zero(nvars)
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(nvars))
        p = p + MultiPoly(nvars, {e: rng.randint(-4, 4)})
    return p


def test_ring_axioms_random():
    rng = random.Random(0)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == MultiPoly.zero(3)


def test_substitution_commutes_with_evaluation():
    rng = random.Random(1)
    for _ in range(20):
        p = rand_poly(rng, nvars=2)
        q0 = rand_poly(rng, nvars=2)
        q1 = rand_poly(rng, nvars=2)
        point = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
        composed = p.substitute([q0, q1])
        assert composed.evaluate(point) == p.evaluate(
            [q0.evaluate(point), q1.evaluate(point)]
        )


def test_exact_division():
    rng = random.Random(2)
    for _ in range(20):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero():
            continue
        prod = a * b
        if prod.is_zero():
            continue
        assert prod.exact_div(b) == a
    x = MultiPoly.var(0, 2)
    y = MultiPoly.var(1, 2)
    with pytest.raises(ValueError):
        (x * x + y).exact_div(x + y)


def test_homogenize():
    x = MultiPoly.var(0, 2)
    y = MultiPoly.var(1, 2)
    p = x * x + y + 1
    h = p.homogenize(2)
    assert h.is_homogeneous()
    assert h.total_degree() == 2
    assert h.coefficient((2, 0, 0)) == 1  # the inserted variable squared


def upoly(coeffs):
    """One-variable polynomial from its coefficients, low to high."""
    return MultiPoly(1, {(k,): c for k, c in enumerate(coeffs)})


def test_divmod_examples():
    x = MultiPoly.var(0, 2)
    y = MultiPoly.var(1, 2)
    # over Z a coefficient the leading one does not divide stays behind
    q, r = (4 * x * x + 3 * x * y).divmod(2 * x)
    assert q == 2 * x and r == 3 * x * y
    # over Q it divides
    q, r = (3 * x * x + y).divmod(x * Fraction(2))
    assert q == x * Fraction(3, 2) and r == y
    with pytest.raises(ValueError):
        (3 * x).exact_div(2 * x)
    with pytest.raises(ZeroDivisionError):
        x.divmod(MultiPoly.zero(2))
    assert upoly([2, 4]).monic() == upoly([Fraction(1, 2), 1])


def test_fpoly_divmod_divides_in_the_prime_field():
    # 3x = 5 * 2x over F_7: the leading coefficient is inverted mod 7
    q, r = FPoly(7, 1, {(1,): 3}).divmod(FPoly(7, 1, {(1,): 2}))
    assert q == FPoly(7, 1, {(0,): 5}) and r.is_zero()
    assert type(q) is FPoly and type(r) is FPoly
    assert FPoly(7, 1, {(1,): 3, (0,): 1}).monic() == FPoly(7, 1, {(1,): 1, (0,): 5})


def test_fpoly_divmod_is_division_with_remainder():
    rng = random.Random(7)
    p = 101
    for _ in range(30):
        a, b = (FPoly.from_int_poly(rand_poly(rng, nvars=2), p) for _ in range(2))
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert all(0 < c < p for g in (q, r) for c in g.terms.values())
        lead, _ = b.leading_term()
        assert not any(all(x >= y for x, y in zip(e, lead)) for e in r.terms)


def test_squarefree_examples():
    # u^2 -> [(u, 2)]
    dec = squarefree_decomposition(upoly([0, 0, 1]))
    assert len(dec) == 1 and dec[0][1] == 2 and dec[0][0].total_degree() == 1

    # the order-5 line section: squarefree part degree 4, gcd u^2 + u - 1
    p = upoly([5, -12, 0, 10, 0, 0, 1])
    assert sum(f.total_degree() for f, _ in squarefree_decomposition(p)) == 4
    assert gcd(p, p.derivative(0)) == upoly([-1, 1, 1])

    # (u-1)(u+1) -> single squarefree factor of multiplicity 1
    dec = squarefree_decomposition(upoly([-1, 0, 1]))
    assert len(dec) == 1 and dec[0][1] == 1 and dec[0][0].total_degree() == 2

    # a constant has no factors
    assert squarefree_decomposition(upoly([7])) == []

    with pytest.raises(ValueError):
        squarefree_decomposition(upoly([]))


def test_squarefree_reassembly():
    rng = random.Random(3)
    for _ in range(10):
        # random product with repeated factors and a non-unit leading coefficient
        f1 = upoly([rng.randint(-3, 3), 1])
        f2 = upoly([rng.randint(-3, 3), rng.randint(-2, 2), 1])
        p = f1 * f1 * f2 * 3
        dec = squarefree_decomposition(p)
        prod = upoly([1])
        for fac, mult in dec:
            assert fac.leading_term()[1] == 1
            for _ in range(mult):
                prod = prod * fac
        assert prod == p.monic()
        for i, (fa, _) in enumerate(dec):
            for fb, _ in dec[i + 1 :]:
                assert gcd(fa, fb).total_degree() == 0


def test_parser_examples():
    p = parse_polynomial("x0^6", 6)
    assert p.terms == {(6, 0, 0, 0, 0, 0): 1}
    p = parse_polynomial("-12*x0*x1*x2*x3*x4*x5", 6)
    assert p.terms == {(1, 1, 1, 1, 1, 1): -12}
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x0 + + x1", 2)
    assert err.value.col == 6
    with pytest.raises(PolyParseError):
        parse_polynomial("x9", 2)
    with pytest.raises(PolyParseError):
        parse_polynomial("x0^999999", 2)


def test_parser_makes_no_polynomial_arithmetic(monkeypatch):
    from kleinepw import fixtures

    f = fixtures.sextic_poly()
    text = emit_polynomial(f)

    def refuse(self, other):
        raise AssertionError("polynomial arithmetic in the parser")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    assert parse_polynomial(text, 6).terms == f.terms
    assert parse_polynomial("2*x0*x1^2*3 - x2 + x2", 3).terms == {(1, 2, 0): 6}


def test_parser_caps_the_variable_count():
    assert parse_polynomial("x63", MAX_VARIABLES).nvars == MAX_VARIABLES
    names = [f"y{i}" for i in range(MAX_VARIABLES + 1)]
    for variables in (MAX_VARIABLES + 1, names):
        with pytest.raises(ValueError, match=f"{MAX_VARIABLES + 1} variables, more than the "):
            parse_polynomial("x0", variables)


def test_emit_round_trip():
    from kleinepw import fixtures

    f = fixtures.sextic_poly()
    text = emit_polynomial(f)
    again = parse_polynomial(text, 6)
    assert again == f
    assert emit_polynomial(again) == text
    q = fixtures.invariant_quadric()
    text_q = emit_polynomial(q, fixtures.PAIR_VARS)
    assert parse_polynomial(text_q, fixtures.PAIR_VARS) == q


# -- packed monomials at the edges of their fields -------------------------


def _width(guard):
    """The field width w of a packing, read from its lowest guard bit."""
    return (guard & -guard).bit_length()


def test_packed_width_follows_the_degree_bound():
    # w = max(8, bitlen(2 * degree + 1) + 1): 8 up to degree 63, then one
    # more bit each time 2 * degree + 1 needs one
    for degree, w in ((0, 8), (63, 8), (64, 9), (127, 9), (128, 10), (2 ** 20, 23)):
        assert _width(grevlex_packing(3, degree)[4]) == w


@pytest.mark.parametrize("degree", [63, 64, 2048])
def test_packing_at_the_largest_field_value(degree):
    pack, unpack, word, packed_lcm, guard = grevlex_packing(3, degree)
    top = 2 ** (_width(guard) - 1) - 1

    # order: all of degree top, ties broken by the smaller last exponent,
    # then the smaller next-to-last
    ascending = [(0, 0, top), (0, 1, top - 1), (top - 1, 0, 1), (0, top, 0), (1, top - 1, 0),
                 (top, 0, 0)]
    assert sorted(reversed(ascending), key=pack) == ascending
    assert sorted(reversed(ascending), key=grevlex_key) == ascending
    assert pack((0, 0, 1)) < pack((top, 0, 0)) < pack((0, 0, top + 1))

    # products: one integer add, exact up to fields of top
    for a, b in (((top - 1, 0, 0), (1, 0, 0)), ((0, top, 0), (0, 0, top)),
                 ((top, 0, 0), (0, 0, 0)), ((1, 2, 3), (top - 1, top - 2, top - 3))):
        ab = tuple(x + y for x, y in zip(a, b))
        assert pack(a) + pack(b) == pack(ab)
        assert unpack(pack(a) + pack(b)) == ab

    def divides(l, m):
        return ((word(pack(m)) | guard) - word(pack(l))) & guard == guard

    assert divides((top, 0, 0), (top, 1, 0)) and divides((0, top, 0), (0, top, 0))
    assert divides((0, 0, 1), (0, 0, top)) and divides((0, 0, 0), (top, top, top))
    assert not divides((top, 1, 0), (top, 0, 1)) and not divides((1, 0, 0), (0, top, top))
    # a field of m below the one of l borrows from its guard, not from the
    # next field up
    assert not divides((0, 1, 0), (top, 0, top)) and not divides((0, 0, top), (top, top, top - 1))

    # the lcm's P, from the Es, up to the degree bound 2 * degree
    for a, b, lcm in (((top - 3, 0, 2), (1, 1, 1), (top - 3, 1, 2)),
                      ((0, 0, degree), (degree, 0, 0), (degree, 0, degree)),
                      ((0, 0, 0), (0, top, 0), (0, top, 0))):
        assert packed_lcm(word(pack(a)), word(pack(b))) == pack(lcm)


@pytest.mark.parametrize("degree", [0, 1, 63, 64, 2048, 4096])
def test_packing_holds_every_monomial_up_to_twice_the_degree(degree):
    # the width rule's promise: exact order, products, divisibility and
    # lcms for every monomial of degree at most 2 * degree
    pack, unpack, word, packed_lcm, guard = grevlex_packing(3, degree)
    values = sorted({0, 1, degree, max(2 * degree - 1, 0), 2 * degree})
    monos = [e for e in product(values, repeat=3) if sum(e) <= 2 * degree]
    assert sorted(monos, key=pack) == sorted(monos, key=grevlex_key)
    for a in monos:
        assert unpack(pack(a)) == a
        for b in monos:
            divides = all(x <= y for x, y in zip(a, b))
            assert (((word(pack(b)) | guard) - word(pack(a))) & guard == guard) == divides
            lcm = tuple(map(max, a, b))
            if sum(lcm) <= 2 * degree:
                assert packed_lcm(word(pack(a)), word(pack(b))) == pack(lcm)
            if divides:
                assert pack(b) - pack(a) == pack(tuple(y - x for x, y in zip(a, b)))
