import random
from fractions import Fraction

import pytest

from kleinepw.cyclo import (
    CycloNum,
    QuadInt,
    cyclotomic_polynomial,
    euler_phi,
    lambda_embed,
    sqrt_minus_11,
)

from cyclo_fractions import cyclo_from_fractions


def rand_cyclo(rng, n=11):
    return cyclo_from_fractions(
        n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(n))])


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(11) == tuple([1] * 11)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert len(cyclotomic_polynomial(55)) == 41  # phi(55) = 40


def test_root_of_unity_relations():
    z = CycloNum.zeta(11)
    assert z**11 == 1
    total = CycloNum.from_rational(1, 11)
    for k in range(1, 11):
        total = total + z**k
    assert total == 0


def test_lambda_identities():
    lam = lambda_embed()
    assert lam * lam + lam + 3 == 0
    assert lam * lam.conj() == 3
    assert lam + lam.conj() == -1
    assert sqrt_minus_11() ** 2 == -11
    assert sqrt_minus_11() == 1 + 2 * lam


def test_conjugation_fixes_norms():
    rng = random.Random(1)
    for _ in range(25):
        x = rand_cyclo(rng)
        y = rand_cyclo(rng)
        w = (x + y) * (x + y).conj()
        assert w.conj() == w
        assert w.is_real()


def test_field_inverse():
    rng = random.Random(2)
    for _ in range(20):
        x = rand_cyclo(rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        CycloNum.from_rational(0, 11).inverse()


def test_galois_is_ring_automorphism():
    rng = random.Random(3)
    for t in (2, 3, 7, 10):
        for _ in range(5):
            x = rand_cyclo(rng)
            y = rand_cyclo(rng)
            assert (x * y).galois(t) == x.galois(t) * y.galois(t)
            assert (x + y).galois(t) == x.galois(t) + y.galois(t)


def test_mixed_conductor_lift():
    z5 = CycloNum.zeta(5)
    z11 = CycloNum.zeta(11)
    w = z5 + z11
    assert w.n == 55
    assert (w - z11) == z5
    assert (w - z11 - z5) == 0
    with pytest.raises(ValueError):
        CycloNum.zeta(5) * CycloNum.zeta(33)  # lcm 165 beyond the cap


def test_canonical_form_and_hash():
    a = CycloNum.from_rational(Fraction(3, 2), 11)
    b = CycloNum.from_rational(Fraction(3, 2), 1)
    assert a == b
    assert hash(a) == hash(b)
    z5_in_55 = CycloNum.zeta(55, 11)
    assert z5_in_55 == CycloNum.zeta(5)
    assert hash(z5_in_55) == hash(CycloNum.zeta(5))


def test_hash_of_a_rational_is_its_hash_as_int_or_fraction():
    for n in (1, 5, 11, 55):
        for q in (0, 1, -3, 7, Fraction(3, 2), Fraction(-5, 11)):
            assert hash(CycloNum.from_rational(q, n)) == hash(q)
    assert len({CycloNum.from_rational(1, 11), 1}) == 1


def test_to_int_accepts_only_rational_integers():
    assert CycloNum.from_rational(-4, 11).to_int() == -4
    # the primitive fifth roots of unity sum to -1
    roots = sum((CycloNum.zeta(5, k) for k in range(1, 5)), CycloNum.from_rational(0, 5))
    assert roots.lift(55).to_int() == -1
    for x in (CycloNum.from_rational(Fraction(1, 2), 11), CycloNum.zeta(11)):
        with pytest.raises(ArithmeticError):
            x.to_int()


def test_quadint_ring():
    w = QuadInt(0, 1)
    assert w * w == QuadInt(-3, -1)  # w^2 = -w - 3
    q = QuadInt(2, 3)
    assert q.conj() == QuadInt(-1, -3)
    assert q * q.conj() == 4 - 6 + 27


def test_quadint_norm_multiplicative():
    rng = random.Random(4)
    for _ in range(1000):
        a = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9))
        b = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9))
        na, nb = a * a.conj(), b * b.conj()
        assert na.b == nb.b == 0  # the norm is a rational integer
        assert (a * b) * (a * b).conj() == na * nb
        assert na.a >= 0
        assert (na.a == 0) == a.is_zero()


def test_quadint_embedding():
    lam = lambda_embed()
    q = QuadInt(2, 3)
    assert q.to_cyclo() == 2 + 3 * lam
    assert QuadInt(0, 1).to_cyclo().conj() == QuadInt(0, 1).conj().to_cyclo()


def test_quadint_wedge2_character_value():
    # (w^2 - conj(w)) / 2 = -1, the wedge-square character on the order-11
    # classes, computed purely in the quadratic order
    w = QuadInt(0, 1)
    diff = w * w - w.conj()
    assert diff == QuadInt(-2, 0)
