import random

import pytest

from kleinepw import fixtures, linalg
from kleinepw import hermitian as herm
from kleinepw.cyclo import QuadInt


def diag(entries):
    n = len(entries)
    return tuple(
        tuple(QuadInt(entries[i] if i == j else 0) for j in range(n)) for i in range(n)
    )


def test_hprime_entries():
    h = fixtures.hprime_matrix()
    assert h[0][0] == QuadInt(3)
    assert h[0][1] == QuadInt(2, 1)  # 1 - conj(w)
    assert linalg.is_hermitian(h)


def test_cached_fixture_matrices_are_read_only():
    for matrix in (fixtures.hprime_matrix(), fixtures.mat10_matrix()):
        with pytest.raises(TypeError):
            matrix[0][0] = QuadInt(0)
        with pytest.raises(TypeError):
            matrix[0] = matrix[1]


def test_hprime_unimodular_positive():
    h = fixtures.hprime_matrix()
    assert herm.herm_det(h) == 1
    assert herm.is_positive_definite(h)
    assert herm.leading_minor_values(h)[0] == 3


def test_ring_det_agrees_with_field_det():
    rng = random.Random(0)
    for _ in range(10):
        m = [[QuadInt(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(4)] for _ in range(4)]
        # hermitize
        h = [[None] * 4 for _ in range(4)]
        for i in range(4):
            h[i][i] = QuadInt(rng.randint(-3, 3))
            for j in range(i):
                h[i][j] = m[i][j]
                h[j][i] = m[i][j].conj()
        try:
            value = herm.herm_det(tuple(map(tuple, h)))
        except ArithmeticError:
            continue
        assert linalg.expansion_det(h, QuadInt(1)) == QuadInt(value)


def test_positive_definite_counterexample():
    assert not herm.is_positive_definite(diag([1, -1]))
    assert herm.is_positive_definite(diag([1, 1, 1]))


def test_induced_form_entries_and_fixture():
    h = fixtures.hprime_matrix()
    w = herm.induced_wedge2(h)
    assert w[0][0] == QuadInt(4)  # 3*3 - (1-conj w)(1-w) = 9 - 5
    assert w[0][1] == QuadInt(0, 2)  # 2w
    ok, witness = herm.matches_mat10(w)
    assert ok, witness
    assert linalg.is_hermitian(w)
    assert herm.herm_det(w) == 1
    assert herm.is_positive_definite(w)


def test_induced_form_identity():
    ident = diag([1] * 5)
    assert herm.induced_wedge2(ident) == diag([1] * 10)


def test_induced_form_diagonal_oracle():
    rng = random.Random(1)
    for _ in range(3):
        ds = [rng.randint(1, 5) for _ in range(5)]
        w = herm.induced_wedge2(diag(ds))
        expect = 1
        for i in range(5):
            for j in range(i + 1, 5):
                expect *= ds[i] * ds[j]
        assert herm.herm_det(w) == expect


def test_polarization_invariants():
    assert herm.polarization_invariants(diag([1] * 10)) == herm.binomial_invariants(10)
    assert herm.polarization_invariants(diag([2] + [1] * 9))[0] == 2
    w = herm.induced_wedge2(fixtures.hprime_matrix())
    inv = herm.polarization_invariants(w)
    assert inv[0] == 1  # principal
    assert inv[-1] == 1
    with pytest.raises(ValueError):
        herm.polarization_invariants(diag([1, -1]))


def test_leading_minors_stop_at_the_first_zero():
    assert herm.leading_minor_values(diag([1, 0, 1])) == [1, 0]
    assert not herm.is_positive_definite(diag([1, 0, 1]))
    swap = ((QuadInt(0), QuadInt(1)), (QuadInt(1), QuadInt(0)))
    assert herm.leading_minor_values(swap) == [0]
    assert herm.leading_minor_values(fixtures.mat10_matrix())[-1] == 1


def test_route_disagreements_raise(monkeypatch):
    w = herm.induced_wedge2(fixtures.hprime_matrix())
    embed, char_poly = herm._embed, herm._char_poly

    def skewed_embed(m):
        out = embed(m)
        out[-1][-1] = out[-1][-1] + 1
        return out

    def skewed_char_poly(m):
        return [c + 1 if j == 0 else c for j, c in enumerate(char_poly(m))]

    with monkeypatch.context() as patch:
        patch.setattr(herm, "_embed", skewed_embed)
        with pytest.raises(ArithmeticError, match="leading minors disagree"):
            herm.leading_minor_values(w)
    with monkeypatch.context() as patch:
        patch.setattr(herm, "_char_poly", skewed_char_poly)
        with pytest.raises(ArithmeticError, match="disagree on det"):
            herm.polarization_invariants(w)
    # a trace with a w-part: det(T - w) = T - w is not over Z
    with pytest.raises(ArithmeticError):
        herm._char_poly(((QuadInt(0, 1),),))
