"""Hermitian lattices over the order Z[w], w^2 = -w - 3.

The rank-5 positive definite unimodular Hermitian form with an order-11
symmetry is fixed as a transcription; the package recomputes the form it
induces on the wedge square (rank 10), its 2 x 2 minors taken by
linalg.exterior_power_matrix, compares entrywise against the
transcribed rank-10 matrix, and reads off polarization invariants from
characteristic polynomials.

Determinants over the order are computed two ways: the division-free
subset expansion linalg.expansion_det over the ring itself, and Gaussian
elimination after embedding into the conductor-11 cyclotomic field, read
back as an integer by CycloNum.to_int.  The Hermitian test is
linalg.is_hermitian.
"""

from __future__ import annotations

from math import comb

from . import fixtures, linalg
from .cyclo import QuadInt


def _embed(m):
    return [[e.to_cyclo() for e in row] for row in m]


def herm_det(m) -> int:
    """Exact determinant of a Hermitian matrix; must be a rational integer.

    Computed over the cyclotomic embedding and cross-checked against the
    division-free ring determinant."""
    value = linalg.det(_embed(m)).to_int()
    if linalg.expansion_det(m, QuadInt(1)) != QuadInt(value):
        raise ArithmeticError("ring and field determinants disagree")
    return value


def leading_minor_values(m):
    """Determinants of the leading principal submatrices, as integers."""
    out = []
    for k in range(1, len(m) + 1):
        sub = [row[:k] for row in m[:k]]
        out.append(herm_det(sub))
    return out


def is_positive_definite(m) -> bool:
    """All leading principal minors strictly positive (exact integers)."""
    if not linalg.is_hermitian(m):
        raise ValueError("positive definiteness is for Hermitian matrices")
    return all(v > 0 for v in leading_minor_values(m))


def induced_wedge2(m):
    """The rank-10 Hermitian form induced on the wedge square:
    H(x1^x2, x3^x4) = H'(x1,x3) H'(x2,x4) - H'(x1,x4) H'(x2,x3), the 2 x 2
    minors of H', in the basis (e12, e13, e14, e15, e23, e24, e25, e34,
    e35, e45)."""
    return tuple(tuple(row) for row in linalg.exterior_power_matrix(m, 2))


def matches_mat10(computed):
    """Entrywise comparison with the transcribed rank-10 matrix; returns
    (True, None) or (False, (i, j, computed, expected))."""
    expected = fixtures.mat10_matrix()
    for i in range(10):
        for j in range(10):
            if computed[i][j] != expected[i][j]:
                return False, (i, j, computed[i][j], expected[i][j])
    return True, None


def polarization_invariants(m):
    """Intersection-number invariants read off the characteristic
    polynomial: entry j is the coefficient pattern value for T^j with the
    alternating-sign convention, so entry n is 1 and entry 0 is det(m)."""
    if not is_positive_definite(m):
        raise ValueError("polarization invariants need a positive definite matrix")
    n = len(m)
    cp = linalg.char_poly(_embed(m))
    # the leading coefficient is the int 1: char_poly is monic
    return [(-1) ** (n - j) * c.to_int() for j, c in enumerate(cp[:n])] + [1]


def binomial_invariants(n):
    return [comb(n, j) for j in range(n + 1)]
