"""Hermitian lattices over the order Z[w], w^2 = -w - 3.

The rank-5 positive definite unimodular Hermitian form with an order-11
symmetry is fixed as a transcription; the package recomputes the form it
induces on the wedge square (rank 10), its 2 x 2 minors, by calling
linalg.exterior_power_matrix(m, 2), compares entrywise against the
transcribed rank-10 matrix, and reads off polarization invariants from
the characteristic polynomial, _char_poly (the package's one
Faddeev-LeVerrier).

Every exact integer here comes by two routes or more:

- herm_det: the division-free subset expansion linalg.expansion_det over
  the ring itself, and Gaussian elimination after embedding into the
  conductor-11 cyclotomic field, read back by CycloNum.to_int;
- leading_minor_values: linalg.leading_minors twice, one fraction-free
  elimination without row swaps over Z[w] (whose k-th pivot is d_k) and
  one Gaussian elimination without row swaps over the cyclotomic
  embedding (where d_k is the product of the first k pivots);
- polarization_invariants: Faddeev-LeVerrier on the integer pair
  (A0, A1), m = A0 + w A1, with plain integer matrix products; its
  constant term is det m, checked against the last leading minor, so a
  positive definite m's determinant has three routes.

The Hermitian test is linalg.is_hermitian.
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
    """Determinants of the leading principal submatrices, as integers, by
    two eliminations without row swaps (module docstring).  The list stops
    at the first zero minor, which it includes, because such an
    elimination cannot pass it: it is shorter than m when a minor before
    the last vanishes."""
    values = [d.to_int() for d in linalg.leading_minors(_embed(m))]
    if linalg.leading_minors(m) != [QuadInt(v) for v in values]:
        raise ArithmeticError("ring and field leading minors disagree")
    return values


def _positive_minors(m):
    """The leading minors of a Hermitian matrix when all are positive,
    else None."""
    if not linalg.is_hermitian(m):
        raise ValueError("positive definiteness is for Hermitian matrices")
    values = leading_minor_values(m)
    return values if all(v > 0 for v in values) else None


def is_positive_definite(m) -> bool:
    """All leading principal minors strictly positive (exact integers)."""
    return _positive_minors(m) is not None


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
    alternating-sign convention, so entry n is 1 and entry 0 is det(m),
    checked against the last leading minor."""
    minors = _positive_minors(m)
    if minors is None:
        raise ValueError("polarization invariants need a positive definite matrix")
    n = len(m)
    cp = _char_poly(m)
    inv = [(-1) ** (n - j) * c for j, c in enumerate(cp)] + [1]
    if inv[0] != minors[-1]:
        raise ArithmeticError("characteristic polynomial and leading minors disagree on det")
    return inv


def _char_poly(m):
    """The coefficients of T^0, ..., T^(n-1) in det(T I - m), monic of
    degree n, for a Hermitian m over Z[w], by the Faddeev-LeVerrier
    recurrence on the integer pair (A0, A1), m = A0 + w A1: with w^2 =
    -w - 3, m (B0 + w B1) = (A0 B0 - 3 A1 B1) + w (A0 B1 + A1 B0 - A1 B1).
    Each trace must be rational and each division by k exact;
    ArithmeticError otherwise."""
    n = len(m)
    a0 = [[e.a for e in row] for row in m]
    a1 = [[e.b for e in row] for row in m]
    b0, b1 = [row[:] for row in a0], [row[:] for row in a1]
    cs = []
    for k in range(1, n + 1):
        t0, t1 = sum(b0[i][i] for i in range(n)), sum(b1[i][i] for i in range(n))
        if t1 or t0 % k:
            raise ArithmeticError(f"trace {t0} + {t1}w is not a rational multiple of {k}")
        ck = -t0 // k
        cs.append(ck)
        if k < n:
            for i in range(n):
                b0[i][i] += ck
            p00, p11 = linalg.mat_mul(a0, b0), linalg.mat_mul(a1, b1)
            p01, p10 = linalg.mat_mul(a0, b1), linalg.mat_mul(a1, b0)
            b0 = [[x - 3 * y for x, y in zip(r00, r11)] for r00, r11 in zip(p00, p11)]
            b1 = [[x + y - z for x, y, z in zip(r01, r10, r11)]
                  for r01, r10, r11 in zip(p01, p10, p11)]
    # det(T I - m) = T^n + cs[0] T^(n-1) + ... + cs[n-1]
    return cs[::-1]


def binomial_invariants(n):
    return [comb(n, j) for j in range(n + 1)]
