"""Frozen reference data for the verification suite.

Every block below is an independently transcribed copy of a published
formula or table; the point of the package is to recompute each object
from first principles and compare against these transcriptions, so the
fixtures must never be generated by the code they check.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import CycloNum, QuadInt
from .textform import parse_polynomial

# ---------------------------------------------------------------------------
# The invariant sextic: canonical equation of the degree-6 hypersurface in
# P^5 fixed by the order-660 group action (37 monomials, coordinates
# x0..x5, coefficient of x0^6 normalized to +1).
# ---------------------------------------------------------------------------

SEXTIC_TEXT = (
    "x0^6"
    " + 2*x0^3*x1*x3^2 + 2*x0^3*x2*x4^2 + 2*x0^3*x3*x5^2 + 2*x0^3*x4*x1^2 + 2*x0^3*x5*x2^2"
    " - 4*x0*x1^3*x2^2 - 4*x0*x2^3*x3^2 - 4*x0*x3^3*x4^2 - 4*x0*x4^3*x5^2 - 4*x0*x5^3*x1^2"
    " + 4*x0*x1*x3*x4^3 + 4*x0*x2*x4*x5^3 + 4*x0*x3*x5*x1^3 + 4*x0*x4*x1*x2^3 + 4*x0*x5*x2*x3^3"
    " - 12*x0*x1*x2*x3*x4*x5"
    " + x1^2*x3^4 + x2^2*x4^4 + x3^2*x5^4 + x4^2*x1^4 + x5^2*x2^4"
    " - 4*x1*x4*x5^4 - 4*x2*x5*x1^4 - 4*x3*x1*x2^4 - 4*x4*x2*x3^4 - 4*x5*x3*x4^4"
    " - 2*x1*x3^3*x5^2 - 2*x2*x4^3*x1^2 - 2*x3*x5^3*x2^2 - 2*x4*x1^3*x3^2 - 2*x5*x2^3*x4^2"
    " + 6*x1*x2*x3^2*x4^2 + 6*x2*x3*x4^2*x5^2 + 6*x3*x4*x5^2*x1^2 + 6*x4*x5*x1^2*x2^2 + 6*x5*x1*x2^2*x3^2"
)

SEXTIC_TERM_COUNT = 37


@lru_cache(maxsize=None)
def sextic_poly():
    return parse_polynomial(SEXTIC_TEXT, 6)


# ---------------------------------------------------------------------------
# Chart matrix: on the affine chart x0 = 1 the sextic is the determinant of
# this 10 x 10 matrix over Z[x1..x5], written in the basis
# (e12, e13, e14, e15, e23, e24, e25, e34, e35, e45) of the 2-vectors.
# ---------------------------------------------------------------------------

CHART_MATRIX_TEXT = [
    ["-1", "0", "0", "0", "0", "x5", "-x4", "0", "0", "x2"],
    ["0", "-1", "0", "0", "0", "0", "0", "-x5", "x4", "-x3"],
    ["x3", "-x2", "-1", "0", "x1", "0", "0", "0", "0", "0"],
    ["0", "-x4", "x3", "-1", "0", "0", "0", "-x1", "0", "0"],
    ["0", "x5", "0", "-x3", "-1", "0", "0", "0", "x1", "0"],
    ["0", "0", "-x5", "x4", "0", "-1", "0", "0", "0", "-x1"],
    ["0", "0", "0", "0", "x4", "-x3", "-1", "x2", "0", "0"],
    ["x4", "0", "-x2", "0", "0", "x1", "0", "-1", "0", "0"],
    ["-x5", "0", "0", "x2", "0", "0", "-x1", "0", "-1", "0"],
    ["0", "0", "0", "0", "x5", "0", "-x3", "0", "x2", "-1"],
]

_CHART_VARS = ["x1", "x2", "x3", "x4", "x5"]


@lru_cache(maxsize=None)
def chart_matrix():
    return [
        [parse_polynomial(s, _CHART_VARS) for s in row] for row in CHART_MATRIX_TEXT
    ]


# ---------------------------------------------------------------------------
# The invariant quadric on the 10-dimensional space of 2-vectors, in the
# pair coordinates x12, ..., x45 (same basis order as above).
# ---------------------------------------------------------------------------

PAIR_VARS = ["x12", "x13", "x14", "x15", "x23", "x24", "x25", "x34", "x35", "x45"]

QUADRIC_TEXT = "x12*x13 + x23*x24 + x34*x35 - x45*x14 + x15*x25"


@lru_cache(maxsize=None)
def invariant_quadric():
    return parse_polynomial(QUADRIC_TEXT, PAIR_VARS)


# ---------------------------------------------------------------------------
# Expected character data for the order-660 matrix group: eight classes,
# listed as (label, element order, class size), and the four rows that are
# pinned exactly.  The symbol L denotes the conductor-11 quadratic
# irrationality z + z^3 + z^4 + z^5 + z^9 with L^2 + L + 3 = 0, and Lbar
# its conjugate.
# ---------------------------------------------------------------------------

CLASS_DATA = [
    ("1", 1, 1),
    ("c", 11, 60),
    ("c2", 11, 60),
    ("a", 5, 132),
    ("a2", 5, 132),
    ("b", 6, 110),
    ("b2", 3, 110),
    ("b3", 2, 55),
]

CHARACTER_ROWS_TEXT = {
    "chi0": ["1", "1", "1", "1", "1", "1", "1", "1"],
    "xi": ["5", "L", "Lbar", "0", "0", "1", "-1", "1"],
    "xi_dual": ["5", "Lbar", "L", "0", "0", "1", "-1", "1"],
    "wedge2_xi": ["10", "-1", "-1", "0", "0", "1", "1", "-2"],
}

SURFACE_FIXED_COUNTS = {11: 5, 5: 2, 6: 3, 3: 3}
SEXTIC_FIXED_COUNTS = {11: 5, 5: 8, 6: 7, 3: 15}


def _lambda_value():
    vec = [0] * 10
    for k in (1, 3, 4, 5, 9):
        vec[k] = 1
    return CycloNum(11, vec, 1)


@lru_cache(maxsize=None)
def character_rows():
    lam = _lambda_value()
    env = {"L": lam, "Lbar": lam.conj()}
    out = {}
    for name, row in CHARACTER_ROWS_TEXT.items():
        vals = []
        for s in row:
            if s in env:
                vals.append(env[s])
            elif s.startswith("-") and s[1:] in env:
                vals.append(-env[s[1:]])
            else:
                vals.append(CycloNum.from_rational(int(s), 11))
        out[name] = vals
    return out


# ---------------------------------------------------------------------------
# Binary sextic obtained by restricting the invariant sextic to the line
# through [1:0:0:0:0:0] and [0:1:1:1:1:1] (coordinates s, t).
# ---------------------------------------------------------------------------

ORDER5_LINE_TEXT = "s^6 + 10*s^3*t^3 - 12*s*t^5 + 5*t^6"


@lru_cache(maxsize=None)
def order5_line_poly():
    return parse_polynomial(ORDER5_LINE_TEXT, ["s", "t"])


# ---------------------------------------------------------------------------
# Hermitian data over the order Z[L], L^2 = -L - 3: the rank-5 positive
# definite unimodular Gram matrix with an order-11 symmetry, and the
# rank-10 Gram matrix induced on the wedge square in the basis
# (e12, e13, e14, e15, e23, e24, e25, e34, e35, e45).
# ---------------------------------------------------------------------------

HPRIME_TEXT = [
    ["3", "1 - Lbar", "-L", "1", "-Lbar"],
    ["1 - L", "3", "-1", "-L", "1"],
    ["-Lbar", "-1", "3", "L", "-1 + L"],
    ["1", "-Lbar", "Lbar", "3", "1 - Lbar"],
    ["-L", "1", "-1 + Lbar", "1 - L", "3"],
]

MAT10_TEXT = [
    ["4", "2*L", "-1 - 2*L", "-1 - L", "-2 + 2*L", "-L", "-1 - 2*L", "-2 - L", "1", "-2"],
    ["2*Lbar", "6", "-1 + 2*L", "-1 + 2*L", "6 + 2*L", "-2 + L", "-4 + L", "L", "-L", "2 + L"],
    ["-1 - 2*Lbar", "-1 + 2*Lbar", "8", "5 + 2*L", "-2 - 2*L", "5 + 2*L", "3 + 2*L", "1 - 2*L", "1", "-1 - 2*L"],
    ["-1 - Lbar", "-1 + 2*Lbar", "5 + 2*Lbar", "6", "-1 - 2*L", "4", "5 + 2*L", "-1 - L", "-1 - L", "-1 - L"],
    ["-2 + 2*Lbar", "6 + 2*Lbar", "-2 - 2*Lbar", "-1 - 2*Lbar", "8", "2*L", "-2 + 3*L", "2*L", "-2 - L", "3 + L"],
    ["-Lbar", "-2 + Lbar", "5 + 2*Lbar", "4", "2*Lbar", "6", "5 + 2*L", "0", "-1", "-L"],
    ["-1 - 2*Lbar", "-4 + Lbar", "3 + 2*Lbar", "5 + 2*Lbar", "-2 + 3*Lbar", "5 + 2*Lbar", "8", "2", "-1 + L", "-1 - 2*L"],
    ["-2 - Lbar", "Lbar", "1 - 2*Lbar", "-1 - Lbar", "2*Lbar", "0", "2", "6", "2 + 2*L", "-2*L"],
    ["1", "-Lbar", "1", "-1 - Lbar", "-2 - Lbar", "-1", "-1 + Lbar", "2 + 2*Lbar", "4", "-2"],
    ["-2", "2 + Lbar", "-1 - 2*Lbar", "-1 - Lbar", "3 + Lbar", "-Lbar", "-1 - 2*Lbar", "-2*Lbar", "-2", "4"],
]


# the monomials of a Hermitian entry: 1, L and Lbar = -1 - L
_QUADINT_MONOMIALS = {(0, 0): QuadInt(1), (1, 0): QuadInt(0, 1), (0, 1): QuadInt(-1, -1)}


def _parse_quadint(s):
    terms = parse_polynomial(s, ["L", "Lbar"]).terms
    if not terms.keys() <= _QUADINT_MONOMIALS.keys():
        raise ValueError(f"fixture entry not linear in L: {s}")
    return sum((int(c) * _QUADINT_MONOMIALS[e] for e, c in terms.items()), QuadInt(0))


def _parse_quadint_matrix(rows):
    """The matrix as a tuple of tuples of QuadInt: the cached fixtures are
    shared by every caller, so they cannot be written into."""
    return tuple(tuple(map(_parse_quadint, row)) for row in rows)


@lru_cache(maxsize=None)
def hprime_matrix():
    return _parse_quadint_matrix(HPRIME_TEXT)


@lru_cache(maxsize=None)
def mat10_matrix():
    return _parse_quadint_matrix(MAT10_TEXT)
