"""Exterior algebra on a 6-space, the invariant Lagrangian, and the sextic.

Coordinates on the 20-dimensional space of trivectors are indexed by the
lexicographically ordered triples 0 <= i < j < k <= 5 (basis e_ijk); this
order is fixed once, globally.  The rank-10 Lagrangian is the graph of a
signed-permutation isomorphism v from 2-vectors to 3-vectors on the last
five coordinates, and the sextic hypersurface is recovered from it in two
independent ways: fraction-free elimination over the polynomial ring, and
evaluation at an integer grid followed by exact interpolation.

All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd as _gcd

from . import fixtures, linalg
from .cyclo import CycloNum
from .poly import MultiPoly, Poly1

TRIPLES6 = tuple(combinations(range(6), 3))
PAIRS6 = tuple(combinations(range(6), 2))
PAIRS5 = tuple(combinations(range(1, 6), 2))
TRIPLES5 = tuple(combinations(range(1, 6), 3))

TRIPLE_INDEX = {t: i for i, t in enumerate(TRIPLES6)}
PAIR5_INDEX = {p: i for i, p in enumerate(PAIRS5)}
TRIPLE5_INDEX = {t: i for i, t in enumerate(TRIPLES5)}


def merge_indices(a, b):
    """(sign, sorted tuple) for e_a ^ e_b, or (0, None) on a repeat."""
    if set(a) & set(b):
        return 0, None
    joined = list(a) + list(b)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(joined)):
        j = i
        while j > 0 and joined[j - 1] > joined[j]:
            joined[j - 1], joined[j] = joined[j], joined[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(joined)


# ---------------------------------------------------------------------------
# v and the Lagrangian
# ---------------------------------------------------------------------------

# signed bijection pairs -> triples on indices 1..5
_V_ASSIGNMENTS = {
    (1, 2): (1, (2, 4, 5)),
    (2, 3): (1, (1, 3, 5)),
    (3, 4): (1, (1, 2, 4)),
    (4, 5): (1, (2, 3, 5)),
    (1, 5): (-1, (1, 3, 4)),
    (1, 3): (-1, (3, 4, 5)),
    (2, 4): (-1, (1, 4, 5)),
    (3, 5): (-1, (1, 2, 5)),
    (1, 4): (1, (1, 2, 3)),
    (2, 5): (1, (2, 3, 4)),
}


def build_v():
    """10 x 10 signed-permutation matrix of the isomorphism from
    2-vectors to 3-vectors (rows: triples, columns: pairs, on 1..5)."""
    m = [[0] * 10 for _ in range(10)]
    for pair, (sign, triple) in _V_ASSIGNMENTS.items():
        m[TRIPLE5_INDEX[triple]][PAIR5_INDEX[pair]] = sign
    return m


@lru_cache(maxsize=None)
def _v_maps():
    forward = {}
    inverse = {}
    for pair, (sign, triple) in _V_ASSIGNMENTS.items():
        forward[pair] = (sign, triple)
        inverse[triple] = (sign, pair)
    return forward, inverse


def build_A():
    """10 x 20 integer basis matrix of the Lagrangian: row for each pair p
    is e_{0,p} + v(e_p), entries in {-1, 0, 1}."""
    rows = []
    for pair in PAIRS5:
        row = [0] * 20
        row[TRIPLE_INDEX[(0,) + pair]] = 1
        sign, triple = _V_ASSIGNMENTS[pair]
        row[TRIPLE_INDEX[triple]] = sign
        rows.append(row)
    return rows


def wedge_pairing(t1, t2):
    """Coefficient of e_012345 in t1 ^ t2 for 20-vectors of trivector
    coordinates; antisymmetric."""
    total = None
    for i, tri in enumerate(TRIPLES6):
        x = t1[i]
        if not x:
            continue
        comp = tuple(k for k in range(6) if k not in tri)
        sign, _ = merge_indices(tri, comp)
        y = t2[TRIPLE_INDEX[comp]]
        if not y:
            continue
        term = x * y * sign
        total = term if total is None else total + term
    if total is None:
        total = t1[0] * t2[0] * 0
    return total


def basis_trivector(triple, one=1):
    row = [0] * 20
    row[TRIPLE_INDEX[tuple(triple)]] = one
    return row


def wedge_vector_pair(x, pair):
    """Coordinates of x ^ e_pair (x a 6-vector, pair from PAIRS6)."""
    out = [0] * 20
    for i, c in enumerate(x):
        if not c:
            continue
        sign, tri = merge_indices((i,), pair)
        if sign:
            out[TRIPLE_INDEX[tri]] = c * sign
    return out


def _minor(m, rows, cols):
    k = len(rows)
    if k == 1:
        return m[rows[0]][cols[0]]
    if k == 2:
        (r0, r1), (c0, c1) = rows, cols
        return m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]
    if k == 3:
        (r0, r1, r2), (c0, c1, c2) = rows, cols
        return (
            m[r0][c0] * (m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1])
            - m[r0][c1] * (m[r1][c0] * m[r2][c2] - m[r1][c2] * m[r2][c0])
            + m[r0][c2] * (m[r1][c0] * m[r2][c1] - m[r1][c1] * m[r2][c0])
        )
    return linalg.det([[m[r][c] for c in cols] for r in rows])


def exterior_power_matrix(m, k):
    """Matrix of the induced map on the k-th exterior power; bases are the
    lexicographically ordered k-subsets.  Entry (I, J) is the (I, J) minor."""
    n = len(m)
    subsets = tuple(combinations(range(n), k))
    return [[_minor(m, rows, cols) for cols in subsets] for rows in subsets]


def v6_action(g5):
    """Extend a 5 x 5 matrix to 6 x 6 acting trivially on coordinate 0."""
    zero = g5[0][0] * 0
    one = zero + 1
    out = [[one] + [zero] * 5]
    for row in g5:
        out.append([zero] + list(row))
    return out


# ---------------------------------------------------------------------------
# field coercion helpers
# ---------------------------------------------------------------------------


def _common_field(rows):
    """Lift a mixed int/Fraction/CycloNum matrix to one coefficient field."""
    conductor = 1
    has_cyclo = False
    for row in rows:
        for x in row:
            if isinstance(x, CycloNum):
                has_cyclo = True
                conductor = conductor * x.n // _gcd(conductor, x.n)
    if not has_cyclo:
        return [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
    out = []
    for row in rows:
        new = []
        for x in row:
            if isinstance(x, CycloNum):
                new.append(x.lift(conductor))
            else:
                new.append(CycloNum.from_rational(x, conductor))
        out.append(new)
    return out


def span_rank(rows):
    return linalg.rank(_common_field([list(r) for r in rows]))


# ---------------------------------------------------------------------------
# strata and GM dimensions
# ---------------------------------------------------------------------------


def stratum(a_rows, x):
    """Intersection dimension at a point: dim of the Lagrangian meeting
    x ^ (2-vectors), computed from ranks.  Rejects the zero vector."""
    if not any(x):
        raise ValueError("zero vector has no stratum")
    wedge_rows = [wedge_vector_pair(x, p) for p in PAIRS6]
    w_rank = span_rank(wedge_rows)
    total = span_rank([list(r) for r in a_rows] + wedge_rows)
    return len(a_rows) + w_rank - total


def trivector_subspace_intersection(a_rows, w_rows):
    ra = span_rank(a_rows)
    rw = span_rank(w_rows)
    return ra + rw - span_rank(list(a_rows) + list(w_rows))


def gm_dimension(a_rows, covector):
    """5 - dim(A meet wedge3 of the hyperplane ker(covector))."""
    if not any(covector):
        raise ValueError("zero covector")
    kernel_cols = linalg.kernel_basis([list(covector)])
    ncols = len(kernel_cols[0])
    basis = [[kernel_cols[i][j] for i in range(6)] for j in range(ncols)]
    w_rows = []
    for tri in combinations(range(len(basis)), 3):
        vec = _wedge3_of_vectors(basis[tri[0]], basis[tri[1]], basis[tri[2]])
        w_rows.append(vec)
    return 5 - trivector_subspace_intersection(a_rows, w_rows)


def _wedge3_of_vectors(u, v, w):
    out = [0] * 20
    mat = [u, v, w]
    for idx, tri in enumerate(TRIPLES6):
        sub = [[mat[r][c] for c in tri] for r in range(3)]
        out[idx] = linalg.det(sub)
    return out


# ---------------------------------------------------------------------------
# self-duality
# ---------------------------------------------------------------------------


def _dual_flip(row):
    """Image of a trivector row under the map negating coordinate 0 of the
    6-space and dualizing the basis."""
    return [(-c if 0 in tri else c) for c, tri in zip(row, TRIPLES6)]


def self_duality_check(a_rows):
    """True iff the induced map carries the row span onto the annihilator
    of the row span under the dual pairing."""
    flipped = [_dual_flip(r) for r in a_rows]
    # direct pairing test: every flipped row must annihilate every row
    for f in flipped:
        for r in a_rows:
            acc = sum(x * y for x, y in zip(f, r))
            if acc != 0:
                return _self_duality_by_annihilator(a_rows)
    # spans have equal dimension, so containment in the annihilator is
    # equality whenever the row span has full rank 10
    return span_rank(a_rows) == 10


def _self_duality_by_annihilator(a_rows):
    ann_cols = linalg.kernel_basis([list(r) for r in a_rows])
    k = len(ann_cols[0]) if ann_cols else 0
    ann_rows = [[ann_cols[i][j] for i in range(20)] for j in range(k)]
    flipped = [_dual_flip(r) for r in a_rows]
    return (
        span_rank(ann_rows) == span_rank(flipped)
        and span_rank(ann_rows + flipped) == span_rank(ann_rows)
    )


def self_duality_oracle(a_rows):
    """Independent annihilator-comparison route (kernel based)."""
    return _self_duality_by_annihilator(a_rows)


def random_lagrangian(rng, steps=6):
    """Random Lagrangian: image of the coordinate Lagrangian spanned by the
    e_0jk under random integer symplectic transvections t_v(x) = x + w(x,v) v."""
    rows = [basis_trivector((0,) + p) for p in PAIRS5]
    for _ in range(steps):
        v = [rng.randint(-1, 1) for _ in range(20)]
        if not any(v):
            continue
        rows = [
            [x + wedge_pairing(r, v) * y for x, y in zip(r, v)] for r in rows
        ]
    return rows


def is_lagrangian(rows):
    if span_rank(rows) != len(rows):
        return False
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            if wedge_pairing(rows[i], rows[j]) != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# the sextic: two independent determinant routes
# ---------------------------------------------------------------------------


class TransversalityError(ValueError):
    """The chart construction needs the Lagrangian transverse to the
    3-vectors on coordinates 1..5."""


def chart_matrix_derived():
    """10 x 10 matrix over Z[x1..x5] whose determinant cuts out the sextic
    on the affine chart x0 = 1, derived from the graph map (not transcribed)."""
    _, vinv = _v_maps()
    cols = []
    for J in PAIRS5:
        col = {}
        col[PAIR5_INDEX[J]] = MultiPoly.const(5, -1)
        for k in range(1, 6):
            sign, tri = merge_indices((k,), J)
            if not sign:
                continue
            vsign, pair = vinv[tri]
            idx = PAIR5_INDEX[pair]
            term = MultiPoly.var(k - 1, 5, sign * vsign)
            col[idx] = col.get(idx, MultiPoly.zero(5)) + term
        cols.append(col)
    return [
        [cols[j].get(i, MultiPoly.zero(5)) for j in range(10)] for i in range(10)
    ]


def poly_det_bareiss(m):
    """Fraction-free determinant of a square MultiPoly matrix over Z; all
    intermediate divisions are exact."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = None
    for k in range(n - 1):
        if a[k][k].is_zero():
            p = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if p is None:
                return MultiPoly.zero(a[0][0].nvars)
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = piv * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev) if prev is not None else num
            a[i][k] = MultiPoly.zero(piv.nvars)
        prev = piv
    result = a[n - 1][n - 1]
    return -result if sign < 0 else result


def _chart_matrix_for(a_rows):
    """Chart matrix for a general Lagrangian with invertible e0-block."""
    e0_cols = [TRIPLE_INDEX[(0,) + p] for p in PAIRS5]
    xi_cols = [TRIPLE_INDEX[t] for t in TRIPLES5]
    B = [[Fraction(r[c]) for c in e0_cols] for r in a_rows]
    C = [[Fraction(r[c]) for c in xi_cols] for r in a_rows]
    det_b = linalg.det(B)
    if det_b == 0:
        raise TransversalityError("Lagrangian meets the 3-vectors on 1..5")
    # modulo the Lagrangian:  e0 ^ e_J  =  -sum_r alpha_r * (xi-part of row r)
    # where  B^T alpha = unit_J
    bt = linalg.transpose(B)
    image_cols = []
    for j in range(10):
        rhs = [Fraction(int(i == j)) for i in range(10)]
        alpha = linalg.solve(bt, rhs)
        if alpha is None:
            raise ArithmeticError("B^T alpha = e_J has no solution")
        col = [-sum(alpha[r] * C[r][t] for r in range(10)) for t in range(10)]
        image_cols.append(col)
    # full map on the chart: e_J -> (image of e0 ^ e_J) + (sum x_k e_k) ^ e_J
    out = [[MultiPoly.const(5, 0) for _ in range(10)] for _ in range(10)]
    for j, J in enumerate(PAIRS5):
        for t in range(10):
            c = image_cols[j][t]
            if c:
                out[t][j] = out[t][j] + MultiPoly.const(5, c)
        for k in range(1, 6):
            sign, tri = merge_indices((k,), J)
            if not sign:
                continue
            out[TRIPLE5_INDEX[tri]][j] = out[TRIPLE5_INDEX[tri]][j] + MultiPoly.var(
                k - 1, 5, sign
            )
    return out


def sextic_equation(a_rows=None):
    """Homogeneous degree-6 polynomial in x0..x5 cutting out the locus where
    the Lagrangian meets x ^ (2-vectors); for the canonical Lagrangian the
    chart matrix is the derived one and the x0^6 coefficient is +1."""
    if a_rows is None or a_rows == build_A():
        chart = chart_matrix_derived()
        det = poly_det_bareiss(chart)
    else:
        chart = _chart_matrix_for(a_rows)
        det = linalg.expansion_det(chart, MultiPoly.const(5, 1))
    if det.is_zero():
        raise TransversalityError("degenerate chart determinant")
    deg = det.total_degree()
    if deg > 6:
        raise TransversalityError("chart determinant exceeds degree 6")
    hom = det.homogenize(6, 0, degree=6)
    const = hom.coefficient((6, 0, 0, 0, 0, 0))
    if const:
        hom = hom.map_coefficients(lambda c: Fraction(c) / const)
        hom = hom.map_coefficients(
            lambda c: int(c) if Fraction(c).denominator == 1 else c
        )
    return hom


INTERPOLATION_NODES = (-3, -2, -1, 0, 1, 2, 3)


@lru_cache(maxsize=None)
def _inverse_vandermonde(nodes):
    n = len(nodes)
    v = [[Fraction(t) ** j for j in range(n)] for t in nodes]
    aug = [row[:] + [Fraction(int(i == k)) for k in range(n)] for i, row in enumerate(v)]
    red, piv = linalg.rref(aug)
    inv = [row[n:] for row in red]
    return inv


def sextic_via_interpolation(nodes=INTERPOLATION_NODES):
    """Independent route: evaluate the derived chart determinant at an
    integer grid and recover the coefficients by exact tensor-product
    interpolation (degree at most 6 in each variable)."""
    chart = chart_matrix_derived()
    # linear entries -> fast evaluation table: entry(i,j) = const + sum coeff*x
    entries = []
    for i in range(10):
        for j in range(10):
            terms = chart[i][j].terms
            const = terms.get((0, 0, 0, 0, 0), 0)
            lin = [0] * 5
            for e, c in terms.items():
                if sum(e) == 1:
                    lin[e.index(1)] = c
            entries.append((i, j, const, lin))
    npts = len(nodes)
    values = {}
    for point in product(range(npts), repeat=5):
        xs = [nodes[i] for i in point]
        m = [[0] * 10 for _ in range(10)]
        for i, j, const, lin in entries:
            m[i][j] = const + sum(c * x for c, x in zip(lin, xs) if c)
        values[point] = linalg._det_bareiss(m)
    inv = _inverse_vandermonde(tuple(nodes))
    # peel one axis at a time: values indexed by (exponents..., node indices...)
    for axis in range(5):
        # group over the chosen axis
        grouped = {}
        for key, val in values.items():
            rest = key[:axis] + key[axis + 1 :]
            grouped.setdefault(rest, [0] * npts)[key[axis]] = val
        new = {}
        for rest, vec in grouped.items():
            for exp in range(npts):
                coeff = sum(inv[exp][i] * vec[i] for i in range(npts))
                if coeff:
                    new[rest[:axis] + (exp,) + rest[axis:]] = coeff
        values = new
    poly = MultiPoly(5)
    for e, c in values.items():
        if Fraction(c).denominator != 1:
            raise ArithmeticError("non-integer interpolated coefficient")
        poly.terms[e] = int(Fraction(c))
    if poly.total_degree() > 6:
        raise ArithmeticError("interpolated sextic has degree above 6")
    return poly.homogenize(6, 0, degree=6)


# ---------------------------------------------------------------------------
# lines, restrictions, fixed loci
# ---------------------------------------------------------------------------


def restrict_to_line(f, p, q):
    """Binary form g(s, t) = f(s p + t q); rejects dependent points."""
    if span_rank([list(p), list(q)]) != 2:
        raise ValueError("line needs two independent points")
    images = []
    for i in range(f.nvars):
        img = MultiPoly(2)
        if p[i]:
            img = img + MultiPoly.var(0, 2, p[i])
        if q[i]:
            img = img + MultiPoly.var(1, 2, q[i])
        images.append(img)
    return f.substitute(images)


def binary_form_to_poly1(g, degree=None):
    """Dehomogenize g(s, t) at s = u, t = 1; returns (Poly1 in u,
    multiplicity of the root at infinity [1:0])."""
    d = g.total_degree() if degree is None else degree
    coeffs = [0] * (d + 1)
    for (es, et), c in g.terms.items():
        coeffs[es] = Fraction(c) if isinstance(c, int) else c
    inf_mult = 0
    for k in range(d, -1, -1):
        if coeffs[k] == 0:
            inf_mult += 1
        else:
            break
    return Poly1(list(coeffs)), inf_mult


def root_of_unity(order, power=1):
    """Root of unity of the given order as a CycloNum over an odd conductor."""
    power %= order
    if order == 1:
        return CycloNum.from_rational(1)
    if order == 2:
        return CycloNum.from_rational(1 if power % 2 == 0 else -1)
    if order % 2 == 1:
        return CycloNum.zeta(order, power)
    half = order // 2
    if half % 2 == 1:
        # zeta_2m = -zeta_m^((m+1)/2) for odd m
        base = CycloNum.zeta(half, ((half + 1) // 2) * power % half)
        return base if power % 2 == 0 else -base
    raise ValueError(f"unsupported root order {order}")


def matrix_order(m, cap=70):
    ident = linalg.identity(len(m), m[0][0] * 0 + 1, m[0][0] * 0)
    acc = m
    for k in range(1, cap + 1):
        if linalg.mat_eq(acc, ident):
            return k
        acc = linalg.mat_mul(acc, m)
    raise ValueError("matrix order exceeds cap")


def fixed_locus(g6):
    """Eigen-decomposition of a finite-order 6 x 6 matrix: one subspace per
    eigenvalue actually occurring, over a cyclotomic field containing all
    candidate eigenvalues.  The projective fixed locus is the union of the
    projectivized eigenspaces."""
    g6 = _common_field(g6)
    n = matrix_order(g6)
    out = []
    for j in range(n):
        ev = root_of_unity(n, j)
        shifted = [[g6[i][k] - (ev if i == k else 0) for k in range(6)] for i in range(6)]
        shifted = _common_field(shifted)
        kb = linalg.kernel_basis(shifted)
        dim = len(kb[0]) if kb else 0
        if dim:
            out.append((ev, kb))
    if sum(len(kb[0]) for _, kb in out) != 6:
        raise ArithmeticError("lost eigenvalues")
    return out


# ---------------------------------------------------------------------------
# dual-representation rebuild
# ---------------------------------------------------------------------------


def dual_v():
    """The graph map rebuilt from the dual representation: the inverse
    transpose of v under the pairing-induced identifications.  For the
    signed permutation v this equals v itself, which is exactly why the
    dual route returns the same Lagrangian."""
    v = build_v()
    vt = [[v[j][i] for j in range(10)] for i in range(10)]
    # v is a signed permutation, so its inverse is its transpose
    vin = vt
    return [[vin[j][i] for j in range(10)] for i in range(10)]


def dual_rebuild_check(generators):
    """Verify the dual-route reconstruction: the rebuilt graph map
    intertwines the exterior powers of the dual action of every given
    5 x 5 generator, and its graph spans the same Lagrangian."""
    vd = dual_v()
    vdq = [[Fraction(x) for x in row] for row in vd]
    for g in generators:
        gl = [list(r) for r in g]
        inv = linalg.rref(
            [row + [Fraction(int(i == k)) for k in range(5)] for i, row in
             enumerate([[x for x in r] for r in gl])]
        )[0]
        ginv = [row[5:] for row in inv]
        gdual = [[ginv[j][i] for j in range(5)] for i in range(5)]
        w2 = exterior_power_matrix(gdual, 2)
        w3 = exterior_power_matrix(gdual, 3)
        lhs = linalg.mat_mul(vdq, w2)
        rhs = linalg.mat_mul(w3, vdq)
        if not linalg.mat_eq(lhs, rhs):
            return False
    rebuilt = []
    for col, pair in enumerate(PAIRS5):
        row = [0] * 20
        row[TRIPLE_INDEX[(0,) + pair]] = 1
        for t_i, tri in enumerate(TRIPLES5):
            if vd[t_i][col]:
                row[TRIPLE_INDEX[tri]] = vd[t_i][col]
        rebuilt.append(row)
    a_rows = build_A()
    return span_rank(a_rows + rebuilt) == 10


# ---------------------------------------------------------------------------
# fixed points on the sextic
# ---------------------------------------------------------------------------


def line_intersection_pattern(f, p, q):
    """Multiplicities of the distinct intersection points of the line
    through p and q with the hypersurface f = 0, as a sorted list; None if
    the line lies inside the hypersurface."""
    g = restrict_to_line(f, p, q)
    if g.is_zero():
        return None
    pol, inf_mult = binary_form_to_poly1(g, degree=6)
    from .poly import squarefree_decomposition

    pattern = []
    if pol.degree() > 0:
        for factor, mult in squarefree_decomposition(pol):
            pattern.extend([mult] * factor.degree())
    if inf_mult:
        pattern.append(inf_mult)
    return sorted(pattern)


def sextic_fixed_point_count(g6, a_rows=None, f=None):
    """Number of fixed points of the projective action lying on the sextic,
    when finite: eigen-point strata plus distinct line intersections.

    Returns (count, details); count is None when some fixed component
    meets the hypersurface in positive dimension (order-2 elements)."""
    if a_rows is None:
        a_rows = build_A()
    if f is None:
        f = fixtures.sextic_poly()
    count = 0
    details = []
    for ev, kb in fixed_locus(g6):
        dim = len(kb[0])
        if dim == 1:
            point = [kb[i][0] for i in range(6)]
            ell = stratum(a_rows, point)
            details.append(("point", ell))
            if ell >= 1:
                count += 1
        elif dim == 2:
            p = [kb[i][0] for i in range(6)]
            q = [kb[i][1] for i in range(6)]
            pattern = line_intersection_pattern(f, p, q)
            details.append(("line", pattern))
            if pattern is None:
                return None, details
            count += len(pattern)
        else:
            # a fixed linear space of projective dimension >= 2 meets the
            # hypersurface in positive dimension
            details.append(("space", dim))
            return None, details
    return count, details
