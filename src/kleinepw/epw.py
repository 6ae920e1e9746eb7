"""Exterior algebra on a 6-space, the invariant Lagrangian, and the sextic.

Coordinates on the 20-dimensional space of trivectors are indexed by the
lexicographically ordered triples 0 <= i < j < k <= 5 (basis e_ijk); this
order is fixed once, globally.  The rank-10 Lagrangian is the graph of a
signed-permutation isomorphism v from 2-vectors to 3-vectors on the last
five coordinates (graph_rows builds it, for v and for the map rebuilt
from the dual representation), and the sextic hypersurface is recovered
from it in two independent ways: fraction-free elimination over the
polynomial ring, and evaluation at the 462 integer points of the
radius-6 simplex followed by exact Newton interpolation.  The radius is
certified, not assumed: the chart is -I + N(x) with N linear, N kills the
five vectors x ^ e_i, which have rank 4, so rank N <= 6 bounds the
determinant's degree.

The module holds no elimination of its own.  Ranks, determinants and
exterior powers go through linalg, which lifts mixed entries itself: its
fraction-free (Bareiss) kernel takes the rational matrices and the chart
matrices over Z[x1..x5] (through linalg.bareiss_det), its field kernel
the cyclotomic ones.  Both sextic routes certify the degree bound 6,
and sextic_equation also the x0^6 coefficient 1, raising ArithmeticError
when the determinant breaks them.  dual_rebuild_check also requires the
dual action to be the inverse transpose.

A stratum or a section dimension takes one rank.  The Lagrangian's basis
is brought to reduced echelon form once (rows scaled to integers when
rational), each row of the other subspace's basis is reduced against it
fraction-free, and the two meet in the sum of their lengths less the
Lagrangian's rank and the rank of the reduced rows on the free columns:
for A one 10 x 10 integer rank, not a 20-row one.  The module reads no
fixtures: callers pass the Lagrangian and the sextic.

All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, lcm
from operator import mul

from . import group, linalg
from .cyclo import CycloNum
from .poly import MultiPoly, linear_forms, squarefree_decomposition

TRIPLES6 = tuple(combinations(range(6), 3))
PAIRS6 = tuple(combinations(range(6), 2))
PAIRS5 = tuple(combinations(range(1, 6), 2))
TRIPLES5 = tuple(combinations(range(1, 6), 3))

TRIPLE_INDEX = {t: i for i, t in enumerate(TRIPLES6)}
PAIR5_INDEX = {p: i for i, p in enumerate(PAIRS5)}
TRIPLE5_INDEX = {t: i for i, t in enumerate(TRIPLES5)}


@lru_cache(maxsize=None)
def merge_indices(a, b):
    """(sign, sorted tuple) for e_a ^ e_b, or (0, None) on a repeat; a and
    b are tuples.  Memoized: the strata ask for the same few hundred
    merges many times over."""
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


def graph_rows(v):
    """The graph of a 10 x 10 map v from 2-vectors to 3-vectors on 1..5
    (rows: triples, columns: pairs, as in build_v): one 20-vector
    e_{0,p} + v(e_p) per pair p."""
    rows = []
    for col, pair in enumerate(PAIRS5):
        row = [0] * 20
        row[TRIPLE_INDEX[(0,) + pair]] = 1
        for triple, v_row in zip(TRIPLES5, v):
            row[TRIPLE_INDEX[triple]] = v_row[col]
        rows.append(row)
    return rows


def build_A():
    """10 x 20 integer basis matrix of the Lagrangian, the graph of v:
    entries in {-1, 0, 1}."""
    return graph_rows(build_v())


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


# the name under which the benchmark's wrapping test reads linalg.rank
span_rank = linalg.rank


# ---------------------------------------------------------------------------
# strata and GM dimensions
# ---------------------------------------------------------------------------


def stratum(a_rows, x):
    """Intersection dimension at a point: dim of the Lagrangian (basis
    a_rows) meeting x ^ (2-vectors).  Rejects the zero vector.

    x ^ (2-vectors) is the wedge square of V/<x>, of dimension 10 for every
    nonzero x.  With i the first nonzero coordinate of x, the ten rows
    x ^ e_p for the pairs p avoiding i are a basis of it: on the
    coordinates of the triples {i} u p they are +-x_i, one each.  The
    stratum is projective, so a rational x, its rational CycloNums (such
    as the unit eigenvectors of a diagonal element) read as Fractions, is
    first multiplied by the lcm of its denominators, and the reduction
    runs on integers."""
    i = next((k for k, c in enumerate(x) if c), None)
    if i is None:
        raise ValueError("zero vector has no stratum")
    x = [c.to_fraction() if isinstance(c, CycloNum) and c.is_rational() else c for c in x]
    if not any(isinstance(c, CycloNum) for c in x):
        den = lcm(*(c.denominator for c in x))
        x = [int(c * den) for c in x]
    wedge_rows = [wedge_vector_pair(x, p) for p in PAIRS6 if i not in p]
    return trivector_subspace_intersection(a_rows, wedge_rows)


@lru_cache(maxsize=16)
def _echelon(a_rows):
    """(rank, pivot columns, free columns, scale, tails) of the span of
    a_rows (a tuple of tuples): its reduced echelon form with every row
    multiplied by scale, the lcm of the form's denominators when it is
    rational (1 otherwise), so each row is scale at its own pivot column
    and 0 at the others; tails holds the rows on the free columns.  Apart
    from group._echelon because the strata reduce integer rows against the
    integer tails, and the form is cached per basis."""
    red, pivots = linalg.rref(a_rows)
    rows = red[:len(pivots)]
    free = tuple(j for j in range(len(TRIPLES6)) if j not in pivots)
    scale = 1
    if all(isinstance(x, Fraction) for row in rows for x in row):
        scale = lcm(*(x.denominator for row in rows for x in row))
        rows = [[(x * scale).numerator for x in row] for row in rows]
    # tuples: the cache hands the same result to every caller
    tails = tuple(tuple(row[j] for j in free) for row in rows)
    return len(pivots), tuple(pivots), free, scale, tails


def trivector_subspace_intersection(a_rows, w_rows):
    """dim(span a_rows meet span w_rows): the sum of the lengths of both
    row sets less the rank of both together.  a_rows is brought to echelon
    form once per distinct basis (_echelon); each w-row is reduced against
    it fraction-free, which clears its pivot columns, and the rank of both
    is rank(a_rows) plus the rank of the reduced rows on the free columns:
    a 10 x 10 rank for the Lagrangian."""
    rank_a, pivots, free, scale, tails = _echelon(tuple(map(tuple, a_rows)))
    reduced = []
    for w in w_rows:
        acc = [scale * w[j] for j in free]
        for c, tail in zip(pivots, tails):
            x = w[c]
            if x:
                acc = [a - x * t for a, t in zip(acc, tail)]
        reduced.append(acc)
    return len(a_rows) - rank_a + len(w_rows) - linalg.rank(reduced)


def gm_dimension(a_rows, covector):
    """5 - dim(A meet wedge3 of the hyperplane ker(covector)), for the
    Lagrangian's basis a_rows and a rational covector."""
    if not any(covector):
        raise ValueError("zero covector")
    # each kernel vector scaled by its denominators' lcm: the same span,
    # and integer minors
    basis = []
    for vec in linalg.kernel_basis([covector]):
        den = lcm(*(x.denominator for x in vec))
        basis.append([int(x * den) for x in vec])
    # the 3 x 3 minors' columns are the 3-subsets of 0..5 in TRIPLES6 order;
    # the exterior cube of the 5 independent rows is 10 independent rows
    w_rows = linalg.exterior_power_matrix(basis, 3)
    return 5 - trivector_subspace_intersection(a_rows, w_rows)


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
            if sum(x * y for x, y in zip(f, r)) != 0:
                return False
    # spans have equal dimension, so containment in the annihilator is
    # equality whenever the row span has full rank 10
    return linalg.rank(a_rows) == 10


def self_duality_oracle(a_rows):
    """Independent annihilator-comparison route (kernel based)."""
    ann_rows = linalg.kernel_basis(a_rows)
    flipped = [_dual_flip(r) for r in a_rows]
    return (
        linalg.rank(ann_rows) == linalg.rank(flipped)
        and linalg.rank(ann_rows + flipped) == linalg.rank(ann_rows)
    )


# ---------------------------------------------------------------------------
# the sextic: two independent determinant routes
# ---------------------------------------------------------------------------


def chart_matrix_derived():
    """10 x 10 matrix over Z[x1..x5] whose determinant cuts out the sextic
    on the affine chart x0 = 1, derived from the graph map (not transcribed)."""
    v = build_v()
    cols = []
    for J in PAIRS5:
        col = {}
        col[PAIR5_INDEX[J]] = MultiPoly.const(5, -1)
        for k in range(1, 6):
            sign, tri = merge_indices((k,), J)
            if not sign:
                continue
            # v is a signed permutation: its transpose is its inverse
            for idx, vsign in enumerate(v[TRIPLE5_INDEX[tri]]):
                if vsign:
                    term = MultiPoly.var(k - 1, 5, sign * vsign)
                    col[idx] = col.get(idx, MultiPoly.zero(5)) + term
        cols.append(col)
    return [
        [cols[j].get(i, MultiPoly.zero(5)) for j in range(10)] for i in range(10)
    ]


@lru_cache(maxsize=None)
def sextic_equation():
    """Homogeneous degree-6 polynomial in x0..x5 cutting out the locus where
    the invariant Lagrangian meets x ^ (2-vectors): the derived chart
    determinant by fraction-free elimination over Z[x1..x5].  Its degree
    at most 6 and its x0^6 coefficient 1 are certified, not assumed, once per
    process: callers share the result, as a MultiPoly's terms are written only
    while it is being built."""
    det = linalg.bareiss_det(chart_matrix_derived())
    if det.total_degree() > 6:
        raise ArithmeticError("chart determinant has degree above 6")
    hom = det.homogenize(6)
    if hom.coefficient((6, 0, 0, 0, 0, 0)) != 1:
        raise ArithmeticError("chart determinant has x0^6 coefficient other than 1")
    return hom


def _chart_degree_bound(chart):
    """A certified bound on the total degree of det(chart), for a 10 x 10
    affine chart C + N(x) on PAIRS5 (C constant, N linear in x1..x5;
    _simplex_det rejects any other): its size less the rank of five
    vectors that N kills identically.

    Expanding det(C + N) column by column, a term that takes k columns of
    N vanishes once k exceeds the rank of N over Q(x), so that rank bounds
    the degree.  Column J of the derived chart's N is v^-1(x ^ e_J), so N
    sends a 2-vector u to v^-1(x ^ u), and kills the five u_i = x ^ e_i.
    N u_i = 0 is checked as a MultiPoly identity, raising ArithmeticError
    otherwise.  At x = (1, ..., 1) the u_i have rank 4, a lower bound for
    their rank over Q(x); so rank N <= 6, and so is the degree."""
    nvars = chart[0][0].nvars
    zero = MultiPoly.zero(nvars)
    kernel = []
    for i in range(1, 6):
        u = [zero] * len(PAIRS5)
        for k in range(1, 6):
            sign, pair = merge_indices((k,), (i,))
            if sign:
                u[PAIR5_INDEX[pair]] = MultiPoly.var(k - 1, nvars, sign)
        kernel.append(u)
    origin = (0,) * nvars
    for row in chart:
        linear = [MultiPoly(nvars, {e: c for e, c in entry.terms.items() if e != origin})
                  for entry in row]
        if any(sum(map(mul, linear, u), zero) for u in kernel):
            raise ArithmeticError("chart's linear part does not kill x ^ e_i")
    point = [1] * nvars
    return len(chart) - linalg.rank([[c.evaluate(point) for c in u] for u in kernel])


def _simplex(nvars, n):
    """Exponent vectors e in N^nvars with |e| <= n, in lexicographic order."""
    if nvars == 0:
        return [()]
    return [(k,) + rest for k in range(n + 1) for rest in _simplex(nvars - 1, n - k)]


def _forward_differences(line):
    """Newton coefficients D^k g(0) of the values g(0), g(1), ..."""
    for k in range(1, len(line)):
        for i in range(len(line) - 1, k - 1, -1):
            line[i] -= line[i - 1]
    return line


@lru_cache(maxsize=None)
def _falling_rows(m):
    """Row j: the x^j coefficients of m!/k! * x (x - 1) ... (x - k + 1)
    for k = 0..m, the falling factorials scaled to integers."""
    cols, falling = [], [1]
    for k in range(m + 1):
        cols.append([c * (factorial(m) // factorial(k)) for c in falling] + [0] * (m - k))
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
    return tuple(zip(*cols))


def _binomials_to_powers(line):
    """Power coefficients of sum_k line[k] * C(x, k): each the dot product
    of line with a row of _falling_rows, over m!; raises unless they are
    integers."""
    scale = factorial(len(line) - 1)
    out = []
    for row in _falling_rows(len(line) - 1):
        a, r = divmod(sum(map(mul, row, line)), scale)
        if r:
            raise ArithmeticError("non-integer interpolated coefficient")
        out.append(a)
    return out


def _axis_lines(points, n):
    """The lines of the simplex, one axis after the other, as lists of
    indices into points (the simplex {e : |e| <= n} in _simplex order):
    for each point with a zero coordinate on the axis, it and its steps
    along the axis while they stay in the simplex.

    No point is looked up.  The points sharing the coordinates before the
    axis, a prefix, are a run {prefix} x S(w + 1, r) of the order, S(w, r)
    the simplex of radius r in w variables; its first point has zeros from
    the axis on, and it is the blocks {k} x S(w, r - k), k = 0..r, one
    after the other.  Block k holds the suffixes of block 0 of degree at
    most r - k, in the same order, so a line is the next unused index of
    each block it reaches."""
    nvars = len(points[0])
    for axis in range(nvars):
        w = nvars - 1 - axis
        for i, e in enumerate(points):
            if e[axis]:
                continue
            if not any(e[axis + 1:]):
                r = n - sum(e)
                starts = [i]
                for k in range(r):
                    starts.append(starts[-1] + comb(r - k + w, w))
            line = starts[:n - sum(e) + 1]
            yield line
            starts[:len(line)] = [s + 1 for s in line]


def _simplex_det(chart, degree=None):
    """Determinant of an n x n matrix of affine-linear integer MultiPolys,
    interpolated from integer determinants on the principal lattice
    {e : |e| <= degree}, which is unisolvent for total degree <= degree
    (Chung & Yao, SIAM J. Numer. Anal. 14, 1977).  The radius defaults to
    n, a bound for every such matrix; a smaller one is exact only for a
    determinant of at most that degree.  Forward differences along each
    axis give the Newton coefficients D^e f(0); every difference stays
    inside the simplex.  The binomials C(x_i, k) are then expanded into
    powers along each axis in the same way.

    The work is on flat arrays: each chart row is read once into its
    constant row and its (column, variable, coefficient) terms, from which
    each point's integer matrix is built; the values are one list in
    _simplex order, and both transforms run over its index lines, made one
    at a time (_axis_lines), axis after axis."""
    nvars = chart[0][0].nvars
    if degree is None:
        degree = len(chart)
    if any(entry.total_degree() > 1 for row in chart for entry in row):
        raise ValueError("chart entries must be affine-linear")
    const_rows, linear_terms = [], []
    for row in chart:
        const_rows.append([entry.coefficient((0,) * nvars) for entry in row])
        linear_terms.append([(j, e.index(1), c) for j, entry in enumerate(row)
                             for e, c in entry.terms.items() if any(e)])
    points = _simplex(nvars, degree)
    values = []
    for e in points:
        m = []
        for const, terms in zip(const_rows, linear_terms):
            row = const[:]
            for j, k, c in terms:
                row[j] += c * e[k]
            m.append(row)
        values.append(linalg.bareiss_det(m))
    for transform in (_forward_differences, _binomials_to_powers):
        for line in _axis_lines(points, degree):
            for i, v in zip(line, transform([values[i] for i in line])):
                values[i] = v
    return MultiPoly(nvars, zip(points, values))


def sextic_via_interpolation():
    """Independent route: the derived chart determinant interpolated from
    its values on the 462 points of the radius-6 simplex, the radius being
    the degree bound that _chart_degree_bound certifies from the chart's
    kernel (Chung & Yao, as in _simplex_det).  The sextic's degree 6 is
    checked again after the interpolation."""
    chart = chart_matrix_derived()
    poly = _simplex_det(chart, _chart_degree_bound(chart))
    if poly.total_degree() > 6:
        raise ArithmeticError("interpolated sextic has degree above 6")
    return poly.homogenize(6)


# ---------------------------------------------------------------------------
# lines, restrictions, fixed loci
# ---------------------------------------------------------------------------


def restrict_to_line(f, p, q):
    """Binary form g(s, t) = f(s p + t q); rejects dependent points.

    It stays on MultiPoly.substitute rather than cyclo.substitute_linear:
    that kernel returns CycloNum coefficients even for a rational line,
    which dehomogenize and the squarefree decomposition after it would
    then have to convert back to rationals."""
    if linalg.rank([list(p), list(q)]) != 2:
        raise ValueError("line needs two independent points")
    return f.substitute(linear_forms(list(zip(p, q))))


def dehomogenize(g, degree=None):
    """Dehomogenize the binary form g(s, t) at s = u, t = 1: (the
    one-variable MultiPoly in u, multiplicity of the root at infinity
    [1:0])."""
    d = g.total_degree() if degree is None else degree
    pol = MultiPoly(1, {(es,): c for (es, _), c in g.terms.items()})
    return pol, d - pol.total_degree()


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


def fixed_locus(g6):
    """Eigen-decomposition of a finite-order 6 x 6 matrix: one subspace per
    eigenvalue actually occurring, over a cyclotomic field containing all
    candidate eigenvalues, in the order of root_of_unity(n, j) by j.  The
    projective fixed locus is the union of the projectivized eigenspaces.
    A g6 whose CycloNum entries are all rational (a permutation matrix,
    say) is first rewritten in conductor 1, so its order n and eigenspaces
    are computed in Q(zeta_n), not in the lcm of n and the conductor its
    entries were written in.  A diagonal g6 is read off its diagonal: n is
    the lcm of the entries' orders, each found by powering the entry, and
    the eigenspace of ev is spanned by the unit vectors e_i with g6[i][i]
    = ev, written as kernel_basis writes them, in the entries' conductor
    (root_of_unity(n, j) is written in a divisor of it).  Any other g6
    takes one kernel_basis elimination per candidate eigenvalue."""
    if all(x.is_rational() for row in g6 for x in row):
        g6 = [[CycloNum.from_rational(x.to_fraction()) for x in row] for row in g6]
    diag = [row[i] for i, row in enumerate(g6)]
    diagonal = not any(x for i, row in enumerate(g6) for k, x in enumerate(row) if i != k)
    n = 1 if diagonal else group.mat_order(g6)
    if diagonal:
        for d in diag:
            acc, k = d, 1
            while acc != 1 and k <= group.ORDER_CAP:
                acc, k = acc * d, k + 1
            n = lcm(n, k)
        if n > group.ORDER_CAP:
            raise ValueError("order exceeds cap")
    zero = CycloNum.from_rational(0, lcm(*(x.n for row in g6 for x in row)))
    one = zero + 1
    out = []
    for j in range(n):
        ev = root_of_unity(n, j)
        if diagonal:
            kb = [[one if i == f else zero for i in range(6)]
                  for f, d in enumerate(diag) if d == ev]
        else:
            shifted = [[g6[i][k] - (ev if i == k else 0) for k in range(6)] for i in range(6)]
            kb = linalg.kernel_basis(shifted)
        if kb:
            out.append((ev, kb))
    if sum(len(kb) for _, kb in out) != 6:
        raise ArithmeticError("lost eigenvalues")
    return out


# ---------------------------------------------------------------------------
# dual-representation rebuild
# ---------------------------------------------------------------------------


def dual_v():
    """The graph map rebuilt from the dual representation: the inverse
    transpose of v under the pairing-induced identifications, computed
    exactly (Fraction entries).  For the signed permutation v it equals v,
    which is why the dual route returns the same Lagrangian; the check
    below verifies that instead of assuming it."""
    return linalg.transpose(linalg.inverse(build_v()))


def dual_rebuild_check(generators):
    """Verify the dual-route reconstruction: the dual action of every given
    5 x 5 generator g is the inverse transpose (gdual^T g = I, which the
    plain inverse fails for a g with g^-1 != g^T), the rebuilt graph map
    intertwines its exterior powers, and its graph spans the same
    Lagrangian."""
    vd = dual_v()
    for g in generators:
        gdual = group._dual_matrix(g)
        if not linalg.mat_eq(linalg.mat_mul(linalg.transpose(gdual), g),
                             linalg.identity(len(g))):
            return False
        w2 = linalg.exterior_power_matrix(gdual, 2)
        w3 = linalg.exterior_power_matrix(gdual, 3)
        if not linalg.mat_eq(linalg.mat_mul(vd, w2), linalg.mat_mul(w3, vd)):
            return False
    return linalg.rank(build_A() + graph_rows(vd)) == 10


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
    pol, inf_mult = dehomogenize(g, degree=6)
    pattern = []
    for factor, mult in squarefree_decomposition(pol):
        pattern.extend([mult] * factor.total_degree())
    if inf_mult:
        pattern.append(inf_mult)
    return sorted(pattern)


def sextic_fixed_point_count(g6, a_rows, f):
    """Number of fixed points of the projective action lying on the sextic
    f, when finite: eigen-point strata (in the Lagrangian with basis a_rows)
    plus distinct line intersections.

    Returns (count, components), one component (eigenvalue, dimension,
    value) per eigenspace: value is the stratum of a fixed point, the
    intersection pattern of a fixed line (None if the line lies on f), or
    None for a fixed space of dimension >= 3.  count is None when some
    fixed component meets the hypersurface in positive dimension (the
    order-2 elements)."""
    components = []
    for ev, kb in fixed_locus(g6):
        dim = len(kb)
        if dim == 1:
            value = stratum(a_rows, kb[0])
        elif dim == 2:
            value = line_intersection_pattern(f, *kb)
        else:
            value = None
        components.append((ev, dim, value))
    # a line on f, or a fixed space of projective dimension >= 2, meets the
    # hypersurface in positive dimension
    if any(value is None for _, _, value in components):
        return None, components
    count = sum(value >= 1 if dim == 1 else len(value) for _, dim, value in components)
    return count, components
