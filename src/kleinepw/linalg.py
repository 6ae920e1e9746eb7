"""Exact dense linear algebra over fields plus integer Smith normal form.

Matrices are lists or tuples of rows, each row a list or a tuple;
functions never mutate their arguments.  mat_mul hands a product of two cyclotomic matrices to the
packed kernel cyclo.mat_mul.  rank, det, bareiss_det and leading_minors
read their results off one elimination loop with two steps: the
fraction-free step (Bareiss) divides exactly by the previous pivot, the
field step (Gaussian elimination) multiplies by one pivot inverse per
row.  One lifting rule picks the step: a matrix with a CycloNum entry is
lifted to one cyclotomic field for the field step; a matrix of ints and
Fractions has each row cleared of denominators for the fraction-free
step, so ranks and determinants over Q never divide in Q; other entries
(QuadInt and MultiPoly, whose `//` is exact) take the fraction-free step
as they are.  bareiss_det skips the lifting: its callers know their ring
(ints, Z[x] as MultiPoly).  Without row swaps the loop gives every
leading principal minor at once; Sylvester's criterion on them is the
package's one positive-definiteness test over a cyclotomic field.

Where no division may be taken (polynomials over Z or F_p, the
division-free cross-check of a determinant over Z[w], and the minors of
exterior powers) maximal_minors expands along column subsets instead: one
expansion of an r x n matrix gives all of its r x r minors, and
expansion_det is its square case.  exterior_power_matrix takes the k x k
minors from one expansion of each k-row block, exterior_power_trace sums
the expansion_det of each principal block; CycloNum and QuadInt entries
are expanded as Kronecker-packed ints (cyclo.packed_for_minors).  rref gives the full reduction that kernel_basis needs;
kernel_basis and int_kernel_basis both return lists of basis row vectors,
and inverse reduces [m | I].  symmetric_elimination is the exact LDL^T of
a symmetric integer matrix, kept fraction-free; its leading minors give
the determinant and, by their signs, the signature.
identity, trace, conj_transpose and inverse are the package's one family
of matrix helpers; is_hermitian is the one conjugate-symmetry test, for
entries with conj() (CycloNum or QuadInt).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, lcm as _lcm, prod
from operator import mul

from . import cyclo
from .cyclo import CycloNum


def identity(n, one=1, zero=0):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Matrix product.  When either operand has a CycloNum entry the packed
    kernel cyclo.mat_mul takes it, lifting int and Fraction entries, and
    returns tuples; other entries are multiplied one by one into lists."""
    if any(isinstance(x, CycloNum) for m in (a, b) for row in m for x in row):
        return cyclo.mat_mul(a, b)
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        ai = a[i]
        row = []
        for j in range(cols):
            acc = ai[0] * b[0][j]
            for k in range(1, inner):
                x = ai[k]
                if x:
                    acc = acc + x * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            if x:
                acc = acc + x * y
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def conj_transpose(a):
    """The conjugate transpose, for entries with conj() (CycloNum or
    QuadInt)."""
    return [[x.conj() for x in col] for col in zip(*a)]


def trace(m):
    acc = m[0][0]
    for i in range(1, len(m)):
        acc = acc + m[i][i]
    return acc


def mat_eq(a, b):
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_hermitian(m):
    """m equals its conjugate transpose, exactly.  Over Z[w] this also
    makes the diagonal rational: a + bw is its own conjugate iff b = 0."""
    return mat_eq(m, conj_transpose(m))


def _expansion_rows(m, k, terms):
    """(rows, one, finish) for the subset expansion of m's k x k minors, or
    of a sum of at most terms of them: packed by cyclo.packed_for_minors
    when an entry is a CycloNum or a QuadInt, else as they are, finish
    None."""
    if any(isinstance(x, (CycloNum, cyclo.QuadInt)) for row in m for x in row):
        rows, finish = cyclo.packed_for_minors(m, k, terms)
        return rows, 1, finish
    return m, m[0][0] * 0 + 1, None


def exterior_power_matrix(m, k):
    """k-th exterior power of an r x n matrix: a C(r, k) x C(n, k) matrix
    whose entry (I, J) is the minor on the I-th k-subset of rows and the
    J-th k-subset of columns, both in lexicographic order.  Each k-row
    block gives all its minors in one maximal_minors expansion; on a
    packed matrix each distinct minor is unpacked once."""
    rows, one, finish = _expansion_rows(m, k, 1)
    zero = one - one
    masks = [sum(1 << c for c in cols) for cols in combinations(range(len(m[0])), k)]
    out = []
    for block in combinations(rows, k):
        minors = maximal_minors(block, one)
        out.append([minors.get(mask, zero) for mask in masks])
    if finish is None:
        return out
    values = {v: finish(v) for v in {v for row in out for v in row}}
    return [[values[v] for v in row] for row in out]


def exterior_power_trace(m, k):
    """Trace of the k-th exterior power of a square matrix, 1 <= k <= its
    size: the sum of its principal k x k minors, each an expansion_det, the
    diagonal of exterior_power_matrix.  A packed sum is unpacked once."""
    rows, one, finish = _expansion_rows(m, k, comb(len(m), k))
    total = one - one
    for idx in combinations(range(len(m)), k):
        total = total + expansion_det([[rows[i][j] for j in idx] for i in idx], one)
    return total if finish is None else finish(total)


# ---------------------------------------------------------------------------
# rank, determinant and leading minors: one elimination loop
# ---------------------------------------------------------------------------


def rank(m) -> int:
    """Rank by elimination: fraction-free over Q, with division otherwise."""
    if not m or not m[0]:
        return 0
    rows, field, _ = _lifted(m)
    return len(_eliminate(rows, field)[0])


def det(m):
    """Exact determinant of a square matrix, lifted as _lifted says.  An
    int matrix gives an int, a matrix with a Fraction entry a Fraction."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    rows, field, scales = _lifted(m)
    if not field:
        d = bareiss_det(rows)
        return d if scales is None else Fraction(d, prod(scales))
    pivots, sign = _eliminate(rows, True)
    if len(pivots) < n:
        return rows[0][0] * 0
    d = prod(pivots[1:], start=pivots[0])
    return -d if sign < 0 else d


def bareiss_det(m):
    """Determinant of a square matrix over an integral domain whose exact
    quotients are taken by `//`: the integers, or Z[x] as MultiPoly.  No
    type scan: the fraction-free kernel is taken as given."""
    pivots, sign = _eliminate(m, False)
    if len(pivots) < len(m):
        return m[0][0] * 0
    return -pivots[-1] if sign < 0 else pivots[-1]


def leading_minors(m):
    """The leading principal minors d_1, d_2, ... of a square matrix, from
    one elimination without row swaps.  Such an elimination cannot pass a
    zero pivot, so the list stops at the first zero minor, which it
    includes.  In the field kernel d_k is the product of the first k
    pivots; in the fraction-free kernel the k-th pivot is d_k itself,
    divided back by the first k row multipliers when rows were cleared."""
    rows, field, scales = _lifted(m)
    minors, _ = _eliminate(rows, field, swaps=False)
    if field:
        minors = list(accumulate(minors, mul))
    if scales is not None:
        minors = [Fraction(d, s) for d, s in zip(minors, accumulate(scales, mul))]
    return minors


def _lifted(m):
    """(rows, field, scales): m prepared for _eliminate.  A matrix with a
    CycloNum entry is lifted to one cyclotomic field (cyclo.common_field)
    for the field kernel.  A matrix of ints and Fractions takes the
    fraction-free kernel, each row multiplied by the lcm of its
    denominators, which keeps the rank and multiplies each minor by the
    multipliers of its rows; scales lists the multipliers, one per row,
    or is None when no entry is a Fraction.  Other entries (QuadInt,
    MultiPoly) take the fraction-free kernel unchanged."""
    rows, scales, cleared = [], [], False
    for row in m:
        den = None
        for x in row:
            # the exact type test first: isinstance against the numbers
            # ABCs behind Fraction is slow, and most entries are ints
            if type(x) is int:
                continue
            if isinstance(x, Fraction):
                den = _lcm(den or 1, x.denominator)
            elif isinstance(x, CycloNum):
                return cyclo.common_field(m), True, None
            elif not isinstance(x, int):
                return m, False, None
        if den is None:
            rows.append(row)
        else:
            rows.append([x.numerator * (den // x.denominator) for x in row])
            cleared = True
        scales.append(den or 1)
    return rows, False, scales if cleared else None


def _eliminate(rows, field, swaps=True):
    """(pivots, sign of the row swaps) of the elimination of rows.  With
    swaps, columns without a pivot are skipped, so the pivots count the
    rank; without, the pivots are diagonal and the loop stops after the
    first zero one, which it keeps.  The field step clears each row below
    with one pivot inverse, so d_k is the product of the first k pivots.
    The fraction-free step (Bareiss, Math. Comp. 22, 1968) replaces a row
    by (pivot * row - row[c] * pivot row) // previous pivot, exact because
    each entry is a minor: the k-th pivot is d_k itself.  Column c below a
    pivot is never read again, so it is left as it was."""
    a = [list(row) for row in rows]
    pivots, sign, prev = [], 1, None
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if swaps:
            p = next((i for i in range(r, len(a)) if a[i][c]), None)
            if p is None:
                continue
            if p != r:
                a[r], a[p] = a[p], a[r]
                sign = -sign
        top = a[r]
        piv = top[c]
        pivots.append(piv)
        if not piv or r + 1 == len(a):
            break
        later = range(c + 1, len(top))
        if field:
            piv_inv = Fraction(1) / piv
            for row in a[r + 1:]:
                if row[c]:
                    f = row[c] * piv_inv
                    for j in later:
                        row[j] = row[j] - f * top[j]
            continue
        for row in a[r + 1:]:
            x = row[c]
            if prev is None:
                for j in later:
                    row[j] = piv * row[j] - x * top[j]
            else:
                for j in later:
                    row[j] = (piv * row[j] - x * top[j]) // prev
        prev = piv
    return pivots, sign


def maximal_minors(m, one):
    """All maximal minors of an r x n matrix (r <= n) from one
    division-free subset expansion along the rows: {column mask: minor}.

    Exact over any commutative ring whose entries support +, -, * and
    truthiness testing zero; `one` is the ring's unit.  Level k maps each
    set of k chosen columns (a bitmask) to the signed sum over all ways of
    placing the first k rows in those columns, so level r holds the minor
    on every r-subset of columns at once, and partial products shared
    between minors are formed once.  Level 1 is the first row itself, and
    a term of odd sign is subtracted, not negated and added, which saves an
    element per term in rings such as Z[w].  Zero entries are skipped,
    which keeps sparse polynomial matrices cheap; a mask missing from the
    result is a zero minor, and a present one may still hold a zero that
    cancelled.
    """
    if not m:
        return {0: one}
    level = {1 << c: x for c, x in enumerate(m[0]) if x}
    for row in m[1:]:
        support = [(c, 1 << c, x) for c, x in enumerate(row) if x]
        nxt = {}
        get = nxt.get
        for cols, val in level.items():
            for c, bit, entry in support:
                if cols & bit:
                    continue
                key = cols | bit
                acc = get(key)
                term = val * entry
                # sign of the permutation: chosen columns to the right of c
                if (cols >> c).bit_count() & 1:
                    nxt[key] = -term if acc is None else acc - term
                else:
                    nxt[key] = term if acc is None else acc + term
        level = nxt
    return level


def expansion_det(m, one):
    """Division-free determinant of a square matrix: the one maximal minor
    of maximal_minors.  A zero result is `one - one`."""
    full = maximal_minors(m, one).get((1 << len(m)) - 1)
    return one - one if full is None else full


def rref(m):
    """Reduced row echelon form and pivot columns (field entries).  A matrix
    with a CycloNum entry is first lifted to one field, as in _lifted, and
    ints become Fractions.  A pivot row is scaled only when its pivot is
    not 1, and clears the other rows in its nonzero columns only."""
    a = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in cyclo.common_field(m)]
    rows, cols = len(a), len(a[0]) if a else 0
    piv_cols = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        if top[c] != 1:
            piv_inv = 1 / top[c]
            top = a[r] = [x * piv_inv for x in top]
        support = [j for j, y in enumerate(top) if y]
        for i in range(rows):
            row = a[i]
            if i != r and row[c]:
                f = row[c]
                for j in support:
                    row[j] = row[j] - f * top[j]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return a, piv_cols


def inverse(m):
    """Inverse of a square matrix over a field: [m | I] reduced by rref.
    I is built from the entries' own one, so CycloNum entries give
    CycloNums and ints give Fractions.  Raises ValueError when m is
    singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    zero = m[0][0] * 0
    red, piv_cols = rref([list(row) + unit for row, unit in zip(m, identity(n, zero + 1, zero))])
    if piv_cols[-1] >= n:
        raise ValueError("inverse of a singular matrix")
    return [row[n:] for row in red]


def kernel_basis(m):
    """Basis of the null space {x : m x = 0}: a list of independent row
    vectors, one per free column of the reduced form (empty when m has
    full column rank)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return identity(cols, Fraction(1), Fraction(0))
    red, piv_cols = rref(m)
    one = next((x / x for row in red for x in row if x), Fraction(1))
    zero = one * 0
    free = [c for c in range(cols) if c not in piv_cols]
    basis = []
    for f in free:
        v = [zero] * cols
        v[f] = one
        for i, c in enumerate(piv_cols):
            v[c] = -red[i][f]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Smith normal form over the integers
# ---------------------------------------------------------------------------


def smith_normal_form(m):
    """(diagonal, left, right) with left*m*right diagonal, d_i | d_(i+1),
    and both transforms unimodular.  Entries must be Python ints."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    left = identity(rows)
    right = identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + f * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, f):
        for r in a:
            r[dst] += f * r[src]
        for r in right:
            r[dst] += f * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    def clear(t):
        # Euclidean steps until row and column t vanish off the diagonal
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            negate_row(t)

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # find a nonzero pivot
        found = next(
            ((i, j) for j in range(t, cols) for i in range(t, rows) if a[i][j]),
            None,
        )
        if found is None:
            break
        i, j = found
        swap_rows(t, i)
        swap_cols(t, j)
        clear(t)
        t += 1

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(min(rows, cols) - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if y % x if x else y:
                # fold a[i+1][i+1] into position (i, i) and redo
                add_col(i + 1, i, 1)
                clear(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    diag = [a[i][i] for i in range(min(rows, cols))]
    return diag, left, right


def int_kernel_basis(m):
    """Basis (list of row vectors) of the integer kernel lattice of m."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag, left, right = smith_normal_form(m)
    basis = []
    for j in range(cols):
        if j >= len(diag) or diag[j] == 0:
            basis.append([right[i][j] for i in range(cols)])
    return basis


def symmetric_elimination(gram):
    """(rows, minors): the exact LDL^T of a nondegenerate symmetric integer
    matrix, fraction-free (symmetric Bareiss).  minors[k] is the leading
    principal minor D_k (D_0 = 1); rows[k] is zero before column k and
    rows[k][k] = D_(k+1), so that x^T gram x = sum_k (rows[k] . x)^2 /
    (D_k D_(k+1)), the pivots being D_(k+1)/D_k.  A zero diagonal entry is
    first made nonzero by a congruence pivot, adding +-(row and column j)
    to row and column k; the pivot signs still give the signature
    (Sylvester), but the rows then describe the transformed form.  A
    definite matrix never needs one.  ValueError on a degenerate matrix."""
    a = [list(row) for row in gram]
    n = len(a)
    minors = [1]
    rows = []
    for k in range(n):
        if not a[k][k]:
            j = next((j for j in range(k + 1, n) if a[k][j]), None)
            if j is None:
                raise ValueError("degenerate symmetric matrix")
            # the new entry 2 t a_kj + a_jj is nonzero for t = 1 or t = -1
            t = 1 if a[j][j] + 2 * a[k][j] else -1
            a[k] = [x + t * y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += t * row[j]
        ak, piv, prev = a[k], a[k][k], minors[-1]
        for i in range(k + 1, n):
            ai, f = a[i], ak[i]
            for j in range(i, n):
                ai[j] = a[j][i] = (piv * ai[j] - f * ak[j]) // prev
        rows.append([0] * k + ak[k:])
        minors.append(piv)
    return rows, minors
