"""Exact dense linear algebra over fields plus integer Smith normal form.

Matrices are plain lists of lists (rows); functions never mutate their
arguments.  Field entries may be Fraction, CycloNum or any type with
exact +, -, *, / and truthiness testing zero.  Integer matrices use
Python ints.  Determinants and ranks over Q run fraction-free (Bareiss)
to control coefficient growth; over cyclotomic fields plain Gaussian
elimination is used (the matrices involved stay small).  Over rings
without division (polynomials, the order Z[w]) expansion_det expands
along column subsets instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _gcd


def identity(n, one=1, zero=0):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
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


def mat_eq(a, b):
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _is_int_matrix(m):
    return all(isinstance(x, int) for row in m for x in row)


# ---------------------------------------------------------------------------
# rank / determinant / kernel over a field
# ---------------------------------------------------------------------------


def rank(m) -> int:
    """Rank by elimination; fraction-free over integer matrices."""
    if not m or not m[0]:
        return 0
    if _is_int_matrix(m):
        return _rank_bareiss(m)
    return _rank_field(m)


def _rank_bareiss(m):
    a = [row[:] for row in m]
    rows, cols = len(a), len(a[0])
    r = 0
    prev = 1
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r][c]
        for i in range(r + 1, rows):
            ric = a[i][c]
            for j in range(c + 1, cols):
                a[i][j] = (piv * a[i][j] - ric * a[r][j]) // prev
            a[i][c] = 0
        prev = piv
        r += 1
        if r == rows:
            break
    return r


def _rank_field(m):
    a = [row[:] for row in m]
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv_inv = 1 / a[r][c]
        for i in range(r + 1, rows):
            if a[i][c]:
                f = a[i][c] * piv_inv
                for j in range(c, cols):
                    a[i][j] = a[i][j] - f * a[r][j]
        r += 1
        if r == rows:
            break
    return r


def det(m):
    """Exact determinant of a square matrix.

    Integer and Fraction matrices run fraction-free (Bareiss); other
    exact fields use Gaussian elimination with division.
    """
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if _is_int_matrix(m):
        return _det_bareiss(m)
    if all(isinstance(x, (int, Fraction)) for row in m for x in row):
        den = 1
        for row in m:
            for x in row:
                d = Fraction(x).denominator
                den = den * d // _gcd(den, d)
        scaled = [[int(Fraction(x) * den) for x in row] for row in m]
        return Fraction(_det_bareiss(scaled), den**n)
    return _det_field(m)


def _det_bareiss(m):
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (piv * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def _det_field(m):
    a = [row[:] for row in m]
    n = len(a)
    result = None
    sign = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return a[0][0] * 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv = a[k][k]
        result = piv if result is None else result * piv
        if k + 1 < n:
            piv_inv = 1 / piv
            for i in range(k + 1, n):
                if a[i][k]:
                    f = a[i][k] * piv_inv
                    for j in range(k, n):
                        a[i][j] = a[i][j] - f * a[k][j]
    return -result if sign < 0 else result


def expansion_det(m, one):
    """Division-free determinant by subset expansion along the rows.

    Exact over any commutative ring whose entries support +, -, * and
    is_zero(); `one` is the ring's unit.  Level r maps each set of r
    chosen columns (a bitmask) to the signed sum over all ways of placing
    the first r rows in those columns.  Zero entries are skipped, which
    keeps sparse polynomial matrices cheap.  A zero result is `one - one`.
    """
    n = len(m)
    level = {0: one}
    for row in m:
        nxt = {}
        for cols, val in level.items():
            for c in range(n):
                bit = 1 << c
                entry = row[c]
                if cols & bit or entry.is_zero():
                    continue
                term = val * entry
                # sign of the permutation: chosen columns to the right of c
                if (cols >> c).bit_count() % 2:
                    term = -term
                key = cols | bit
                acc = nxt.get(key)
                nxt[key] = term if acc is None else acc + term
        level = nxt
    full = level.get((1 << n) - 1)
    return one - one if full is None else full


def rref(m):
    """Reduced row echelon form and pivot columns (field entries)."""
    a = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    piv_cols = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv_inv = 1 / a[r][c]
        a[r] = [x * piv_inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return a, piv_cols


def kernel_basis(m):
    """Columns spanning the null space {x : m x = 0}; independent columns.

    Returns a cols x k matrix (list of rows, k columns); empty list of
    columns is returned as a cols x 0 matrix.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return identity(cols, Fraction(1), Fraction(0))
    red, piv_cols = rref(m)
    one = None
    for row in red:
        for x in row:
            if x:
                one = x / x
                break
        if one is not None:
            break
    if one is None:
        one = Fraction(1)
    zero = one * 0
    free = [c for c in range(cols) if c not in piv_cols]
    basis_cols = []
    for f in free:
        v = [zero] * cols
        v[f] = one
        for i, c in enumerate(piv_cols):
            v[c] = -red[i][f]
        basis_cols.append(v)
    return [[col[i] for col in basis_cols] for i in range(cols)]


def solve(m, rhs):
    """One solution x of m x = rhs, or None if inconsistent."""
    cols = len(m[0]) if m else 0
    red, piv_cols = rref([list(row) + [b] for row, b in zip(m, rhs)])
    if cols in piv_cols:
        return None  # pivot in the augmented column
    sol = [Fraction(0)] * cols
    for i, c in enumerate(piv_cols):
        sol[c] = red[i][cols]
    # verify each equation exactly
    for row, b in zip(m, rhs):
        if sum((x * y for x, y in zip(row, sol)), b * 0) != b:
            return None
    return sol


def char_poly(m):
    """Monic characteristic polynomial det(T*I - m), exact, via the
    Faddeev-LeVerrier recurrence (divisions only by integers)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("characteristic polynomial of a non-square matrix")
    if _is_int_matrix(m):
        m = [[Fraction(x) for x in row] for row in m]
    coeffs = [None] * (n + 1)
    coeffs[n] = 1
    mk = [row[:] for row in m]
    cs = []
    for k in range(1, n + 1):
        tr = mk[0][0]
        for i in range(1, n):
            tr = tr + mk[i][i]
        ck = tr * Fraction(-1, k)
        cs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] = mk[i][i] + ck
            mk = mat_mul(m, mk)
    # det(T I - m) = T^n + cs[0] T^(n-1) + ... + cs[n-1]
    out = [cs[n - 1 - i] for i in range(n)] + [1]
    return out


# ---------------------------------------------------------------------------
# Smith normal form over the integers
# ---------------------------------------------------------------------------


def smith_normal_form(m):
    """(diagonal, left, right) with left*m*right diagonal, d_i | d_(i+1),
    and both transforms unimodular.  Entries must be Python ints."""
    a = [row[:] for row in m]
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
        while True:
            # clear column t
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
                t = i
                while True:
                    dirty = False
                    for r in range(t + 1, rows):
                        if a[r][t]:
                            q = a[r][t] // a[t][t]
                            add_row(t, r, -q)
                            if a[r][t]:
                                swap_rows(t, r)
                                dirty = True
                    for c in range(t + 1, cols):
                        if a[t][c]:
                            q = a[t][c] // a[t][t]
                            add_col(t, c, -q)
                            if a[t][c]:
                                swap_cols(t, c)
                                dirty = True
                    if not dirty:
                        break
                if a[t][t] < 0:
                    negate_row(t)
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


def descartes_positive_roots(coeffs):
    """Number of positive roots (with multiplicity) of a polynomial all of
    whose roots are real: the count equals the sign variations."""
    signs = [1 if c > 0 else -1 for c in coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def symmetric_signature(gram):
    """(positives, negatives) for a nondegenerate symmetric integer matrix,
    via Descartes' rule on the characteristic polynomial (all roots of a
    symmetric matrix are real, so the rule is exact)."""
    n = len(gram)
    cp = char_poly(gram)
    if not cp[0]:
        raise ValueError("degenerate symmetric matrix")
    pos = descartes_positive_roots(cp)
    neg_poly = [c if i % 2 == 0 else -c for i, c in enumerate(cp)]
    neg = descartes_positive_roots(neg_poly)
    if pos + neg != n:
        raise ArithmeticError(f"signature {(pos, neg)} does not add up to rank {n}")
    return pos, neg
