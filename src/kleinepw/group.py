"""The order-660 matrix group: generators, closure, classes, characters.

The 5-dimensional representation is pinned by two explicit generators, an
order-5 permutation matrix and an order-11 diagonal matrix whose
eigenvalue exponents are the nonzero squares mod 11.  These generate a
maximal subgroup of order 55, so one further element outside it
generates the whole group.  That element is built from the odd part of
the finite Fourier transform: entries proportional to
z^(x*y) - z^(-x*y) with x, y running over the quadratic residues
ordered to match the diagonal generator, normalized by a square root of
-11 so the determinant is exactly 1.

All 660 elements are generated by breadth-first closure with canonical
cyclotomic hashing; its multiplication table by the generators gives
products, squares, orders and conjugacy classes (genuine conjugation
orbits) by index.  Characters, fixed-point counts and the invariant
Hermitian form are computed from the closure, exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import linalg
from .cyclo import CycloNum, lambda_embed, sqrt_minus_11
from .epw import exterior_power_matrix, v6_action

CONDUCTOR = 11

# the quadratic residues mod 11, ordered so that the i-th squares to the
# i-th diagonal exponent (1, 4, 5, 9, 3)
RESIDUE_LABELS = (1, 9, 4, 3, 5)


class ClosureExceeded(RuntimeError):
    """Breadth-first closure passed the cap; the outside-Borel generator is
    not normalized correctly."""


class WeilNormalizationError(RuntimeError):
    """No determinant-1 scalar normalization of the Fourier-type candidate
    exists in the conductor-11 field."""


def _c11(value):
    return CycloNum.from_rational(value, CONDUCTOR)


def _zeta(k):
    return CycloNum.zeta(CONDUCTOR, k)


_ZERO = None
_ONE = None


def _zero_one():
    global _ZERO, _ONE
    if _ZERO is None:
        _ZERO, _ONE = _c11(0), _c11(1)
    return _ZERO, _ONE


def gen_a():
    """Order-5 generator: the 5-cycle permutation matrix (determinant 1)."""
    zero, one = _zero_one()
    m = [[zero] * 5 for _ in range(5)]
    for col in range(5):
        m[(col + 1) % 5][col] = one
    return tuple(map(tuple, m))


def gen_c():
    """Order-11 generator: diag(z, z^4, z^5, z^9, z^3), determinant 1."""
    zero, _ = _zero_one()
    exps = (1, 4, 5, 9, 3)
    m = [[zero] * 5 for _ in range(5)]
    for i, e in enumerate(exps):
        m[i][i] = _zeta(e)
    return tuple(map(tuple, m))


def fourier_candidate():
    """Unnormalized odd Fourier matrix: entry (i, j) is
    z^(x_i x_j) - z^(-x_i x_j) over the residue labels."""
    m = []
    for x in RESIDUE_LABELS:
        row = []
        for y in RESIDUE_LABELS:
            row.append(_zeta(x * y % 11) - _zeta((-x * y) % 11))
        m.append(tuple(row))
    return tuple(m)


@lru_cache(maxsize=1)
def weil_outside_borel():
    """The extra generator: the Fourier candidate scaled to determinant 1.

    The scalar is searched among +/- (1 + 2L)^k where 1 + 2L is the
    square root of -11 given by the residue sum; failure to find one
    raises WeilNormalizationError (the fallback would be to work with
    projective classes)."""
    m = fourier_candidate()
    d = linalg.det([list(r) for r in m])
    root = sqrt_minus_11()
    for k in range(-6, 7):
        power = root**k
        for sign in (1, -1):
            s = power if sign == 1 else -power
            if (s**5) * d == 1:
                out = tuple(tuple(s * e for e in row) for row in m)
                if mat_order(out) != 2:
                    continue
                return out
    raise WeilNormalizationError(
        "no determinant-1 normalization in the conductor-11 field"
    )


# ---------------------------------------------------------------------------
# matrix utilities (5x5 over the conductor-11 field)
# ---------------------------------------------------------------------------


def mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(n):
            acc = None
            for k in range(n):
                x = ai[k]
                if x.is_zero():
                    continue
                y = b[k][j]
                if y.is_zero():
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else _zero_one()[0])
        out.append(tuple(row))
    return tuple(out)


def mat_identity(n=5):
    zero, one = _zero_one()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_key(m):
    return tuple((e.num, e.den) for row in m for e in row)


def projective_key(m):
    """Canonical key of the projective class: scale so the first nonzero
    entry is 1."""
    lead = next(e for row in m for e in row if not e.is_zero())
    inv = lead.inverse()
    return tuple((x.num, x.den) for row in m for e in row for x in (inv * e,))


def mat_is_identity(m):
    for i, row in enumerate(m):
        for j, e in enumerate(row):
            if i == j:
                if e != 1:
                    return False
            elif not e.is_zero():
                return False
    return True


def mat_order(m, cap=70):
    acc = m
    for k in range(1, cap + 1):
        if mat_is_identity(acc):
            return k
        acc = mat_mul(acc, m)
    raise ValueError("order exceeds cap")


def mat_inverse(m):
    """Inverse by order (finite-order matrices only, order at most 11)."""
    n = mat_order(m)
    acc = mat_identity(len(m))
    for _ in range(n - 1):
        acc = mat_mul(acc, m)
    return acc


def mat_trace(m):
    acc = m[0][0]
    for i in range(1, len(m)):
        acc = acc + m[i][i]
    return acc


def mat_conj_transpose(m):
    n = len(m)
    return tuple(tuple(m[j][i].conj() for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# closure and the group table
# ---------------------------------------------------------------------------


def generate_group(gens, cap=1320):
    """Breadth-first closure under multiplication with canonical hashing;
    aborts past the cap (closure exceeding it means a mis-normalized
    generator).  Records right[i][k], the index of elements[i] * gens[k],
    and words[i], the generator indices whose product is elements[i]."""
    if not gens:
        raise ValueError("need at least one generator")
    ident = mat_identity(len(gens[0]))
    elements = [ident]
    index = {mat_key(ident): 0}
    words = [()]
    right = []
    # elements grows while it is walked: breadth-first order is index order
    for i, g in enumerate(elements):
        row = []
        for k, h in enumerate(gens):
            prod = mat_mul(g, h)
            key = mat_key(prod)
            j = index.get(key)
            if j is None:
                j = index[key] = len(elements)
                elements.append(prod)
                words.append(words[i] + (k,))
                if len(elements) > cap:
                    raise ClosureExceeded(f"closure exceeded cap {cap}")
            row.append(j)
        right.append(tuple(row))
    return GroupTable(elements, index, list(gens), tuple(right), tuple(words))


class GroupTable:
    """Immutable closure of a finite matrix group: element list, lookup
    index, generator list, and the closure's multiplication table by the
    generators.  Products, squares, orders and conjugacy classes are read
    from that table by index."""

    def __init__(self, elements, index, gens, right, words):
        self.elements = elements
        self.index = index
        self.gens = gens
        self.right = right
        self.words = words

    def __len__(self):
        return len(self.elements)

    def index_of(self, m):
        return self.index[mat_key(m)]

    def product_index(self, i, j):
        """Index of elements[i] * elements[j]: walk j's word from i."""
        for k in self.words[j]:
            i = self.right[i][k]
        return i

    def square_index(self, i):
        return self.product_index(i, i)

    def element_order(self, i):
        n, x = 1, i
        while x != 0:
            x = self.product_index(x, i)
            n += 1
        return n

    def conjugacy_classes(self):
        """List of (sorted index list): orbits of x -> g^-1 x g over the
        generators g, in order of smallest member."""
        right = self.right
        # g_k^-1 is the element that gens[k] takes to the identity
        inverses = [next(r for r, row in enumerate(right) if row[k] == 0)
                    for k in range(len(self.gens))]
        assigned = [False] * len(self.elements)
        classes = []
        for start in range(len(self.elements)):
            if assigned[start]:
                continue
            orbit = {start}
            frontier = [start]
            assigned[start] = True
            while frontier:
                nxt = []
                for idx in frontier:
                    for k, ginv in enumerate(inverses):
                        yi = right[self.product_index(ginv, idx)][k]
                        if yi not in orbit:
                            orbit.add(yi)
                            assigned[yi] = True
                            nxt.append(yi)
                frontier = nxt
            classes.append(sorted(orbit))
        return classes

    def class_label(self, indices):
        """Label one conjugacy class by order and trace data: 1, c, c2, a,
        a2, b, b2, b3 (order profile 1, 11, 11, 5, 5, 6, 3, 2)."""
        rep = indices[0]
        n = self.element_order(rep)
        if n == 1:
            return "1"
        if n == 11:
            lam = lambda_embed()
            return "c" if mat_trace(self.elements[rep]) == lam else "c2"
        if n == 5:
            a_idx = self.index.get(mat_key(gen_a()))
            if a_idx is not None and a_idx in indices:
                return "a"
            return "a2"
        return {6: "b", 3: "b2", 2: "b3"}[n]

    def labeled_classes(self):
        """{label: sorted index list} for the eight conjugacy classes."""
        out = {}
        for cls in self.conjugacy_classes():
            out[self.class_label(cls)] = cls
        return out


# ---------------------------------------------------------------------------
# representation functors and characters
# ---------------------------------------------------------------------------


class RepFunctor:
    """A functorial construction applied to the base 5-dimensional matrix:
    provides the image matrix and the character."""

    def __init__(self, name, dim, matrix_fn=None, character_fn=None):
        self.name = name
        self.dim = dim
        self._matrix_fn = matrix_fn
        self._character_fn = character_fn

    def matrix(self, m5):
        if self._matrix_fn is None:
            raise ValueError(f"functor {self.name} has no matrix form")
        return self._matrix_fn(m5)

    def character(self, table, idx):
        if self._character_fn is not None:
            return self._character_fn(table, idx)
        tr = mat_trace(self.matrix(table.elements[idx]))
        return tr


def _dual_matrix(m5):
    inv = mat_inverse(m5)
    n = len(inv)
    return tuple(tuple(inv[j][i] for j in range(n)) for i in range(n))


def _wedge2_matrix(m5):
    return tuple(tuple(row) for row in exterior_power_matrix([list(r) for r in m5], 2))


def _sym2_matrix(m):
    """Symmetric square on the basis e_i . e_j (i <= j, lex)."""
    n = len(m)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    out = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            if k == l:
                val = m[i][k] * m[j][k]
            elif i == j:
                val = m[i][k] * m[i][l] + m[i][l] * m[i][k]
            else:
                val = m[i][k] * m[j][l] + m[i][l] * m[j][k]
            row.append(val)
        out.append(tuple(row))
    return tuple(out)


def _v6_matrix(m5):
    return tuple(tuple(row) for row in v6_action([list(r) for r in m5]))


def functor_xi():
    return RepFunctor("xi", 5, matrix_fn=lambda m: m)


def functor_xi_dual():
    return RepFunctor("xi_dual", 5, matrix_fn=_dual_matrix)


def functor_wedge2():
    return RepFunctor("wedge2_xi", 10, matrix_fn=_wedge2_matrix)


def functor_sym2_wedge2():
    def char(table, idx):
        w = _wedge2_matrix(table.elements[idx])
        tr = mat_trace(w)
        sq = _wedge2_matrix(table.elements[table.square_index(idx)])
        tr2 = mat_trace(sq)
        return (tr * tr + tr2) * Fraction(1, 2)

    return RepFunctor(
        "sym2_wedge2_xi", 55, matrix_fn=lambda m: _sym2_matrix(_wedge2_matrix(m)),
        character_fn=char,
    )


def functor_v6():
    return RepFunctor("chi0_plus_xi", 6, matrix_fn=_v6_matrix)


def functor_tensor(f, g):
    def char(table, idx):
        return f.character(table, idx) * g.character(table, idx)

    return RepFunctor(f"{f.name}(x){g.name}", f.dim * g.dim, character_fn=char)


def functor_dual_of(f):
    def char(table, idx):
        value = f.character(table, idx)
        return value.conj() if isinstance(value, CycloNum) else value

    return RepFunctor(f"dual_{f.name}", f.dim, character_fn=char)


def character(f: RepFunctor, table: GroupTable, g) -> CycloNum:
    """Trace of the functor applied to a group element (index or matrix)."""
    idx = g if isinstance(g, int) else table.index_of(g)
    val = f.character(table, idx)
    if isinstance(val, Fraction):
        val = CycloNum.from_rational(val, CONDUCTOR)
    return val


def trivial_multiplicity(f: RepFunctor, table: GroupTable) -> int:
    """Multiplicity of the trivial character: the averaged character sum,
    which must come out an exact nonnegative integer."""
    total = None
    for cls in table.conjugacy_classes():
        val = f.character(table, cls[0])
        if isinstance(val, Fraction):
            val = CycloNum.from_rational(val, CONDUCTOR)
        term = val * len(cls)
        total = term if total is None else total + term
    avg = total * Fraction(1, len(table))
    frac = avg.to_fraction() if isinstance(avg, CycloNum) else Fraction(avg)
    if frac.denominator != 1 or frac < 0:
        raise ArithmeticError(f"character sum {frac} is not a nonnegative integer")
    return int(frac)


def lefschetz_surface_count(table: GroupTable, g) -> int:
    """Fixed-point count on the singular surface from the degree-2
    character data: 2 + 2*chi(g)^2 - chi(g^2).  Defined for elements of
    order 3, 5, 6, 11; order-2 elements are rejected because their fixed
    locus on the surface is a curve."""
    idx = g if isinstance(g, int) else table.index_of(g)
    n = table.element_order(idx)
    if n == 1:
        raise ValueError("identity fixes the whole surface")
    if n == 2:
        raise ValueError("fixed locus may be positive-dimensional for order 2")
    w = functor_wedge2()
    chi = character(w, table, idx)
    chi_sq = character(w, table, table.square_index(idx))
    val = 2 + 2 * chi * chi - chi_sq
    frac = val.to_fraction()
    if frac.denominator != 1:
        raise ArithmeticError(f"fixed-point count {frac} is not an integer")
    return int(frac)


def invariant_hermitian(f: RepFunctor, table: GroupTable):
    """Sum over the group of conj(F(g))^T F(g): an exactly invariant
    Hermitian matrix (conjugate-transpose symmetric)."""
    total = None
    for m in table.elements:
        fm = f.matrix(m)
        term = mat_mul(mat_conj_transpose(fm), fm)
        if total is None:
            total = [list(row) for row in term]
        else:
            for i in range(len(term)):
                row = term[i]
                trow = total[i]
                for j in range(len(row)):
                    trow[j] = trow[j] + row[j]
    return tuple(tuple(row) for row in total)


def is_hermitian(m):
    n = len(m)
    for i in range(n):
        for j in range(n):
            if m[i][j] != m[j][i].conj():
                return False
    return True


def hermitian_invariance_check(f: RepFunctor, m, generators):
    """conj(F(h))^T M F(h) == M for each generator h, exactly."""
    for h in generators:
        fh = f.matrix(h)
        lhs = mat_mul(mat_mul(mat_conj_transpose(fh), m), fh)
        if not all(
            lhs[i][j] == m[i][j] for i in range(len(m)) for j in range(len(m))
        ):
            return False
    return True


def is_totally_positive(value: CycloNum) -> bool:
    """Exact positivity for an element of the real subfield: all roots of
    the characteristic polynomial of multiplication by the element are
    positive (Descartes' rule is exact since they are all real)."""
    if not value.is_real():
        raise ValueError("positivity is defined for real elements only")
    if value.is_zero():
        return False
    if value.is_rational():
        return value.to_fraction() > 0
    n = value.n
    from .cyclo import euler_phi

    phi = euler_phi(n)
    cols = []
    for j in range(phi):
        cols.append((value * CycloNum.zeta(n, j)).coeffs())
    mult = [[cols[j][i] for j in range(phi)] for i in range(phi)]
    cp = linalg.char_poly(mult)
    # all roots positive <=> strictly alternating coefficient signs
    for i, c in enumerate(cp):
        expected = 1 if (phi - i) % 2 == 0 else -1
        if c == 0 or (1 if c > 0 else -1) != expected:
            return False
    return True


def hermitian_positive_definite(m) -> bool:
    """Leading principal minors are real and (totally) positive."""
    n = len(m)
    for k in range(1, n + 1):
        sub = [list(row[:k]) for row in m[:k]]
        minor = linalg.det(sub)
        if not isinstance(minor, CycloNum):
            if minor <= 0:
                return False
            continue
        if not minor.is_real():
            return False
        if not is_totally_positive(minor):
            return False
    return True


def stabilizer(table: GroupTable, subspace_cols, rep: RepFunctor = None):
    """Indices of elements whose image maps the column span of the given
    6 x k matrix into itself."""
    if rep is None:
        rep = functor_v6()
    if not any(any(row) for row in subspace_cols):
        raise ValueError("zero subspace")
    from .epw import span_rank

    cols = [[subspace_cols[i][j] for i in range(len(subspace_cols))]
            for j in range(len(subspace_cols[0]))]
    base_rank = span_rank(cols)
    out = []
    for idx, m in enumerate(table.elements):
        fm = rep.matrix(m)
        image = [linalg.mat_vec([list(r) for r in fm], col) for col in cols]
        if span_rank(cols + image) == base_rank:
            out.append(idx)
    return out
