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

All 660 elements are generated by breadth-first closure on integer
coordinates, the mat_key of each matrix, which is its canonical hash
key.  Each generator's right product is a cyclo.right_multiplier: for a
monomial generator with root-of-unity scalars a column permutation and a
rotation of coefficients, for the Weil generator the packed kernel with
the generator scaled and packed once.  An element's CycloNum matrix is
built once, when the closure first meets it.  The closure's
multiplication table by the generators gives products, squares, orders
and conjugacy classes (genuine conjugation orbits) by index, and
stabilizers come from orbits: each generator permutes the orbit of a
subspace, and an element's word is walked through those permutations.
Characters and fixed-point counts are computed from the closure,
exactly, for an element given by its index in the closure; CLASS_WORDS
pins the closure's word of each class's first element, so
class_representative gives it without the closure; the identity,
trace, conjugate transpose and inverse are linalg's, and the dual
representation is the transpose of linalg.inverse.  The group-summed
invariant Hermitian form is |G| * I, proved from the exact unitarity of
the generators' images; the term-by-term sum, invariant_hermitian, is
the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce

from . import cyclo, linalg
from .cyclo import CycloNum, euler_phi, lambda_embed, sqrt_minus_11

CONDUCTOR = 11
# twice the group's order: a closure that passes it has a mis-normalized generator
CLOSURE_CAP = 1320
# the highest matrix order mat_order tries
ORDER_CAP = 70

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


def gen_a():
    """Order-5 generator: the 5-cycle permutation matrix (determinant 1)."""
    zero, one = _c11(0), _c11(1)
    m = [[zero] * 5 for _ in range(5)]
    for col in range(5):
        m[(col + 1) % 5][col] = one
    return tuple(map(tuple, m))


def gen_c():
    """Order-11 generator: diag(z, z^4, z^5, z^9, z^3), determinant 1."""
    zero = _c11(0)
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
    d = linalg.det(m)
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
# products, keys and orders of matrices over the conductor-11 field
# ---------------------------------------------------------------------------


def mat_mul(a, b):
    """Exact product of two matrices over the cyclotomic field: the packed
    kernel cyclo.mat_mul."""
    return cyclo.mat_mul(a, b)


def mat_key(m):
    return tuple((e.num, e.den) for row in m for e in row)


# The closure's breadth-first word, in the generators (a, c, s) = (0, 1, 2),
# of the smallest-index element of each labeled conjugacy class
CLASS_WORDS = {
    "1": (), "a": (0,), "c": (1,), "b3": (2,), "a2": (0, 0), "c2": (1, 1),
    "b2": (0, 1, 2), "b": (0, 0, 1, 2),
}


def class_representative(gens, label):
    """The closure's first element of the class with this label, without
    the closure: the product of its word in CLASS_WORDS, gens being
    (a, c, s)."""
    word = CLASS_WORDS[label]
    if not word:
        return tuple(map(tuple, linalg.identity(len(gens[0]), _c11(1), _c11(0))))
    return reduce(mat_mul, (gens[k] for k in word))


def projective_key(m):
    """Canonical key of the projective class: scale so the first nonzero
    entry is 1."""
    lead = next(e for row in m for e in row if not e.is_zero())
    inv = lead.inverse()
    return tuple((x.num, x.den) for row in m for e in row for x in (inv * e,))


def mat_is_scalar(m):
    """Zero off the diagonal and one value on it."""
    lead = m[0][0]
    for i, row in enumerate(m):
        for j, e in enumerate(row):
            if i == j:
                if e != lead:
                    return False
            elif not e.is_zero():
                return False
    return True


def mat_order(m):
    acc = m
    for k in range(1, ORDER_CAP + 1):
        if acc[0][0] == 1 and mat_is_scalar(acc):
            return k
        acc = mat_mul(acc, m)
    raise ValueError("order exceeds cap")


# ---------------------------------------------------------------------------
# closure and the group table
# ---------------------------------------------------------------------------


def generate_group(gens):
    """Breadth-first closure under multiplication with canonical hashing;
    aborts past CLOSURE_CAP (closure exceeding it means a mis-normalized
    generator).  Records right[i][k], the index of elements[i] * gens[k],
    and words[i], the generator indices whose product is elements[i].

    The closure runs on mat_key coordinates in the conductor-11 field,
    each right product by cyclo.right_multiplier, and builds the CycloNum
    matrix of an element once, when it is first met, on its key's own
    coefficient tuples."""
    if not gens:
        raise ValueError("need at least one generator")
    ident = tuple(map(tuple, linalg.identity(len(gens[0]), _c11(1), _c11(0))))
    size = len(ident)
    keys = [mat_key(ident)]
    elements = [ident]
    index = {keys[0]: 0}
    words = [()]
    right = []
    products = [cyclo.right_multiplier(h, CONDUCTOR) for h in gens]
    # keys grows while it is walked: breadth-first order is index order
    for i, g in enumerate(keys):
        row = []
        for k, times in enumerate(products):
            key = times(g)
            j = index.get(key)
            if j is None:
                j = index[key] = len(keys)
                keys.append(key)
                elements.append(cyclo.matrix_of(CONDUCTOR, key, size))
                words.append(words[i] + (k,))
                if len(elements) > CLOSURE_CAP:
                    raise ClosureExceeded(f"closure exceeded cap {CLOSURE_CAP}")
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

    def product_index(self, i, j):
        """Index of elements[i] * elements[j]: walk j's word from i."""
        for k in self.words[j]:
            i = self.right[i][k]
        return i

    def square_index(self, i):
        return self.product_index(i, i)

    def projective_class_count(self):
        """Number of classes modulo scalars: the scalar elements form a
        subgroup Z and each class is a coset of it, so len(self) // |Z|."""
        return len(self) // sum(1 for m in self.elements if mat_is_scalar(m))

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
            return "c" if linalg.trace(self.elements[rep]) == lam else "c2"
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
        return linalg.trace(self.matrix(table.elements[idx]))


def _dual_matrix(m5):
    """The contragredient: the transpose of the inverse."""
    return tuple(zip(*linalg.inverse(m5)))


def _wedge2_matrix(m5):
    return tuple(tuple(row) for row in linalg.exterior_power_matrix(m5, 2))


def _v6_matrix(m5):
    """Extend a 5 x 5 matrix to 6 x 6 acting trivially on coordinate 0."""
    zero = m5[0][0] * 0
    return ((zero + 1,) + (zero,) * 5,) + tuple((zero,) + tuple(row) for row in m5)


def functor_xi():
    return RepFunctor("xi", 5, matrix_fn=lambda m: m)


def functor_xi_dual():
    return RepFunctor("xi_dual", 5, matrix_fn=_dual_matrix)


def functor_wedge2():
    return RepFunctor("wedge2_xi", 10, matrix_fn=_wedge2_matrix)


def functor_sym2_wedge2():
    def char(table, idx):
        w = _wedge2_matrix(table.elements[idx])
        tr = linalg.trace(w)
        sq = _wedge2_matrix(table.elements[table.square_index(idx)])
        tr2 = linalg.trace(sq)
        return (tr * tr + tr2) * Fraction(1, 2)

    return RepFunctor("sym2_wedge2_xi", 55, character_fn=char)


def character(f: RepFunctor, table: GroupTable, idx) -> CycloNum:
    """Trace of the functor applied to the element of this index."""
    return f.character(table, idx)


def trivial_multiplicity(f: RepFunctor, table: GroupTable) -> int:
    """Multiplicity of the trivial character: the averaged character sum,
    which must come out an exact nonnegative integer."""
    total = None
    for cls in table.conjugacy_classes():
        term = f.character(table, cls[0]) * len(cls)
        total = term if total is None else total + term
    value = (total * Fraction(1, len(table))).to_int()
    if value < 0:
        raise ArithmeticError(f"character sum {value} is negative")
    return value


def lefschetz_surface_count(table: GroupTable, idx) -> int:
    """Fixed-point count on the singular surface from the degree-2
    character data of the element g of this index: 2 + 2*chi(g)^2 -
    chi(g^2).  Defined for elements of order 3, 5, 6, 11; order-2 elements
    are rejected because their fixed locus on the surface is a curve."""
    n = table.element_order(idx)
    if n == 1:
        raise ValueError("identity fixes the whole surface")
    if n == 2:
        raise ValueError("fixed locus may be positive-dimensional for order 2")
    w = functor_wedge2()
    chi = character(w, table, idx)
    chi_sq = character(w, table, table.square_index(idx))
    return (2 + 2 * chi * chi - chi_sq).to_int()


def invariant_hermitian(f: RepFunctor, table: GroupTable):
    """Sum over the group of conj(F(g))^T F(g): an exactly invariant
    Hermitian matrix (conjugate-transpose symmetric)."""
    total = None
    for m in table.elements:
        fm = f.matrix(m)
        term = mat_mul(linalg.conj_transpose(fm), fm)
        if total is None:
            total = [list(row) for row in term]
        else:
            for i in range(len(term)):
                row = term[i]
                trow = total[i]
                for j in range(len(row)):
                    trow[j] = trow[j] + row[j]
    return tuple(tuple(row) for row in total)


def unitary_group_sum(f: RepFunctor, generators, order):
    """The sum over the group generated by `generators` of
    conj(F(g))^T F(g), proved rather than summed: if conj(F(h))^T F(h) == I
    exactly for every generator h, then, F being a homomorphism, every
    F(g) is a product of unitaries, so every term is I and the sum is
    order * I.  Returns None when some generator's image is not unitary;
    invariant_hermitian's term-by-term sum is the oracle."""
    ident = linalg.identity(f.dim, _c11(1), _c11(0))
    if not hermitian_invariance_check(f, ident, generators):
        return None
    return tuple(tuple(e * order for e in row) for row in ident)


def hermitian_invariance_check(f: RepFunctor, m, generators):
    """conj(F(h))^T M F(h) == M for each generator h, exactly."""
    for h in generators:
        fh = f.matrix(h)
        lhs = mat_mul(mat_mul(linalg.conj_transpose(fh), m), fh)
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
    phi = euler_phi(n)
    cols = []
    for j in range(phi):
        cols.append((value * CycloNum.zeta(n, j)).coeffs())
    mult = [[cols[j][i] for j in range(phi)] for i in range(phi)]
    return linalg.descartes_positive_roots(linalg.char_poly(mult)) == phi


def hermitian_positive_definite(m) -> bool:
    """Leading principal minors are real and (totally) positive."""
    n = len(m)
    for k in range(1, n + 1):
        minor = linalg.det([row[:k] for row in m[:k]])
        if not isinstance(minor, CycloNum):
            if minor <= 0:
                return False
            continue
        if not minor.is_real():
            return False
        if not is_totally_positive(minor):
            return False
    return True


def _echelon(vectors):
    """The reduced row echelon basis of the span of vectors (CycloNums of
    one conductor) and its key; equal spans give equal keys."""
    red, pivots = linalg.rref(vectors)
    basis = red[:len(pivots)]
    return basis, tuple((x.num, x.den) for row in basis for x in row)


def stabilizer(table: GroupTable, subspace_cols):
    """Indices of elements whose image maps the column span of the given
    6 x k matrix into itself under the action on V6 (_v6_matrix).

    Orbit-stabilizer (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2005, section 4.1): a breadth-first search over the span's
    orbit under the generators' images, each span keyed by its reduced
    echelon form over one cyclotomic field, records each generator as a
    permutation of the orbit.  elements[i] = g_k1 ... g_km for words[i] =
    (k1, ..., km), so its image of the span is found by walking the word
    through those permutations right to left."""
    if not any(any(row) for row in subspace_cols):
        raise ValueError("zero subspace")
    # the transposed images of the generators, then the spanning vectors,
    # as rows over one cyclotomic field
    rows = [col for g in table.gens for col in zip(*_v6_matrix(g))]
    rows = cyclo.common_field(rows + list(zip(*subspace_cols)))
    d = len(subspace_cols)
    transposed = [rows[k:k + d] for k in range(0, d * len(table.gens), d)]
    start, key = _echelon(rows[d * len(table.gens):])
    orbit, index = [start], {key: 0}
    perms = [[] for _ in transposed]
    # orbit grows while it is walked
    for basis in orbit:
        for perm, mt in zip(perms, transposed):
            image, key = _echelon(cyclo.mat_mul(basis, mt))
            j = index.get(key)
            if j is None:
                j = index[key] = len(orbit)
                orbit.append(image)
            perm.append(j)
    out = []
    for idx, word in enumerate(table.words):
        point = 0
        for k in reversed(word):
            point = perms[k][point]
        if point == 0:
            out.append(idx)
    return out
