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

All 660 elements are generated on integer coordinates, the mat_key of
each matrix, which is its canonical hash key, by the right cosets of the
subgroup H = <a, c> of order 55 (Holt, Eick & O'Brien, Handbook of
Computational Group Theory, 2005, section 4.1).  Each generator's right
product is a cyclo.right_multiplier: for a monomial generator with
root-of-unity scalars a column permutation and a rotation of
coefficients, for the Weil generator the packed kernel with the
generator scaled and packed once.  H is closed breadth-first; only the
12 coset representatives take right products, and the 55 keys of a new
coset are left monomial products, rows permuted and coefficients
rotated.  H's own table gives every coset's right table, and one integer
breadth-first walk from the identity relabels the elements in the order
of a breadth-first closure on the whole group.  An element's CycloNum
matrix is built once, at the end.  The closure's multiplication table by
the generators gives products, squares and orders by index.  Every orbit
walk is the one breadth-first walk _breadth_first: H, the relabelling,
each conjugacy class (a genuine conjugation orbit) and each stabilizer's
orbit of subspaces, whose echelon keys the generators' images map by
cyclo.right_multiplier; an element's word is walked through the orbit's
permutations.  Characters and fixed-point counts are computed exactly
for an element given by its index in the closure, the wedge square's
from the sum of principal 2 x 2 minors (its matrix is
linalg.exterior_power_matrix); CLASS_WORDS pins the closure's word of
each class's first element, so class_representative gives it without
the closure; the dual representation is the transpose of
linalg.inverse.  The group-summed invariant Hermitian form is |G| * I,
proved from the exact unitarity of the generators' images, and positive
definite by its leading minors read as exact positive rationals; the
term-by-term sum, invariant_hermitian, is the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count
from operator import add

from . import cyclo, linalg
from .cyclo import CycloNum, lambda_embed, sqrt_minus_11

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


def _breadth_first(start, maps):
    """Breadth-first closure of the key start under the maps, aborting past
    CLOSURE_CAP: the keys in index order, the table right[i][k], the index
    of maps[k](keys[i]), and words[i], the map indices that take start to
    keys[i].  A key is any hashable: mat_key coordinates, or a position."""
    keys, index, words, right = [start], {start: 0}, [()], []
    # keys grows while it is walked: breadth-first order is index order
    for i, g in enumerate(keys):
        row = []
        for k, times in enumerate(maps):
            key = times(g)
            j = index.get(key)
            if j is None:
                j = index[key] = len(keys)
                keys.append(key)
                words.append(words[i] + (k,))
                if len(keys) > CLOSURE_CAP:
                    raise ClosureExceeded(f"closure exceeded cap {CLOSURE_CAP}")
            row.append(j)
        right.append(tuple(row))
    return keys, right, words


def generate_group(gens):
    """Breadth-first closure under multiplication with canonical hashing;
    aborts past CLOSURE_CAP (closure exceeding it means a mis-normalized
    generator).  Records right[i][k], the index of elements[i] * gens[k],
    and words[i], the generator indices whose product is elements[i].

    The closure runs on mat_key coordinates in the conductor-11 field, by
    the right cosets H t of the subgroup H generated by the monomial
    generators (those with unit_columns, which cyclo.right_multiplier
    rotates instead of multiplying).  H is closed breadth-first.  Each
    coset representative t takes one right product t g_k per generator;
    a product x outside the cosets met so far starts a new coset, whose
    keys h x are left monomial products.  As (h t) g_k = h (t g_k) =
    (h h') t' when t g_k = h' t', the right table of every coset comes
    from its representative's row and H's own table.  One breadth-first
    walk on positions from the identity then relabels the elements, so
    the order, the words and the right table are those of the
    breadth-first closure on all of the group.  The CycloNum matrix of
    each element is built once, on its key's own coefficient tuples."""
    if not gens:
        raise ValueError("need at least one generator")
    ident = tuple(map(tuple, linalg.identity(len(gens[0]), _c11(1), _c11(0))))
    size = len(ident)
    products = [cyclo.right_multiplier(h, CONDUCTOR) for h in gens]
    monomial = [times for h, times in zip(gens, products) if cyclo.unit_columns(
        cyclo.coordinates(h, CONDUCTOR), CONDUCTOR, len(h[0])) is not None]
    h_keys, h_right, h_words = _breadth_first(mat_key(ident), monomial)
    h_units = [cyclo.unit_columns(key, CONDUCTOR, size) for key in h_keys]
    order = len(h_keys)

    @lru_cache(maxsize=None)
    def times_h(h2):
        """The index in H of h h2 for each h: h2's word walked from h."""
        return [reduce(lambda x, k: h_right[x][k], h_words[h2], h) for h in range(order)]

    # keys[c * order + h] is h t_c for the coset representative t_c
    keys = list(h_keys)
    index = {key: e for e, key in enumerate(keys)}
    cosets = []  # cosets[c][k] = (c2, h2) with t_c g_k = h2 t_c2
    # keys grows while its coset representatives are walked
    for t in count(0, order):
        if t == len(keys):
            break
        row = []
        for times in products:
            x = times(keys[t])
            e = index.get(x)
            if e is None:
                e = len(keys)
                if e + order > CLOSURE_CAP:
                    raise ClosureExceeded(f"closure exceeded cap {CLOSURE_CAP}")
                for units in h_units:
                    key = cyclo.left_monomial_product(CONDUCTOR, units, x, size)
                    index[key] = len(keys)
                    keys.append(key)
            row.append(divmod(e, order))
        cosets.append(row)

    def coset_times(k):
        """e -> the position of keys[e] g_k: (h t_c) g_k = (h h2) t_c2."""
        def times(e):
            c, h = divmod(e, order)
            c2, h2 = cosets[c][k]
            return c2 * order + times_h(h2)[h]
        return times

    walk, right, words = _breadth_first(0, [coset_times(k) for k in range(len(gens))])
    elements = [cyclo.matrix_of(CONDUCTOR, keys[e], size) for e in walk]
    index = {keys[e]: i for i, e in enumerate(walk)}
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
        """Sorted index lists: the orbits of x -> g^-1 x g over the
        generators g, by _breadth_first, in order of smallest member."""
        right = self.right
        # g_k^-1 is the element that gens[k] takes to the identity
        inverses = [next(r for r, row in enumerate(right) if row[k] == 0)
                    for k in range(len(self.gens))]
        maps = [lambda x, k=k, ginv=ginv: right[self.product_index(ginv, x)][k]
                for k, ginv in enumerate(inverses)]
        seen, classes = set(), []
        for start in range(len(self.elements)):
            if start not in seen:
                orbit = _breadth_first(start, maps)[0]
                seen.update(orbit)
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

    def __init__(self, name, matrix_fn=None, character_fn=None):
        self.name = name
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


def _v6_matrix(m5):
    """Extend a 5 x 5 matrix to 6 x 6 acting trivially on coordinate 0."""
    zero = m5[0][0] * 0
    return ((zero + 1,) + (zero,) * 5,) + tuple((zero,) + tuple(row) for row in m5)


def functor_xi():
    return RepFunctor("xi", matrix_fn=lambda m: m)


def functor_xi_dual():
    return RepFunctor("xi_dual", matrix_fn=_dual_matrix)


def _wedge2_character(table, idx):
    """The trace of the wedge square: the principal 2 x 2 minors' sum, with
    no 10 x 10 matrix built."""
    return linalg.exterior_power_trace(table.elements[idx], 2)


def functor_wedge2():
    return RepFunctor("wedge2_xi", matrix_fn=lambda m: linalg.exterior_power_matrix(m, 2),
                      character_fn=_wedge2_character)


def functor_sym2_wedge2():
    def char(table, idx):
        tr = _wedge2_character(table, idx)
        tr2 = _wedge2_character(table, table.square_index(idx))
        return (tr * tr + tr2) * Fraction(1, 2)

    return RepFunctor("sym2_wedge2_xi", character_fn=char)


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
    terms = (mat_mul(linalg.conj_transpose(fm), fm) for fm in map(f.matrix, table.elements))
    return reduce(lambda s, t: tuple(tuple(map(add, r, q)) for r, q in zip(s, t)), terms)


def unitary_group_sum(images, order):
    """The sum over a group of conj(F(g))^T F(g), given the images F(h) of
    its generators, proved rather than summed: if conj(F(h))^T F(h) == I
    exactly for every generator h, then, F being a homomorphism, every
    F(g) is a product of unitaries, so every term is I and the sum is
    order * I.  Returns None when some generator's image is not unitary;
    invariant_hermitian's term-by-term sum is the oracle."""
    ident = linalg.identity(len(images[0]), _c11(1), _c11(0))
    if not hermitian_invariance_check(ident, images):
        return None
    return tuple(tuple(e * order for e in row) for row in ident)


def hermitian_invariance_check(m, images):
    """conj(H)^T M H == M, exactly, for each generator image H."""
    return all(linalg.mat_eq(mat_mul(mat_mul(linalg.conj_transpose(fh), m), fh), m)
               for fh in images)


def hermitian_positive_definite(m) -> bool:
    """Every leading principal minor is a positive rational, all of them
    from one elimination without row swaps (linalg.leading_minors, which
    stops at the first zero minor).  The group-summed forms have rational
    minors; an irrational one is not decided, and its to_fraction raises
    ValueError."""
    return all(d.to_fraction() > 0 for d in linalg.leading_minors(m))


def _echelon(rows):
    """The key of the span of rows (CycloNums of one conductor): the
    row-major (num, den) coordinates of its reduced row echelon basis, so
    equal spans give equal keys.  Apart from epw._echelon because the key
    is read off CycloNum entries, which a rational span lifted to one
    conductor still has, and is the coordinates cyclo.right_multiplier
    maps."""
    red, pivots = linalg.rref(rows)
    return tuple((x.num, x.den) for row in red[:len(pivots)] for x in row)


def stabilizer(table: GroupTable, subspace_cols):
    """Indices of elements whose image maps the column span of the given
    6 x k matrix into itself under the action on V6 (_v6_matrix).

    Orbit-stabilizer (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2005, section 4.1): _breadth_first, the closure's walk, closes
    the span's orbit under the generators' images, each span keyed by
    _echelon over one cyclotomic field.  A generator maps a key's rows by
    its transposed image through cyclo.right_multiplier, the closure's
    kernel, built once per generator; the walk's table right[i][k] is
    each generator as a permutation of the orbit.  elements[i] = g_k1 ...
    g_km for words[i] = (k1, ..., km), so its image of the span is found by
    walking the word through those permutations right to left."""
    if not any(any(row) for row in subspace_cols):
        raise ValueError("zero subspace")
    # the transposed images of the generators, then the spanning vectors,
    # as rows over one cyclotomic field
    images = [tuple(zip(*_v6_matrix(g))) for g in table.gens]
    rows = cyclo.common_field([row for h in images for row in h] + list(zip(*subspace_cols)))
    n, width = rows[0][0].n, len(rows[0])

    def image_of(h):
        times = cyclo.right_multiplier(h, n)
        return lambda key: _echelon(cyclo.matrix_of(n, times(key), width))

    start = _echelon(rows[width * len(images):])
    _, right, _ = _breadth_first(start, [image_of(h) for h in images])
    out = []
    for idx, word in enumerate(table.words):
        point = 0
        for k in reversed(word):
            point = right[point][k]
        if point == 0:
            out.append(idx)
    return out
