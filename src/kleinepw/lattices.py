"""Integral quadratic lattices, discriminant forms, and vector enumeration.

A lattice is a nondegenerate symmetric integer Gram matrix.  Its
discriminant group is the cokernel of the Gram matrix, computed through
the Smith normal form, and carries a Q/2Z-valued quadratic form (the
lattices used here are all even).  Short vectors of definite lattices
are enumerated completely by Fincke-Pohst on integers, from the
fraction-free LDL^T of linalg.symmetric_elimination; each lattice runs it
once, and it also gives the determinant (its last leading minor) and the
signature (the signs of its pivots).  Finite-quadratic-form isometries
and isotropic elements are found by brute force on groups of order up to
the constant MAX_ORDER = 10^4.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm, prod

from . import linalg

# the largest discriminant group order searched element by element
MAX_ORDER = 10**4


class Lattice:
    """Nondegenerate symmetric integer Gram matrix, with its one exact
    symmetric elimination (rows, minors): the determinant is the last
    minor, the signature the signs of the pivots, and short_vectors
    enumerates on the rows."""

    __slots__ = ("gram", "elimination")

    def __init__(self, gram):
        if not all(isinstance(row, (list, tuple)) for row in gram):
            raise ValueError("Gram matrix must be a list of rows")
        bad = next((x for row in gram for x in row if type(x) is not int), None)
        if bad is not None:
            raise ValueError(f"Gram matrix entries must be integers, got {bad!r}")
        g = [list(row) for row in gram]
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        try:
            self.elimination = linalg.symmetric_elimination(g)
        except ValueError:
            raise ValueError("degenerate Gram matrix") from None
        self.gram = tuple(tuple(row) for row in g)

    @property
    def rank(self):
        return len(self.gram)

    def det(self):
        return self.elimination[1][-1]

    def signature(self):
        """(positives, negatives): the signs of the pivots D_(k+1)/D_k,
        exact by Sylvester's law of inertia."""
        minors = self.elimination[1]
        pos = sum(1 for a, b in zip(minors, minors[1:]) if (a > 0) == (b > 0))
        return pos, self.rank - pos

    def inner(self, v, w):
        """The bilinear form v^T G w, for integer or rational vectors."""
        return sum(x * y for x, y in zip(v, linalg.mat_vec(self.gram, w)))

    def __repr__(self):
        return f"Lattice(rank={self.rank}, det={self.det()})"


def hyperbolic_plane():
    return Lattice([[0, 1], [1, 0]])


def e8(sign=-1):
    """The even unimodular rank-8 Gram (negated by default): chain of
    eight nodes 1..7 plus a node attached to the fifth."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    chain = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
    for i, j in chain:
        g[i][j] = g[j][i] = -1
    if sign < 0:
        g = [[-x for x in row] for row in g]
    return Lattice(g)


def rank1(m):
    return Lattice([[m]])


def direct_sum(*lattices):
    total = sum(l.rank for l in lattices)
    g = [[0] * total for _ in range(total)]
    offset = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                g[offset + i][offset + j] = l.gram[i][j]
        offset += l.rank
    return Lattice(g)


def _json_lattice(text):
    try:
        gram = json.loads(text)
    except RecursionError:
        raise ValueError("Gram matrix JSON nested too deeply") from None
    return Lattice(gram)


def parse_lattice_spec(spec: str) -> Lattice:
    """Direct sums like "U+U+E8(-1)+(-2)"; any summand, the first or a lone
    one included, may be a JSON Gram matrix ("[[0,1],[1,0]]+E8(1)").  The
    sum is split at each "+" outside brackets, so a JSON matrix is one
    summand; unbalanced brackets are a ValueError."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(spec):
        depth += (ch in "([") - (ch in ")]")
        if ch == "+" and depth == 0:
            parts.append(spec[start:i].strip())
            start = i + 1
    if depth:
        raise ValueError(f"unbalanced brackets in lattice spec {spec!r}")
    parts.append(spec[start:].strip())
    summands = []
    for part in parts:
        if not part:
            raise ValueError("empty lattice term")
        if part == "U":
            summands.append(hyperbolic_plane())
        elif part in ("E8", "E8(1)"):
            summands.append(e8(+1))
        elif part == "E8(-1)":
            summands.append(e8(-1))
        elif part.startswith("(") and part.endswith(")"):
            summands.append(rank1(int(part[1:-1])))
        elif part.startswith("[["):
            summands.append(_json_lattice(part))
        else:
            raise ValueError(f"cannot parse lattice term {part!r}")
    return direct_sum(*summands)


# ---------------------------------------------------------------------------
# discriminant groups and finite quadratic forms
# ---------------------------------------------------------------------------


def _reduce_mod(x: Fraction, m: int) -> Fraction:
    return Fraction(x) % m


class FiniteQuadraticForm:
    """Finite abelian group (Z/d1 x ... x Z/dk, d1 | d2 | ...) with a
    Q/2Z-valued quadratic form: values stored as exact rationals in
    [0, 2) on the diagonal and pairings in [0, 1) off the diagonal."""

    __slots__ = ("orders", "gram")

    def __init__(self, orders, gram):
        self.orders = tuple(int(d) for d in orders)
        g = [[Fraction(x) for x in row] for row in gram]
        for i in range(len(g)):
            for j in range(len(g)):
                g[i][j] = _reduce_mod(g[i][j], 2 if i == j else 1)
        self.gram = tuple(tuple(row) for row in g)

    @property
    def order(self):
        return prod(self.orders)

    def elements(self):
        return product(*(range(d) for d in self.orders))

    def q(self, x):
        """Quadratic value of sum x_i * gen_i, reduced into [0, 2)."""
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            if x[i]:
                total += x[i] * x[i] * self.gram[i][i]
                for j in range(i + 1, k):
                    if x[j]:
                        total += 2 * x[i] * x[j] * self.gram[i][j]
        return _reduce_mod(total, 2)

    def pairing(self, x, y):
        """Q/Z-valued symmetric pairing; on the diagonal it is the mod-1
        reduction of the quadratic value."""
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            for j in range(k):
                if x[i] and y[j]:
                    total += x[i] * y[j] * self.gram[i][j]
        return _reduce_mod(total, 1)

    def element_order(self, x):
        n = 1
        for xi, d in zip(x, self.orders):
            if xi:
                n = n * (d // gcd(d, xi)) // gcd(n, d // gcd(d, xi))
        return n

    def isotropic_elements(self):
        """All nonzero x with q(x) = 0 in Q/2Z."""
        if self.order > MAX_ORDER:
            raise ValueError(f"group order {self.order} exceeds cap {MAX_ORDER}")
        return [x for x in self.elements() if any(x) and self.q(x) == 0]

    def torsion_subform(self, m):
        """The m-torsion subgroup with its restricted form, generated by
        (d_i/gcd(d_i, m)) * gen_i."""
        mults = []
        orders = []
        for d in self.orders:
            g = gcd(d, m)
            mults.append(d // g)
            orders.append(g)
        keep = [i for i in range(len(self.orders)) if orders[i] > 1]
        return FiniteQuadraticForm(
            [orders[i] for i in keep],
            [[mults[i] * mults[j] * self.gram[i][j] for j in keep] for i in keep],
        )

    def isometries(self, other):
        """All group isomorphisms preserving the quadratic form, as tuples
        of generator images; exhaustive search."""
        if self.order != other.order:
            return []
        if self.order > MAX_ORDER:
            raise ValueError(f"group order {self.order} exceeds cap {MAX_ORDER}")
        self_gens = []
        k = len(self.orders)
        other_elems = list(other.elements())
        candidates = []
        for i in range(k):
            want_q = self.gram[i][i]
            cands = [
                y
                for y in other_elems
                if other.element_order(y) == self.orders[i]
                and other.q(y) == _reduce_mod(want_q, 2)
            ]
            candidates.append(cands)
        out = []
        for images in product(*candidates):
            ok = True
            for i in range(k):
                for j in range(i + 1, k):
                    if other.pairing(images[i], images[j]) != self.gram[i][j]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            if _spans(images, other):
                out.append(images)
        return out

    def is_isomorphic(self, other):
        return bool(self.isometries(other))

    def __repr__(self):
        return f"FiniteQuadraticForm(orders={self.orders}, gram={self.gram})"


def _spans(images, fqf):
    seen = {tuple([0] * len(fqf.orders))}
    frontier = [tuple([0] * len(fqf.orders))]
    gens = [tuple(img) for img in images]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % d for a, b, d in zip(x, g, fqf.orders))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == fqf.order


def disc_group(lat: Lattice) -> FiniteQuadraticForm:
    """Discriminant group (cokernel of the Gram matrix) with its induced
    Q/2Z-valued form, via the Smith normal form."""
    n = lat.rank
    diag, left, right = linalg.smith_normal_form(lat.gram)
    dual_gens = []
    orders = []
    for i, d in enumerate(diag):
        if d in (1, -1):
            continue
        orders.append(abs(d))
        # generator: (column i of right) / d, in lattice coordinates
        dual_gens.append([Fraction(right[r][i], d) for r in range(n)])
    gram = [[lat.inner(u, w) for w in dual_gens] for u in dual_gens]
    return FiniteQuadraticForm(orders, gram)


# ---------------------------------------------------------------------------
# short vector enumeration (exact Fincke-Pohst on integers)
# ---------------------------------------------------------------------------


def short_vectors(lat: Lattice, bound: int):
    """All nonzero vectors with |norm| <= bound in a definite lattice,
    as a deterministically ordered list of (vector, norm); complete
    enumeration, closed under negation."""
    rows, minors = lat.elimination
    scales = [a * b for a, b in zip(minors, minors[1:])]  # signed like the pivots
    if any(c > 0 for c in scales) and any(c < 0 for c in scales):
        raise ValueError("short-vector enumeration needs a definite lattice")
    sign = -1 if scales and scales[0] < 0 else 1
    # |norm(x)| = sum_k y_k^2 / |D_k D_(k+1)| with y_k = rows[k] . x, so on
    # the budget bound * common level k has an integer weight, and
    # +-y_k = p x_k + t with p > 0, t summed over the terms (j, c), j > k
    common = lcm(*scales)
    levels = []
    for k, (row, c) in enumerate(zip(rows, scales)):
        s = 1 if row[k] > 0 else -1
        levels.append((s * row[k], [(j, s * v) for j, v in enumerate(row) if j > k and v],
                       common // abs(c)))
    out = []
    x = [0] * lat.rank
    budget = bound * common

    def recurse(k, remaining):
        if k < 0:
            if any(x):
                used = budget - remaining
                if used % common:
                    raise ArithmeticError(f"non-integer norm {Fraction(used, common)}")
                out.append((tuple(x), sign * (used // common)))
            return
        p, terms, w = levels[k]
        t = 0
        for j, c in terms:
            t += c * x[j]
        r = isqrt(remaining // w)
        # exactly the x_k with (p x_k + t)^2 <= remaining / w
        for xk in range(-((r + t) // p), (r - t) // p + 1):
            y = p * xk + t
            x[k] = xk
            recurse(k - 1, remaining - w * y * y)
        x[k] = 0

    recurse(lat.rank - 1, budget)
    out.sort()
    return out


def vectors_of_norm(lat: Lattice, value: int):
    if value == 0:
        return []
    pos, neg = lat.signature()
    if pos and neg:
        raise ValueError("enumeration needs a definite lattice")
    if (neg == 0 and value < 0) or (pos == 0 and value > 0):
        return []
    return [v for v, norm in short_vectors(lat, abs(value)) if norm == value]


def represented_norms(lat: Lattice, bound: int):
    """Set of nonzero values |v| <= bound represented by the lattice, and
    the subset represented primitively."""
    all_norms = set()
    primitive = set()
    for vec, norm in short_vectors(lat, bound):
        all_norms.add(norm)
        g = 0
        for c in vec:
            g = gcd(g, c)
        if g == 1:
            primitive.add(norm)
    return all_norms, primitive


def orthogonal_complement(lat: Lattice, vector):
    """Sublattice orthogonal to an integer vector, with its restricted Gram."""
    basis = linalg.int_kernel_basis([linalg.mat_vec(lat.gram, vector)])
    return Lattice([[lat.inner(u, w) for w in basis] for u in basis]), basis
