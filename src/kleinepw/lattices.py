"""Integral quadratic lattices, discriminant forms, and vector enumeration.

A lattice is a nondegenerate symmetric integer Gram matrix.  Its
discriminant group is the cokernel of the Gram matrix, computed through
the Smith normal form, and carries a Q/2Z-valued quadratic form (the
lattices used here are all even).  Short vectors of definite lattices
are enumerated completely with an exact rational Cholesky decomposition;
finite-quadratic-form isometries are found by brute force on groups of
order up to 10^4.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

from . import linalg


class Lattice:
    """Nondegenerate symmetric integer Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram):
        g = [list(map(int, row)) for row in gram]
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        if linalg.det(g) == 0:
            raise ValueError("degenerate Gram matrix")
        self.gram = tuple(tuple(row) for row in g)

    @property
    def rank(self):
        return len(self.gram)

    def det(self):
        return linalg.det([list(r) for r in self.gram])

    def signature(self):
        return linalg.symmetric_signature([list(r) for r in self.gram])

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def norm(self, v):
        return sum(
            v[i] * self.gram[i][j] * v[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

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


def from_gram(rows):
    return Lattice(rows)


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


def parse_lattice_spec(spec: str) -> Lattice:
    """Symbolic sums like "U+U+E8(-1)+E8(-1)+(-2)+(-2)" or a JSON Gram
    matrix ("[[0,1],[1,0]]")."""
    spec = spec.strip()
    if spec.startswith("[["):
        return Lattice(json.loads(spec))
    parts = []
    depth = 0
    current = []
    for ch in spec:
        if ch == "(" or ch == "[":
            depth += 1
        elif ch == ")" or ch == "]":
            depth -= 1
        if ch == "+" and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
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
            summands.append(Lattice(json.loads(part)))
        else:
            raise ValueError(f"cannot parse lattice term {part!r}")
    return direct_sum(*summands)


# ---------------------------------------------------------------------------
# discriminant groups and finite quadratic forms
# ---------------------------------------------------------------------------


def _reduce_mod(x: Fraction, m: int) -> Fraction:
    x = Fraction(x)
    k = x / m
    return x - m * (k.numerator // k.denominator)


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
        total = 1
        for d in self.orders:
            total *= d
        return total

    def is_trivial(self):
        return self.order == 1

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

    def isotropic_elements(self, cap=10**4):
        """All nonzero x with q(x) = 0 in Q/2Z."""
        if self.order > cap:
            raise ValueError(f"group order {self.order} exceeds cap {cap}")
        out = []
        for x in self.elements():
            if any(x) and self.q(x) == 0:
                out.append(x)
        return out

    def torsion_subform(self, m):
        """The m-torsion subgroup with its restricted form, generated by
        (d_i/gcd(d_i, m)) * gen_i."""
        mults = []
        orders = []
        for d in self.orders:
            g = gcd(d, m)
            mults.append(d // g)
            orders.append(g)
        k = len(self.orders)
        gram = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                val = mults[i] * mults[j] * self.gram[i][j]
                gram[i][j] = _reduce_mod(val, 2 if i == j else 1)
        keep = [i for i in range(k) if orders[i] > 1]
        return FiniteQuadraticForm(
            [orders[i] for i in keep],
            [[gram[i][j] for j in keep] for i in keep],
        )

    def isometries(self, other, cap=10**4):
        """All group isomorphisms preserving the quadratic form, as tuples
        of generator images; exhaustive search."""
        if self.order != other.order:
            return []
        if self.order > cap:
            raise ValueError(f"group order {self.order} exceeds cap {cap}")
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

    def is_isomorphic(self, other, cap=10**4):
        return bool(self.isometries(other, cap))

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
    g = [list(r) for r in lat.gram]
    n = lat.rank
    diag, left, right = linalg.smith_normal_form(g)
    dual_gens = []
    orders = []
    for i, d in enumerate(diag):
        if d in (1, -1):
            continue
        orders.append(abs(d))
        # generator: (column i of right) / d, in lattice coordinates
        dual_gens.append([Fraction(right[r][i], d) for r in range(n)])
    k = len(dual_gens)
    gram = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            val = sum(
                dual_gens[i][r] * lat.gram[r][s] * dual_gens[j][s]
                for r in range(n)
                for s in range(n)
            )
            gram[i][j] = _reduce_mod(val, 2 if i == j else 1)
    return FiniteQuadraticForm(orders, gram)


# ---------------------------------------------------------------------------
# short vector enumeration (exact Fincke-Pohst)
# ---------------------------------------------------------------------------


def _ldl(gram):
    """Exact decomposition Q(x) = sum_i d_i (x_i + sum_{j>i} l_ij x_j)^2
    for a positive definite rational Gram matrix."""
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    l = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = q[i][i]
        if d[i] <= 0:
            raise ValueError("matrix not positive definite")
        for j in range(i + 1, n):
            l[i][j] = q[i][j] / d[i]
        for r in range(i + 1, n):
            for s in range(r, n):
                q[r][s] -= d[i] * l[i][r] * l[i][s]
                q[s][r] = q[r][s]
    return d, l


def _floor_sqrt(fr: Fraction) -> int:
    if fr < 0:
        raise ValueError("negative radicand")
    return isqrt(fr.numerator * fr.denominator) // fr.denominator


def short_vectors(lat: Lattice, bound: int):
    """All nonzero vectors with |norm| <= bound in a definite lattice,
    as a deterministically ordered list of (vector, norm); complete
    enumeration, closed under negation."""
    pos, neg = lat.signature()
    if pos and neg:
        raise ValueError("short-vector enumeration needs a definite lattice")
    sign = 1 if neg == 0 else -1
    gram = [[sign * x for x in row] for row in lat.gram]
    n = lat.rank
    d, l = _ldl(gram)
    out = []
    x = [0] * n
    bound_f = Fraction(bound)

    def recurse(i, remaining):
        if i < 0:
            if any(x):
                used = bound_f - remaining
                if used.denominator != 1:
                    raise ArithmeticError(f"non-integer norm {used}")
                out.append((tuple(x), sign * int(used)))
            return
        center = sum(l[i][j] * x[j] for j in range(i + 1, n))
        radius = remaining / d[i]
        root = _floor_sqrt(radius)
        lo = -center - root - 1
        lo_int = lo.numerator // lo.denominator
        hi = -center + root + 1
        hi_int = hi.numerator // hi.denominator + 1
        for xi in range(lo_int, hi_int + 1):
            diff = xi + center
            used = d[i] * diff * diff
            if used <= remaining:
                x[i] = xi
                recurse(i - 1, remaining - used)
        x[i] = 0

    recurse(n - 1, bound_f)
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


def represents(lat: Lattice, value: int) -> bool:
    return bool(vectors_of_norm(lat, value))


def primitively_represents(lat: Lattice, value: int) -> bool:
    for vec in vectors_of_norm(lat, value):
        g = 0
        for c in vec:
            g = gcd(g, c)
        if g == 1:
            return True
    return False


def orthogonal_complement(lat: Lattice, vector):
    """Sublattice orthogonal to an integer vector, with its restricted Gram."""
    gv = [sum(lat.gram[i][j] * vector[j] for j in range(lat.rank)) for i in range(lat.rank)]
    basis = linalg.int_kernel_basis([gv])
    gram = [
        [
            sum(bi[r] * lat.gram[r][s] * bj[s] for r in range(lat.rank) for s in range(lat.rank))
            for bj in basis
        ]
        for bi in basis
    ]
    return Lattice(gram), basis
