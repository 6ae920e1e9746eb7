"""Sparse multivariate polynomials over exact coefficients.

MultiPoly stores a map from exponent tuples to nonzero coefficients; the
coefficient domain is anything supporting ring arithmetic (int, Fraction,
CycloNum, ...).  The ring operations build their results through one
hook, _with_terms, so a subclass can fix the coefficient ring:
groebner.FPoly is MultiPoly over F_p, whose hook reduces coefficients
modulo p.  A second hook, _inverse, inverts the leading coefficient for
divmod and monic: through Fraction here, modulo p in FPoly.  A third,
_monomial_product, is where a product meets the keys, so groebner expands
Jacobian minors on packed monomials through this same product.  The
canonical term order is graded reverse lexicographic over the declared
variable order.  divmod is the one division loop: exact_div and `//` are
divmod with a zero remainder required, and gcd and
squarefree_decomposition (line restrictions) run on one-variable
polynomials through it.  It keeps the remainder's monomials in a heap
with lazy deletion of cancelled terms, so each step pops the largest one
instead of scanning the remainder.  The heap holds packed monomials
(grevlex_packing; Monagan & Pearce, J. Symbolic Comput. 46, 2011), two
ints in w-bit fields: P packs grevlex_key, so a product is one integer add
and the order is integer comparison; E packs the exponents under a guard
bit per field, so l divides m iff ((E_m | G) - E_l) & G == G for the guard
bits G.  Fields of w = max(8, bitlen(2D + 1) + 1) bits hold every monomial
of degree up to 2D.  linear_forms
builds the linear images that substitute takes, a matrix's rows as forms
in its column variables.
homogenize(d) turns a polynomial on the affine chart x0 = 1 into the
form of degree d in x0 and the chart's variables.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from operator import add


def grevlex_key(exps):
    """The sort key of the grevlex order, the one monomial order of the
    package: a larger key is a larger monomial.  Its entries, the degree d
    and then d - e for the exponents from the last, are nonnegative and
    linear in the exponents."""
    d = sum(exps)
    return (d,) + tuple(d - e for e in reversed(exps))


def grevlex_packing(nvars, degree):
    """The packing (module docstring) of monomials in nvars variables of
    degree at most 2 * degree.  P's fields hold grevlex_key's entries, most
    significant first; the key is linear in the exponents, so P(ab) = P(a)
    + P(b).  E's i-th field from the bottom holds e_i below its guard bit: a
    field of E_m below E_l's borrows its own guard, and no borrow crosses it.

    Returns (pack, unpack, word, packed_lcm, G): pack(exps) is P, unpack(P)
    the exponents (both memoized while the packing lives), word(P) is E,
    and packed_lcm(E_a, E_b) is the P of lcm(a, b).  P >> G.bit_length()
    is the degree; G fixes nvars and w, so packings with one G agree."""
    w = max(8, (2 * degree + 1).bit_length() + 1)
    top, field = nvars * w, (1 << w) - 1
    ones = sum(1 << i * w for i in range(nvars))
    guard = ones << w - 1
    packed, exps_of = {}, {}

    def pack(exps):
        m = packed.get(exps)
        if m is None:
            m = packed[exps] = sum(k << i * w for i, k in enumerate(reversed(grevlex_key(exps))))
        return m

    def unpack(m):
        exps = exps_of.get(m)
        if exps is None:
            exps = exps_of[m] = tuple((m >> top) - (m >> i * w & field) for i in range(nvars))
            packed[exps] = m
        return exps

    def word(m):
        return (m >> top) * ones - (m & (1 << top) - 1)

    def packed_lcm(a, b):
        # the fields where a >= b, spread down from their guard bits
        ge = ((a | guard) - b) & guard
        ge -= ge >> w - 1
        e = a & ge | b & ~ge
        # the degree is the middle field of e * ones, the sum of all fields
        return (e * ones >> top - w & field) * (ones | 1 << top) - e

    return pack, unpack, word, packed_lcm, guard


class MultiPoly:
    __slots__ = ("nvars", "terms")

    # int coefficients are taken in Z: divmod then divides them only where
    # the leading coefficient divides exactly (FPoly takes them in F_p)
    _ints_in_z = True

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, c in terms.items() if isinstance(terms, dict) else terms:
                if c:
                    e = tuple(exps)
                    acc = self.terms.get(e)
                    c = acc + c if acc is not None else c
                    if c:
                        self.terms[e] = c
                    elif e in self.terms:
                        del self.terms[e]

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(nvars):
        return MultiPoly(nvars)

    @staticmethod
    def const(nvars, c):
        p = MultiPoly(nvars)
        if c:
            p.terms[(0,) * nvars] = c
        return p

    @staticmethod
    def var(i, nvars, coeff=1):
        e = [0] * nvars
        e[i] = 1
        return MultiPoly(nvars, {tuple(e): coeff})

    # -- basic ring ops -------------------------------------------------

    def _with_terms(self, terms):
        """A polynomial of this one's class with the given terms (monomial
        -> coefficient, no zero coefficients).  The ring operations (+, -,
        *, **, derivative, exact division) build their results here."""
        p = object.__new__(type(self))
        p.nvars, p.terms = self.nvars, terms
        return p

    # the product of two monomials, the one place where * reads a key
    _monomial_product = staticmethod(lambda a, b: tuple(map(add, a, b)))

    def _inverse(self, c):
        """The inverse of a nonzero coefficient, for divmod and monic:
        through Fraction, so an int is inverted as a rational."""
        return Fraction(1) / c

    def _const(self, c):
        return self._with_terms({(0,) * self.nvars: c} if c else {})

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = self._const(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            s = acc + c if acc is not None else c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return self._with_terms(out)

    __radd__ = __add__

    def __neg__(self):
        return self._with_terms({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = self._const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._with_terms(
                {e: c * other for e, c in self.terms.items()} if other else {}
            )
        self._check(other)
        out = {}
        small, big = (self.terms, other.terms)
        if len(small) > len(big):
            small, big = big, small
        mono = self._monomial_product
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = mono(e1, e2)
                c = c1 * c2
                acc = out.get(e)
                s = acc + c if acc is not None else c
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return self._with_terms(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = self._const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if self.is_zero():
                return other == 0
            if len(self.terms) == 1 and (0,) * self.nvars in self.terms:
                return self.terms[(0,) * self.nvars] == other
            return False
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- structure -----------------------------------------------------

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def sorted_terms(self):
        """Terms in grevlex-descending order (leading term first)."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def derivative(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                if v := c * e[i]:
                    out[tuple(ne)] = v
        return self._with_terms(out)

    # -- evaluation / substitution --------------------------------------

    def evaluate(self, point):
        """Value at a point; coefficients and coordinates must multiply.

        Each term multiplies its coefficient by a product from a power
        table per coordinate.  A point of ints and Fractions is first put
        over one common denominator D, so that the table holds integers: a
        term of degree d is scaled by D^(top - d), top being the largest
        degree, and the sum is divided by D^top once."""
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        den = 1
        if all(type(x) is int or isinstance(x, Fraction) for x in point):
            den = lcm(*(x.denominator for x in point))
            point = [x.numerator * (den // x.denominator) for x in point]
        top = max(map(sum, self.terms), default=0)
        powers = []
        for x in point:
            row = [1, x]
            while len(row) <= top:
                row.append(row[-1] * x)
            powers.append(row)
        scale = [den ** (top - d) for d in range(top + 1)]
        total = 0
        for e, c in self.terms.items():
            v, d = 1, 0
            for row, k in zip(powers, e):
                if k:
                    v = v * row[k]
                    d += k
            total = total + c * (v * scale[d])
        return total if den == 1 else total * Fraction(1, scale[0])

    def substitute(self, images):
        """Ring substitution x_i -> images[i] (MultiPolys over one ring); the
        result is built over the images' ring, so FPoly images give an FPoly."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        const = images[0]._const
        # cache powers of each image
        powers = [[const(1)] for _ in images]
        result = const(0)
        for e, c in self.terms.items():
            term = const(c)
            for i, k in enumerate(e):
                while len(powers[i]) <= k:
                    powers[i].append(powers[i][-1] * images[i])
                if k:
                    term = term * powers[i][k]
            result = result + term
        return result

    def homogenize(self, degree):
        """The form of this degree in one more variable, put first as x0:
        each term times x0^(degree - its degree)."""
        out = {}
        for e, c in self.terms.items():
            pad = degree - sum(e)
            if pad < 0:
                raise ValueError("degree below actual total degree")
            out[(pad,) + e] = c
        p = MultiPoly(self.nvars + 1)
        p.terms = out
        return p

    def divmod(self, divisor):
        """(q, r) with self == q * divisor + r, by one division loop in the
        grevlex order.  r keeps each term whose monomial the divisor's
        leading monomial does not divide and, when both coefficients are
        ints over Z, each term whose coefficient the leading coefficient
        does not divide.  Other coefficients are multiplied by one inverse
        of the leading coefficient, taken by the _inverse hook.

        The remaining terms' monomials wait in a heap of their negated
        packed Ps (grevlex_packing, for the larger degree of the two, which
        bounds every monomial of the division), so each step pops the
        largest one instead of scanning them all.  A term that cancels
        leaves its entry behind, and an entry whose monomial is no longer in
        the remainder is skipped when popped (lazy deletion); a monomial is
        pushed again when it comes back, and each new monomial is below the
        popped one, so no monomial is taken twice."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        pack, unpack, word, _, guard = grevlex_packing(
            self.nvars, max(self.total_degree(), divisor.total_degree()))
        de, dc = divisor.leading_term()
        dm, dw = pack(de), word(pack(de))
        tail = [(pack(e), c) for e, c in divisor.terms.items() if e != de]
        over_z = self._ints_in_z and isinstance(dc, int)
        inv = self._inverse(dc)
        rem = {pack(e): c for e, c in self.terms.items()}
        heap = [-m for m in rem]
        heapify(heap)
        q, r = {}, {}
        while heap:
            m = -heappop(heap)
            c = rem.pop(m, None)
            if c is None:
                continue
            whole = over_z and isinstance(c, int)
            if ((word(m) | guard) - dw) & guard != guard or (whole and c % dc):
                r[unpack(m)] = c
                continue
            qc = c // dc if whole else c * inv
            qm = m - dm
            q[unpack(qm)] = qc
            for tm, tc in tail:
                km = qm + tm
                acc = rem.get(km)
                if acc is None:
                    if s := -qc * tc:
                        rem[km] = s
                        heappush(heap, -km)
                elif s := acc - qc * tc:
                    rem[km] = s
                else:
                    del rem[km]
        return self._with_terms(q), self._with_terms(r)

    def exact_div(self, divisor):
        """The quotient of a division with zero remainder; raises ValueError
        otherwise.  It is also `//`, so fraction-free elimination runs over
        Z[x]."""
        q, r = self.divmod(divisor)
        if r:
            raise ValueError("inexact polynomial division")
        return q

    __floordiv__ = exact_div

    def monic(self):
        """This polynomial divided by its leading coefficient, through one
        inverse from the _inverse hook; ints are divided as rationals."""
        if not self.terms:
            return self
        _, c = self.leading_term()
        return self if c == 1 else self * self._inverse(c)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")


def linear_forms(rows):
    """The linear forms sum_j rows[i][j] * y_j, one MultiPoly per row, in
    as many variables as a row has entries."""
    nvars = len(rows[0])
    units = [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)]
    return [MultiPoly(nvars, zip(units, row)) for row in rows]


def gcd(a, b):
    """Monic gcd of two one-variable polynomials over a field, by Euclid's
    algorithm; the divisor is made monic at each step, so ints divide as
    rationals."""
    a = a.monic()
    while b:
        b = b.monic()
        a, b = b, a.divmod(b)[1]
    return a


def squarefree_decomposition(p):
    """Yun's decomposition [(factor, multiplicity), ...] of a one-variable
    polynomial over a characteristic-0 field: the product of
    factor^multiplicity equals p up to the leading coefficient, and the
    factors are monic, squarefree, pairwise coprime and of positive degree.
    Rejects the zero polynomial."""
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    p = p.monic()
    d = gcd(p, p.derivative(0))
    w = p // d
    out = []
    i = 1
    while w.total_degree() > 0:
        y = gcd(w, d)
        factor = w // y
        if factor.total_degree() > 0:
            out.append((factor, i))
        w = y
        d = d // y
        i += 1
    return out
