"""Sparse multivariate and dense univariate polynomials over exact coefficients.

MultiPoly stores a map from exponent tuples to nonzero coefficients; the
coefficient domain is anything supporting ring arithmetic (int, Fraction,
CycloNum, ...).  The ring operations build their results through one
hook, _with_terms, so a subclass can fix the coefficient ring:
groebner.FPoly is MultiPoly over F_p, whose hook reduces coefficients
modulo p.  The canonical term order is graded reverse lexicographic over
the declared variable order.  linear_forms builds the linear images that
substitute takes, a matrix's rows as forms in its column variables.
Poly1 is a dense univariate polynomial used for characteristic
polynomials, line restrictions and squarefree decomposition.
"""

from __future__ import annotations

from fractions import Fraction


def grevlex_key(exps):
    """Sort key: larger key = later monomial in grevlex-descending listings."""
    return (sum(exps),) + tuple(-e for e in reversed(exps))


class MultiPoly:
    __slots__ = ("nvars", "terms")

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
        """A polynomial over this one's coefficient ring with the given
        terms (exponent tuple -> coefficient, no zero coefficients).  The
        ring operations (+, -, *, **, derivative, exact division) build
        their results here."""
        p = MultiPoly.__new__(MultiPoly)
        p.nvars, p.terms = self.nvars, terms
        return p

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
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = tuple(a + b for a, b in zip(e1, e2))
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
        """Value at a point; coefficients and coordinates must multiply."""
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v = v * x
            total = total + v
        return total

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

    def homogenize(self, nvars_out, insert_at, degree=None):
        """Insert a homogenizing variable at position insert_at."""
        if nvars_out != self.nvars + 1:
            raise ValueError("homogenize adds exactly one variable")
        d = self.total_degree() if degree is None else degree
        out = {}
        for e, c in self.terms.items():
            pad = d - sum(e)
            if pad < 0:
                raise ValueError("degree below actual total degree")
            ne = list(e)
            ne.insert(insert_at, pad)
            out[tuple(ne)] = c
        p = MultiPoly(nvars_out)
        p.terms = out
        return p

    def exact_div(self, divisor):
        """Exact division (raises if the divisor does not divide evenly).

        Works over int coefficients (integer quotients checked) and over
        field coefficients.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = dict(self.terms)
        out = {}
        de, dc = divisor.leading_term()
        dterms = list(divisor.terms.items())
        while rem:
            e = max(rem, key=grevlex_key)
            c = rem[e]
            qe = tuple(a - b for a, b in zip(e, de))
            if any(x < 0 for x in qe):
                raise ValueError("inexact polynomial division (monomial)")
            if isinstance(c, int) and isinstance(dc, int):
                if c % dc:
                    raise ValueError("inexact polynomial division (coefficient)")
                qc = c // dc
            else:
                qc = c / dc
            out[qe] = qc
            for te, tc in dterms:
                ke = tuple(a + b for a, b in zip(qe, te))
                acc = rem.get(ke)
                s = (acc if acc is not None else 0) - qc * tc
                if s:
                    rem[ke] = s
                elif ke in rem:
                    del rem[ke]
        return self._with_terms(out)

    def __floordiv__(self, divisor):
        """Exact quotient, so fraction-free elimination runs over Z[x]."""
        return self.exact_div(divisor)

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


class Poly1:
    """Dense univariate polynomial; coefficients low to high, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    @staticmethod
    def from_const(c):
        return Poly1([c])

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Poly1):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            out[i] = out[i] + c
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] + c
        return Poly1(out)

    def __neg__(self):
        return Poly1([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly1):
            return Poly1([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly1([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return Poly1(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        rem = self.coeffs[:]
        dn = other.coeffs
        q = [0] * max(0, len(rem) - len(dn) + 1)
        lead = dn[-1]
        for k in range(len(rem) - len(dn), -1, -1):
            c = rem[k + len(dn) - 1]
            if not c:
                continue
            f = c / lead
            q[k] = f
            for i, d in enumerate(dn):
                rem[k + i] = rem[k + i] - f * d
        return Poly1(q), Poly1(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def derivative(self):
        return Poly1([c * i for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly1([c / lead for c in self.coeffs])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                bits.append(f"{c}")
            elif i == 1:
                bits.append(f"{c}*u")
            else:
                bits.append(f"{c}*u^{i}")
        return " + ".join(bits).replace("+ -", "- ")


def squarefree_decomposition(p: Poly1):
    """Yun-style decomposition [(factor, multiplicity), ...] over a
    characteristic-0 field; the product of factor^multiplicity equals p
    up to the leading coefficient, factors are monic, squarefree and
    pairwise coprime.  Rejects the zero polynomial.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    if all(isinstance(c, int) for c in p.coeffs):
        p = Poly1([Fraction(c) for c in p.coeffs])
    if p.degree() == 0:
        return []
    p = p.monic()
    d = p.gcd(p.derivative())
    out = []
    w = (p // d).monic()
    i = 1
    while w.degree() > 0:
        y = w.gcd(d)
        factor = (w // y).monic()
        if factor.degree() > 0:
            out.append((factor, i))
        w = y
        d = d // y
        i += 1
    return out


def squarefree_part(p: Poly1) -> Poly1:
    prod = Poly1.from_const(Fraction(1))
    for f, _ in squarefree_decomposition(p):
        prod = prod * f
    return prod
