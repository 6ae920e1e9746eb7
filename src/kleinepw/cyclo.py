"""Exact cyclotomic arithmetic on the power basis of Q(zeta_n).

A CycloNum of conductor n is a vector of phi(n) rationals giving the
coordinates of the element in the basis 1, z, ..., z^(phi(n)-1), where
z = exp(2*pi*i/n) and the basis is taken modulo the n-th cyclotomic
polynomial.  Reduction modulo the cyclotomic polynomial (rather than
x^n - 1) makes the representation canonical, so equality is
coefficient-wise and elements can be hashed.

Coefficient vectors are stored as a tuple of integers over a single
positive denominator with the gcd divided out; this is just a packed
form of a rational vector and keeps the inner loops in integer
arithmetic.

Mixed-conductor operations lift both operands to the lcm of the two
conductors, which is capped at MAX_CONDUCTOR.  All values are immutable
and every operation is a pure function.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import linalg

MAX_CONDUCTOR = 66


def euler_phi(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            result *= p - 1
            m //= p
            while m % p == 0:
                result *= p
                m //= p
        p += 1
    if m > 1:
        result *= m - 1
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    # (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact polynomial division
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_exact_div_int(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_exact_div_int(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[k] = q
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    assert not any(num), "inexact polynomial division"
    return out


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple:
    """Row j: integer coordinates of z^(phi(n)+j) in the power basis."""
    phi = euler_phi(n)
    poly = cyclotomic_polynomial(n)  # monic of degree phi
    rows = []
    # z^phi = -(poly[0] + poly[1] z + ... + poly[phi-1] z^(phi-1))
    current = [-poly[i] for i in range(phi)]
    for _ in range(n):  # more rows than ever needed by one multiplication
        rows.append(tuple(current))
        nxt = [0] + current[:-1]
        top = current[-1]
        if top:
            base = rows[0]
            for i in range(phi):
                nxt[i] += top * base[i]
        current = nxt
    return tuple(rows)


@lru_cache(maxsize=None)
def _zeta_power_table(n: int) -> tuple:
    """Integer coordinate vectors of z^k, k = 0..n-1, in the power basis."""
    phi = euler_phi(n)
    rows = _reduction_rows(n)
    table = []
    for k in range(n):
        if k < phi:
            vec = [0] * phi
            vec[k] = 1
            table.append(tuple(vec))
        else:
            table.append(rows[k - phi])
    return tuple(table)


def _normalize(num, den):
    if den < 0:
        num = [-c for c in num]
        den = -den
    if den == 1:
        return tuple(num), 1
    g = den
    for c in num:
        g = gcd(g, c)
        if g == 1:
            return tuple(num), den
    num = [c // g for c in num]
    den //= g
    return tuple(num), den


class CycloNum:
    """Element of the cyclotomic field of conductor n, exact rational coords."""

    __slots__ = ("n", "num", "den", "_hash")

    def __init__(self, n, coeffs, den=None):
        if n < 1 or n > MAX_CONDUCTOR:
            raise ValueError(f"conductor {n} outside supported range 1..{MAX_CONDUCTOR}")
        phi = euler_phi(n)
        if den is None:
            fracs = [Fraction(c) for c in coeffs]
            if len(fracs) != phi:
                raise ValueError(f"need {phi} coefficients for conductor {n}, got {len(fracs)}")
            den = 1
            for f in fracs:
                den = den * f.denominator // gcd(den, f.denominator)
            num = [int(f * den) for f in fracs]
        else:
            num = list(coeffs)
            if len(num) != phi:
                raise ValueError(f"need {phi} coefficients for conductor {n}, got {len(num)}")
        self.n = n
        self.num, self.den = _normalize(num, den)
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeta(n, k=1):
        """The root of unity z^k in the conductor-n field."""
        vec = _zeta_power_table(n)[k % n]
        return CycloNum(n, vec, 1)

    @staticmethod
    def from_rational(value, n=1):
        f = Fraction(value)
        phi = euler_phi(n)
        num = [f.numerator] + [0] * (phi - 1)
        return CycloNum(n, num, f.denominator)

    # -- conductor handling -------------------------------------------

    def lift(self, m):
        """Rewrite in the conductor-m field; self.n must divide m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot lift conductor {self.n} to {m}")
        step = m // self.n
        table = _zeta_power_table(m)
        phi_m = euler_phi(m)
        out = [0] * phi_m
        for i, c in enumerate(self.num):
            if c:
                row = table[(i * step) % m]
                for j in range(phi_m):
                    out[j] += c * row[j]
        return CycloNum(m, out, self.den)

    def _common(self, other):
        if self.n == other.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
        if m > MAX_CONDUCTOR:
            raise ValueError(f"conductor lcm {m} exceeds cap {MAX_CONDUCTOR}")
        return self.lift(m), other.lift(m)

    def canonical(self):
        """Rewrite over the smallest cyclotomic subfield Q(zeta_d), d | n."""
        if self.n == 1:
            return self
        if not any(self.num[1:]):
            return CycloNum(1, (self.num[0],), self.den)
        for d in _proper_divisors(self.n):
            if d == 1:
                continue
            sol = linalg.solve(_subfield_basis(self.n, d), self.num)
            if sol is not None:
                return CycloNum(d, [s / self.den for s in sol])
        return self

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        da, db = a.den, b.den
        num = [x * db + y * da for x, y in zip(a.num, b.num)]
        return CycloNum(a.n, num, da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = _coerce(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        phi = len(a.num)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a.num):
            if x:
                bn = b.num
                for j in range(phi):
                    y = bn[j]
                    if y:
                        conv[i + j] += x * y
        rows = _reduction_rows(a.n)
        out = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                row = rows[k - phi]
                for j in range(phi):
                    out[j] += c * row[j]
        return CycloNum(a.n, out, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = euler_phi(self.n)
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        a = [Fraction(c, self.den) for c in self.num]
        inv = _poly_invert_mod(a, mod)
        out = inv + [Fraction(0)] * (phi - len(inv))
        return CycloNum(self.n, out[:phi])

    def __truediv__(self, other):
        other = _coerce(other, self.n)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return _coerce(other, self.n) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloNum.from_rational(1, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- Galois action ------------------------------------------------

    def galois(self, t):
        """Substitute z -> z^t (t coprime to the conductor)."""
        if gcd(t, self.n) != 1:
            raise ValueError(f"{t} not coprime to conductor {self.n}")
        table = _zeta_power_table(self.n)
        phi = len(self.num)
        out = [0] * phi
        for i, c in enumerate(self.num):
            if c:
                row = table[(i * t) % self.n]
                for j in range(phi):
                    out[j] += c * row[j]
        return CycloNum(self.n, out, self.den)

    def conj(self):
        """Complex conjugation, z -> z^(n-1)."""
        if self.n <= 2:
            return self
        return self.galois(self.n - 1)

    def is_real(self):
        return self.conj() == self

    # -- predicates / conversions ---------------------------------------

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def to_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    def coeffs(self):
        return tuple(Fraction(c, self.den) for c in self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.to_fraction() == other
        if not isinstance(other, CycloNum):
            return NotImplemented
        if self.n == other.n:
            return self.num == other.num and self.den == other.den
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        if self._hash is None:
            c = self.canonical()
            self._hash = hash((c.n, c.num, c.den))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.is_rational():
            return str(self.to_fraction())
        terms = []
        for i, c in enumerate(self.num):
            if c:
                f = Fraction(c, self.den)
                if i == 0:
                    terms.append(str(f))
                else:
                    z = f"z{self.n}" if self.n != 1 else "1"
                    e = f"^{i}" if i > 1 else ""
                    terms.append(f"{f}*{z}{e}")
        return " + ".join(terms).replace("+ -", "- ")


def _coerce(value, n):
    if isinstance(value, CycloNum):
        return value
    if isinstance(value, int):
        return CycloNum(n, (value,) + (0,) * (euler_phi(n) - 1), 1)
    if isinstance(value, Fraction):
        return CycloNum.from_rational(value, n)
    return NotImplemented


@lru_cache(maxsize=None)
def _proper_divisors(n):
    return tuple(d for d in range(1, n) if n % d == 0)


@lru_cache(maxsize=None)
def _subfield_basis(n, d):
    """Power basis of Q(zeta_d) as the columns of a matrix in coordinates
    of Q(zeta_n)."""
    cols = [CycloNum.zeta(n, (i * (n // d)) % n).num for i in range(euler_phi(d))]
    return tuple(zip(*cols))


def lambda_embed() -> CycloNum:
    """The quadratic irrationality (-1 + sqrt(-11))/2 as a conductor-11 sum
    of the five quadratic-residue powers z + z^3 + z^4 + z^5 + z^9."""
    vec = [0] * 10
    for k in (1, 3, 4, 5, 9):
        vec[k] = 1
    return CycloNum(11, vec, 1)


def sqrt_minus_11() -> CycloNum:
    """1 + 2*lambda, a square root of -11 in the conductor-11 field."""
    return 1 + 2 * lambda_embed()


class QuadInt:
    """Element a + b*w of the imaginary quadratic order Z[w], w^2 = -w - 3.

    The order is the ring of integers of Q(sqrt(-11)); conjugation sends
    a + b*w to (a - b) - b*w and the norm a^2 - a*b + 3*b^2 is
    nonnegative, vanishing only at zero.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a
        self.b = b

    def __add__(self, other):
        other = _as_quadint(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadInt(-self.a, -self.b)

    def __sub__(self, other):
        other = _as_quadint(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_quadint(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + bw)(c + dw) = ac + (ad + bc)w + bd(-w - 3)
        a, b, c, d = self.a, self.b, other.a, other.b
        return QuadInt(a * c - 3 * b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def conj(self):
        return QuadInt(self.a - self.b, -self.b)

    def norm(self):
        return self.a * self.a - self.a * self.b + 3 * self.b * self.b

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_rational_integer(self):
        return self.b == 0

    def to_cyclo(self):
        """Embed into the conductor-11 field via w -> lambda_embed()."""
        return CycloNum.from_rational(self.a, 11) + self.b * lambda_embed()

    def __eq__(self, other):
        other = _as_quadint(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        bw = "w" if self.b == 1 else ("-w" if self.b == -1 else f"{self.b}*w")
        if self.a == 0:
            return bw
        return f"{self.a}{'+' if self.b > 0 and not bw.startswith('-') else ''}{bw}"


def _as_quadint(value):
    if isinstance(value, QuadInt):
        return value
    if isinstance(value, int):
        return QuadInt(value, 0)
    return NotImplemented


def _poly_invert_mod(a, mod):
    """Inverse of polynomial a modulo the monic polynomial mod, over Q."""

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def divmod_(p, q):
        p = p[:]
        out = [Fraction(0)] * max(0, len(p) - len(q) + 1)
        while len(p) >= len(q) and any(p):
            if not p[-1]:
                p.pop()
                continue
            k = len(p) - len(q)
            f = p[-1] / q[-1]
            out[k] = f
            for i in range(len(q)):
                p[k + i] -= f * q[i]
            p.pop()
        return out, trim(p)

    r0, r1 = mod[:], trim(a[:])
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, r = divmod_(r0, r1)
        r0, r1 = r1, r
        # s_next = s0 - q * s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1):
                    prod[i + j] += x * y
        nxt = [Fraction(0)] * max(len(s0), len(prod))
        for i, x in enumerate(s0):
            nxt[i] += x
        for i, x in enumerate(prod):
            nxt[i] -= x
        s0, s1 = s1, trim(nxt)
    assert len(r0) == 1, "element not invertible modulo the cyclotomic polynomial"
    inv_lead = 1 / r0[0]
    return [c * inv_lead for c in s0]
