"""Exact cyclotomic arithmetic on the power basis of Q(zeta_n).

A CycloNum of conductor n is a vector of phi(n) rationals giving the
coordinates of the element in the basis 1, z, ..., z^(phi(n)-1), where
z = exp(2*pi*i/n) and the basis is taken modulo the n-th cyclotomic
polynomial.  Reduction modulo the cyclotomic polynomial (rather than
x^n - 1) makes the representation canonical for each conductor, so
equality is coefficient-wise once both sides are lifted to one field.
The hash is that of the normalized trace Tr(x)/phi(n), which does not
depend on the conductor x is written in and equals hash(q) for a
rational q, so equal values hash equally across conductors and with int
and Fraction.  to_int is the one rational-integer check.

Coefficient vectors are stored as a tuple of integers over a single
positive denominator with the gcd divided out; this is just a packed
form of a rational vector and keeps the inner loops in integer
arithmetic.  The constructor takes that form, CycloNum(n, numerators,
den), with den required; from_rational builds a rational.

One reduction modulo the cyclotomic polynomial, _reduce, serves products,
lifts, Galois maps, rotations and substitution alike: each z^t past the
basis, in a vector of any length, becomes the sparse row of z^(t mod n).

Mixed-conductor operations lift both operands to the lcm of the two
conductors, which is capped at MAX_CONDUCTOR.  All values are immutable
and every operation is a pure function.  The inverse is the product of
the other Galois conjugates over the (rational) norm, multiplied along a
tower of subgroups of (Z/n)^* (_galois_tower) by doubling, so it takes
about 2 log2 phi(n) products rather than phi(n) - 1; a rational is
inverted directly.  The product of two CycloNums stays schoolbook (see
__mul__).  common_field lifts a matrix to the lcm of its entries'
conductors.

Matrix products run on coordinates, a row-major tuple of (num, den) per
entry, with one packed kernel: each entry is packed into one integer
(Kronecker substitution) and each output entry reduced and normalized
once.  mat_mul applies it to CycloNum matrices; right_multiplier(h, n)
keeps a fixed right factor h scaled, and packed per radix, for many left
factors, and takes a monomial h with root-of-unity scalars (one whose
unit_columns exist) as a rotation of coordinates instead;
left_monomial_product multiplies by such an h on the left, permuting rows
and rotating coordinates; matrix_of builds CycloNums on normalized
coordinates without copying them.  substitute_linear substitutes linear
forms with packed entries into a rational polynomial the same way.
None of them runs CycloNum.__mul__.  The module imports nothing from the
rest of the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

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
        if c % den[-1]:
            raise ArithmeticError("inexact polynomial division")
        q = c // den[-1]
        out[k] = q
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def _zeta_power_table(n: int) -> tuple:
    """Integer coordinate vectors of z^k, k = 0..n-1, in the power basis,
    by the recurrence z^(k+1) = z * z^k reduced modulo the cyclotomic
    polynomial."""
    phi = euler_phi(n)
    poly = cyclotomic_polynomial(n)  # monic of degree phi
    # z^phi = -(poly[0] + poly[1] z + ... + poly[phi-1] z^(phi-1))
    top_row = [-poly[i] for i in range(phi)]
    current = [1] + [0] * (phi - 1)
    table = []
    for _ in range(n):
        table.append(tuple(current))
        top = current[-1]
        current = [0] + current[:-1]
        if top:
            for i in range(phi):
                current[i] += top * top_row[i]
    return tuple(table)


@lru_cache(maxsize=None)
def _traces(n: int) -> tuple:
    """Tr(z^k) for k = 0..phi(n)-1: the sum of the Galois conjugates of
    z^k, a rational integer, so coordinate 0 of their summed vectors."""
    table = _zeta_power_table(n)
    units = [t for t in range(1, n + 1) if gcd(t, n) == 1]
    return tuple(sum(table[k * t % n][0] for t in units) for k in range(euler_phi(n)))


@lru_cache(maxsize=None)
def _sparse_power_rows(n: int) -> tuple:
    """Row k: the nonzero (index, value) pairs of z^k, k = 0..n-1."""
    return tuple(tuple((i, r) for i, r in enumerate(row) if r) for row in _zeta_power_table(n))


def _reduce(v, n, phi):
    """The reduction modulo the n-th cyclotomic polynomial: the power-basis
    coordinates (phi = phi(n) of them) of sum_t v[t] z^t, for a coefficient
    vector v of any length.  The first phi coefficients are kept, each
    later z^t is replaced by the sparse row of z^(t mod n)."""
    out = list(v[:phi])
    out += [0] * (phi - len(out))
    rows = _sparse_power_rows(n)
    for t in range(phi, len(v)):
        c = v[t]
        if c:
            for j, r in rows[t % n]:
                out[j] += c * r
    return out


def _map_exponents(num, m, phi, step):
    """Coordinates, in the conductor-m power basis of phi = phi(m) entries,
    of sum_i num[i] z^(i * step): each term put on z^(i * step mod m),
    then reduced."""
    v = [0] * m
    for i, c in enumerate(num):
        v[i * step % m] += c
    return _reduce(v, m, phi)


def _normalize(num, den):
    if den < 0:
        num = [-c for c in num]
        den = -den
    g = den if den == 1 else gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple([c // g for c in num]), den // g


class CycloNum:
    """Element of the cyclotomic field of conductor n, exact rational coords."""

    __slots__ = ("n", "num", "den", "_hash")

    def __init__(self, n, coeffs, den):
        if n < 1 or n > MAX_CONDUCTOR:
            raise ValueError(f"conductor {n} outside supported range 1..{MAX_CONDUCTOR}")
        num = list(coeffs)
        phi = euler_phi(n)
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

    @staticmethod
    def _normalized(n, num, den):
        """The element with coordinates already normalized: num a tuple of
        phi(n) ints, den > 0 and gcd(den, *num) == 1.  Neither checked
        nor copied."""
        x = object.__new__(CycloNum)
        x.n, x.num, x.den, x._hash = n, num, den, None
        return x

    # -- conductor handling -------------------------------------------

    def lift(self, m):
        """Rewrite in the conductor-m field; self.n must divide m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot lift conductor {self.n} to {m}")
        return CycloNum(m, _map_exponents(self.num, m, euler_phi(m), m // self.n), self.den)

    def _common(self, other):
        if self.n == other.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
        if m > MAX_CONDUCTOR:
            raise ValueError(f"conductor lcm {m} exceeds cap {MAX_CONDUCTOR}")
        return self.lift(m), other.lift(m)

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
        """The schoolbook product, reduced once.  A packed (Kronecker)
        product of the two coefficient vectors was measured slower on each
        suite's own operands (2-vCPU Xeon at 2.1 GHz, Python 3.11): verify
        epw's 14,420 products took 0.185 s against 0.095 s, verify group's
        8,591 took 0.074 s against 0.052 s.
        Two thirds of epw's products have a rational operand, and the zero
        skips of this loop make those cheap."""
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
        return CycloNum(a.n, _reduce(conv, a.n, phi), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: the adjugate, the product of the Galois
        conjugates other than x itself, divided by the norm x * adjugate (a
        nonzero rational).  A rational x is inverted directly.

        The conjugates are multiplied along the tower of _galois_tower(n):
        with y the norm of x to the level below and sigma the level's
        generator of index m, the level multiplies the adjugate by
        sigma(P_(m-1)), where P_k = y sigma(y) ... sigma^(k-1)(y) is built
        by doubling, P_(a+b) = P_a sigma^a(P_b).  That is about 2 log2(m)
        products a level: with the norm, 5 products at conductor
        11, 7 at 33 and 9 at 55, where the conjugates one by one take 10,
        20 and 40."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.n
        if self.is_rational():
            return CycloNum(n, (self.den,) + (0,) * (len(self.num) - 1), self.num[0])
        adj = None
        for g, m in _galois_tower(n):
            # P_(m-1) of y by left-to-right doubling over the bits of m - 1
            y = self if adj is None else self * adj
            p, a = y, 1
            for bit in bin(m - 1)[3:]:
                p, a = p * p.galois(pow(g, a, n)), 2 * a
                if bit == "1":
                    p, a = p * y.galois(pow(g, a, n)), a + 1
            step = p.galois(g)
            adj = step if adj is None else adj * step
        norm = (self * adj).to_fraction()
        return CycloNum(n, [c * norm.denominator for c in adj.num],
                        adj.den * norm.numerator)

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
        return CycloNum(self.n, _map_exponents(self.num, self.n, len(self.num), t), self.den)

    def conj(self):
        """Complex conjugation, z -> z^(n-1)."""
        if self.n <= 2:
            return self
        return self.galois(self.n - 1)

    # -- predicates / conversions ---------------------------------------

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def to_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    def to_int(self):
        """The value as an int; ArithmeticError unless it is a rational
        integer."""
        if self.den != 1 or any(self.num[1:]):
            raise ArithmeticError(f"{self!r} is not a rational integer")
        return self.num[0]

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
        # the normalized trace Tr(x)/phi(n) does not depend on the conductor
        # x is written in, and is x itself for a rational x
        if self._hash is None:
            tr = sum(c * t for c, t in zip(self.num, _traces(self.n)))
            self._hash = hash(Fraction(tr, self.den * euler_phi(self.n)))
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


@lru_cache(maxsize=None)
def _galois_tower(n):
    """(g_1, m_1), (g_2, m_2), ...: (Z/n)^* as the tower <g_1> in
    <g_1, g_2> in ..., each g_k the least unit outside the level below and
    m_k the index of that level in its own, the least m with g_k^m inside
    it.  11 gives ((2, 10),), 55 gives ((2, 20), (3, 2))."""
    level, tower = {1}, []
    for g in range(2, n):
        if gcd(g, n) != 1 or g in level:
            continue
        m, power = 1, g
        while power not in level:
            m, power = m + 1, power * g % n
        level = {h * pow(g, i, n) % n for h in level for i in range(m)}
        tower.append((g, m))
    return tuple(tower)


def _coerce(value, n):
    if isinstance(value, CycloNum):
        return value
    if isinstance(value, int):
        return CycloNum(n, (value,) + (0,) * (euler_phi(n) - 1), 1)
    if isinstance(value, Fraction):
        return CycloNum.from_rational(value, n)
    return NotImplemented


def common_field(rows):
    """Lift a matrix with a CycloNum entry to one cyclotomic field, the
    lcm of its entries' conductors; a rational matrix is returned as it
    is, for linalg's integer kernel."""
    conductors = [x.n for row in rows for x in row if isinstance(x, CycloNum)]
    if not conductors:
        return rows
    n = lcm(*conductors)
    return [[x.lift(n) if isinstance(x, CycloNum) else CycloNum.from_rational(x, n)
             for x in row] for row in rows]


def _field(*matrices):
    """The lcm of the conductors of the matrices' CycloNum entries, at most
    MAX_CONDUCTOR; 1 for rational matrices."""
    n = lcm(*(x.n for m in matrices for row in m for x in row if isinstance(x, CycloNum)))
    if n > MAX_CONDUCTOR:
        raise ValueError(f"conductor lcm {n} exceeds cap {MAX_CONDUCTOR}")
    return n


def coordinates(m, n):
    """Row-major (num, den) coordinates of a matrix of CycloNum, int or
    Fraction entries in the conductor-n field."""
    return tuple((x.num, x.den) for row in m for x in (_coerce(e, n).lift(n) for e in row))


def _scale(coords):
    """Coordinates over one common denominator: each entry's integer
    coefficients (empty for a zero entry), the denominator and the largest
    coefficient in absolute value."""
    den = lcm(*(d for _, d in coords))
    ints = [(num if d == den else [c * (den // d) for c in num]) if any(num) else ()
            for num, d in coords]
    top = max((max(max(cs), -min(cs)) for cs in ints if cs), default=0)
    return ints, den, top


def _pack(coeffs, bits):
    """Kronecker substitution: the value at 2^bits of the polynomial with
    these (signed) coefficients, low to high."""
    v = 0
    for c in reversed(coeffs):
        v = (v << bits) + c
    return v


def _unpacker(bits, length):
    """Inverse of _pack for length digits at radix 2^bits, each below half
    the radix in absolute value: an offset of half the radix in every digit
    reads each balanced digit d as the nonnegative d + half."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    offset = half * (((1 << (bits * length)) - 1) // mask)
    shifts = [bits * t for t in range(length)]

    def unpack(v):
        v += offset
        return [((v >> s) & mask) - half for s in shifts]
    return unpack


def _packed_product(n, g, factor):
    """The packed kernel: the coordinates of g h, for row-major coordinates
    g of an r x k matrix and the k x c matrix h as _factor gives it (its
    columns over one denominator, that denominator, its largest
    coefficient and a cache, by radix, of its packed columns and the
    unpacker).

    With g over one denominator as well, every entry is an integer
    polynomial of degree below phi, packed into one int at radix 2^bits
    (Kronecker substitution; Dumas, Fousse & Salvy, J. Symbolic Comput. 46,
    2011).  Each output coefficient c has |c| <= k * phi * top_g * top_h,
    below 2^(bits - 1), half the radix, so it is a balanced digit; each
    output entry is one sum of int products, unpacked, reduced modulo the
    cyclotomic polynomial and normalized once."""
    columns, den_h, top_h, packed = factor
    phi = euler_phi(n)
    ints, den_g, top_g = _scale(g)
    k = len(columns[0])
    bits = (k * phi * top_g * top_h).bit_length() + 1
    if bits not in packed:
        packed[bits] = ([[_pack(c, bits) for c in col] for col in columns],
                        _unpacker(bits, 2 * phi - 1))
    cols, unpack = packed[bits]
    pg = [_pack(c, bits) for c in ints]
    den = den_g * den_h
    return tuple(_normalize(_reduce(unpack(sum(map(mul, pg[r:r + k], col))), n, phi), den)
                 for r in range(0, len(pg), k) for col in cols)


def _factor(coords, cols):
    """A matrix with cols columns, given by its coordinates, as the right
    factor of _packed_product, with no radix met yet."""
    ints, den, top = _scale(coords)
    return [ints[j::cols] for j in range(cols)], den, top, {}


def unit_columns(coords, n, cols):
    """(row, sign, s) for each column of a matrix with cols columns, given
    by its coordinates in the conductor-n field, whose one nonzero entry is
    sign * z^s; None unless the matrix is monomial with root-of-unity
    scalars (or their negatives)."""
    units = {}  # coordinates -> (sign, s), + first where -z^s is a power too
    for sign in (1, -1):
        for s, vec in enumerate(_zeta_power_table(n)):
            units.setdefault(tuple(sign * c for c in vec), (sign, s))
    out = []
    for j in range(cols):
        column = [(i, e) for i, e in enumerate(coords[j::cols]) if any(e[0])]
        if len(column) != 1:
            return None
        i, (num, den) = column[0]
        if den != 1 or num not in units:
            return None
        out.append((i, *units[num]))
    return out


@lru_cache(maxsize=4096)
def _unit_times(entry, sign, shift, n, phi):
    """sign * z^shift times one normalized entry: its coefficients shifted
    up by shift, reduced, and signed.  z is a unit of Z[z], whose Z-basis
    the power basis is, so the coefficients keep their gcd: the entry stays
    normalized over its own denominator, with no gcd taken.  Memoized: the
    660 elements of the group have 67 distinct entries, so a closure
    reduces few of them and its keys share their entry tuples."""
    if shift == 0 and sign == 1:
        return entry
    num, den = entry
    rotated = _reduce((0,) * shift + num, n, phi)
    return (tuple(rotated) if sign == 1 else tuple(-c for c in rotated), den)


def _monomial_product(n, g, k, columns):
    """The coordinates of g h, for row-major coordinates g of an r x k
    matrix and a monomial h with root-of-unity scalars, given by its
    unit_columns: column j of g h is column i of g times sign * z^s."""
    phi = euler_phi(n)
    return tuple(_unit_times(g[r + i], sign, shift, n, phi)
                 for r in range(0, len(g), k) for i, sign, shift in columns)


def left_monomial_product(n, columns, g, cols):
    """The coordinates of h g, for a monomial h with root-of-unity scalars,
    given by its unit_columns, and row-major coordinates g of a matrix with
    cols columns: where column j of h holds sign * z^s in row i, row i of
    h g is row j of g times sign * z^s.  It permutes rows and rotates
    coordinates, as _monomial_product does columns."""
    phi = euler_phi(n)
    rows = [None] * len(columns)
    for j, (i, sign, shift) in enumerate(columns):
        rows[i] = [_unit_times(e, sign, shift, n, phi) for e in g[j * cols:(j + 1) * cols]]
    return tuple(e for row in rows for e in row)


def right_multiplier(h, n):
    """The map g -> g h for a fixed k x c matrix h of CycloNum, int or
    Fraction entries of conductors dividing n, on row-major (num, den)
    coordinates of r x k matrices over the conductor-n field, normalized as
    CycloNum keeps them; it returns the product's coordinates in the same
    form.  A monomial h whose scalars are roots of unity or their
    negatives (unit_columns is not None) permutes and rotates coordinates
    (_monomial_product); any other h is scaled once, and the packed kernel
    _packed_product packs its columns once for each radix it meets."""
    coords = coordinates(h, n)
    k, c = len(h), len(h[0])
    columns = unit_columns(coords, n, c)
    if columns is not None:
        return lambda g: _monomial_product(n, g, k, columns)
    factor = _factor(coords, c)
    return lambda g: _packed_product(n, g, factor)


def matrix_of(n, coords, cols):
    """The matrix of normalized row-major coordinates over the
    conductor-n field, as right_multiplier returns them; each entry shares
    its coefficient tuple."""
    entries = [CycloNum._normalized(n, num, den) for num, den in coords]
    return tuple(tuple(entries[r:r + cols]) for r in range(0, len(entries), cols))


def mat_mul(a, b):
    """Exact product of two matrices of CycloNum, int or Fraction entries,
    in the lcm of their conductors: the packed kernel _packed_product on
    their coordinates, each output entry built once."""
    n, c = _field(a, b), len(b[0])
    return matrix_of(n, _packed_product(n, coordinates(a, n), _factor(coordinates(b, n), c)), c)


def _keyed_product(a, b):
    """Product of two polynomials held as packed monomial key -> int."""
    out = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + va * vb
    return out


def substitute_linear(terms, rows):
    """The polynomial f(rows * y): x_i -> sum_j rows[i][j] * y_j substituted
    into f, given by terms (exponent tuple -> int or Fraction), for a matrix
    of int, Fraction or CycloNum entries.  Returns exponent tuple -> nonzero
    CycloNum, in the lcm of the entries' conductors.

    As in mat_mul, the entries are lifted to one field over one common
    denominator and each is packed into one int at radix 2^bits (Kronecker
    substitution); a monomial y^b is packed into the key sum_j b_j base^j,
    base one more than the degree of f, so a product of monomials is a sum
    of keys.  The expansion is int products only.  A term of degree d is
    scaled by den^(deg - d), so all terms share one denominator; every
    coefficient of the expansion, before reduction modulo the cyclotomic
    polynomial, is at most sum_e |c_e| * top^|e| in absolute value, top the
    largest sum of a row's absolute coefficients, and bits leaves it a
    balanced digit.  Each output monomial is unpacked and reduced once."""
    nvars, nout = len(rows), len(rows[0])
    if any(len(e) != nvars for e in terms):
        raise ValueError("need one row per variable")
    n = _field(rows)
    phi = euler_phi(n)
    flat, den, _ = _scale(coordinates(rows, n))
    ints = [flat[i * nout:(i + 1) * nout] for i in range(nvars)]
    deg = max(map(sum, terms), default=0)
    fden = lcm(*(Fraction(c).denominator for c in terms.values()))
    coeffs = {e: int(Fraction(c) * fden) * den ** (deg - sum(e)) for e, c in terms.items()}
    top = max(sum(abs(c) for cs in row for c in cs) for row in ints)
    bits = sum(abs(c) * top ** sum(e) for e, c in coeffs.items()).bit_length() + 1
    base = deg + 1
    forms = [{base ** j: _pack(cs, bits) for j, cs in enumerate(row) if cs} for row in ints]
    powers = [[{0: 1}] for _ in forms]
    acc = {}
    for e, c in coeffs.items():
        term = {0: c}
        for form, pw, k in zip(forms, powers, e):
            while len(pw) <= k:
                pw.append(_keyed_product(pw[-1], form))
            if k:
                term = _keyed_product(term, pw[k])
        for key, v in term.items():
            acc[key] = acc.get(key, 0) + v
    unpack = _unpacker(bits, deg * (phi - 1) + 1)
    out_den = fden * den ** deg
    out = {}
    for key, v in acc.items():
        coords = _reduce(unpack(v), n, phi)
        if any(coords):
            out[tuple(key // base ** j % base for j in range(nout))] = CycloNum(n, coords, out_den)
    return out


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
    a + b*w to (a - b) - b*w, and q * q.conj() is the norm
    a^2 - a*b + 3*b^2, nonnegative and vanishing only at zero.
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

    def __floordiv__(self, other):
        """The exact quotient self * conj(other) / N(other), as `//` is
        across the package; ArithmeticError when it is not in Z[w]."""
        other = _as_quadint(other)
        if other is NotImplemented:
            return NotImplemented
        bar = other.conj()
        norm, num = (other * bar).a, self * bar
        if not norm:
            raise ZeroDivisionError("division by zero in Z[w]")
        if num.a % norm or num.b % norm:
            raise ArithmeticError(f"{self!r} is not divisible by {other!r} in Z[w]")
        return QuadInt(num.a // norm, num.b // norm)

    def conj(self):
        return QuadInt(self.a - self.b, -self.b)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def to_cyclo(self):
        """Embed into the conductor-11 field via w -> lambda_embed(), on
        coordinates: lambda's are integers, its constant one 0."""
        vec = [self.b * c for c in lambda_embed().num]
        vec[0] = self.a
        return CycloNum(11, vec, 1)

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
