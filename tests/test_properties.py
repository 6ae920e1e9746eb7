"""Property-based cross-checks (hypothesis; skipped when it is absent)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from fractions import Fraction  # noqa: E402
from itertools import combinations  # noqa: E402

from functools import cmp_to_key  # noqa: E402
from math import comb, factorial, gcd, lcm, prod  # noqa: E402

from kleinepw import cyclo, epw, group, hermitian, lattices, linalg  # noqa: E402
from kleinepw.cyclo import (  # noqa: E402
    MAX_CONDUCTOR, CycloNum, QuadInt, cyclotomic_polynomial, euler_phi, substitute_linear)
from kleinepw.groebner import (  # noqa: E402
    BudgetExhausted, FPoly, buchberger, normal_form, projective_empty)
from kleinepw.poly import MultiPoly, grevlex_key, grevlex_packing, linear_forms  # noqa: E402
from kleinepw.textform import MAX_EXPONENT  # noqa: E402

from cyclo_fractions import cyclo_from_fractions  # noqa: E402
from kernel_oracles import (  # noqa: E402
    char_poly, conjugate_product_inverse, cyclotomic_polarization_invariants,
    cofactor_exterior_power, cofactor_exterior_trace, descartes_positive_roots,
    max_scan_divmod, per_block_leading_minors,
    per_block_positive_definite, power_cache_substitute, term_by_term_evaluate,
    tuple_buchberger, tuple_normal_form)

P = 32003


def _is_unitary(m):
    return linalg.mat_eq(group.mat_mul(linalg.conj_transpose(m), m), linalg.identity(len(m)))


@settings(deadline=None, max_examples=40)
@given(word=st.lists(st.integers(0, 2), max_size=12))
def test_words_have_unitary_images(word, generators):
    zero = CycloNum.from_rational(0, 11)
    m = linalg.identity(5, zero + 1, zero)
    for k in word:
        m = group.mat_mul(m, generators[k])
    assert _is_unitary(m)
    assert _is_unitary(group.functor_wedge2().matrix(m))


def _grevlex_cmp(a, b):
    """The grevlex order by its definition: the higher degree is larger;
    at equal degree, the smaller exponent in the last variable where they
    differ is larger."""
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


@st.composite
def _monomials(draw):
    """Distinct exponent tuples in 2..8 variables, small and up to
    MAX_EXPONENT, with permutations of one of them for ties in degree."""
    nvars = draw(st.integers(2, 8))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT))
    exps = draw(st.lists(st.tuples(*[exponent] * nvars), min_size=1, max_size=12))
    base = list(exps[0])
    for _ in range(draw(st.integers(0, 4))):
        base = draw(st.permutations(base))
        exps.append(tuple(base))
    return nvars, list(dict.fromkeys(exps))


@settings(deadline=None, max_examples=150)
@given(case=_monomials())
def test_heap_order_is_the_grevlex_order(case):
    nvars, exps = case
    want = sorted(exps, key=cmp_to_key(_grevlex_cmp), reverse=True)
    assert sorted(exps, key=grevlex_key, reverse=True) == want
    # the packed P orders as the key, and unpacks to the exponents
    pack, unpack = grevlex_packing(nvars, MAX_EXPONENT * nvars)[:2]
    assert sorted(exps, key=pack, reverse=True) == want
    assert all(unpack(pack(e)) == e for e in exps)
    # with no divisor, normal_form keeps every term in the order its heap
    # pops them: largest monomial first
    f = FPoly(P, nvars, {e: 1 for e in exps})
    assert list(normal_form(f, []).terms) == want


def _long_division_remainder(v, n):
    """The remainder of sum_t v[t] z^t on division by the n-th cyclotomic
    polynomial, by schoolbook long division."""
    phi_n = cyclotomic_polynomial(n)
    d = len(phi_n) - 1
    rem = list(v) + [0] * max(0, d - len(v))
    for t in range(len(rem) - 1, d - 1, -1):
        c = rem[t]
        if c:
            for i, a in enumerate(phi_n):
                rem[t - d + i] -= c * a
    return rem[:d]


@pytest.mark.parametrize("n", range(1, cyclo.MAX_CONDUCTOR + 1))
@settings(deadline=None, max_examples=8)
@given(data=st.data())
def test_reduce_is_the_remainder_modulo_the_cyclotomic_polynomial(n, data):
    # lengths short of the basis, the product's 2 phi - 1 and past it
    phi = euler_phi(n)
    length = data.draw(st.sampled_from([0, 1, phi, 2 * phi - 1, 2 * phi, n + phi, 3 * n + 2]))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
    v = data.draw(st.lists(coeff, min_size=length, max_size=length))
    assert cyclo._reduce(v, n, phi) == _long_division_remainder(v, n)


@st.composite
def _homogeneous(draw):
    """A nonzero homogeneous polynomial of degree 1..3 in three variables."""
    d = draw(st.integers(1, 3))
    monomials = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(st.integers(1, P - 1), min_size=len(chosen), max_size=len(chosen)))
    return FPoly(P, 3, dict(zip(chosen, coeffs)))


@settings(deadline=None, max_examples=40)
@given(gens=st.lists(_homogeneous(), min_size=1, max_size=4), data=st.data())
def test_redundant_input_keeps_the_reduced_basis(gens, data):
    basis = buchberger(gens)
    # sums of multiples of the generators lie in the ideal: the input
    # reduction must drop them or keep them without changing the basis
    extra = []
    for _ in range(data.draw(st.integers(0, 4))):
        combo = FPoly(P, 3)
        for _ in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(0, len(gens) - 1))
            combo = combo + gens[k] * data.draw(_homogeneous())
        extra.append(combo)
    shuffled = data.draw(st.permutations(gens))
    again = buchberger(shuffled + extra)
    assert [g.terms for g in again] == [g.terms for g in basis]
    for g in gens:
        assert normal_form(g, basis).is_zero()


# -- the packed Groebner kernel against the tuple kernel, at high exponents

# x1^258 - x0^257 x2, whose exponents broke a base-256 packed key
HIGH_POWERS = FPoly(P, 3, {(0, 258, 0): 1, (257, 0, 1): -1})
X0_MINUS_X2 = FPoly(P, 3, {(1, 0, 0): 1, (0, 0, 1): -1})


@st.composite
def _binomials(draw, nvars, count):
    """count monic binomials m - c m' or monomials m in nvars variables,
    with exponents small or up to MAX_EXPONENT: their reductions trade one
    term for one term, so even degree-4096 chains stay short."""
    exponent = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT))
    out = []
    for _ in range(count):
        exps = draw(st.lists(st.tuples(*[exponent] * nvars), min_size=1, max_size=2, unique=True))
        coeffs = draw(st.lists(st.integers(1, P - 1), min_size=len(exps), max_size=len(exps)))
        out.append(FPoly(P, nvars, dict(zip(exps, coeffs))).monic())
    return out


@st.composite
def _reductions(draw):
    nvars = draw(st.integers(1, 4))
    return draw(_binomials(nvars, draw(st.integers(0, 4)))), draw(_binomials(nvars, 3))


@settings(deadline=None, max_examples=60)
@given(case=_reductions())
@example(case=([HIGH_POWERS], [HIGH_POWERS * X0_MINUS_X2, X0_MINUS_X2]))
@example(case=([X0_MINUS_X2, HIGH_POWERS], [HIGH_POWERS, HIGH_POWERS + X0_MINUS_X2]))
def test_packed_normal_form_matches_the_tuple_kernel(case):
    basis, polys = case
    f = sum(polys[1:], polys[0])
    got, want = normal_form(f, basis), tuple_normal_form(f, basis)
    assert list(got.terms.items()) == list(want.terms.items())


def _outcome(run, gens, **budgets):
    """The basis term for term, or the budget message and progress."""
    try:
        return [list(g.terms.items()) for g in run(gens, **budgets)]
    except BudgetExhausted as e:
        return str(e), e.progress()


@settings(deadline=None, max_examples=40)
@given(gens=st.integers(1, 3).flatmap(lambda n: _binomials(n, 3)),
       max_degree=st.sampled_from([48, 400, 3 * MAX_EXPONENT]), stop=st.booleans())
@example(gens=[HIGH_POWERS, HIGH_POWERS], max_degree=48, stop=False)
@example(gens=[HIGH_POWERS, HIGH_POWERS, X0_MINUS_X2], max_degree=400, stop=False)
@example(gens=[HIGH_POWERS, X0_MINUS_X2], max_degree=400, stop=True)
def test_packed_buchberger_matches_the_tuple_kernel(gens, max_degree, stop):
    budgets = {"max_pairs": 30, "max_degree": max_degree, "stop_at_certificate": stop}
    assert _outcome(buchberger, gens, **budgets) == _outcome(tuple_buchberger, gens, **budgets)


# -- the early stop at the emptiness certificate agrees with the reduced basis


def _monomials(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    return [(k,) + rest for k in range(degree + 1) for rest in _monomials(nvars - 1, degree - k)]


# the degree shapes of the queries benchmark's empty ideals
EMPTY_IDEAL_SHAPES = ((2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (3, 2, 2, 2), (3, 3, 2, 2),
                      (2, 2, 2, 2, 2))


@st.composite
def _triangular_empty(draw):
    """An ideal shaped like the queries benchmark's empty ideals: x_i^d_i
    plus a form of degree d_i in the later variables, whose only common
    zero is the origin, under an invertible linear change of coordinates."""
    degrees = draw(st.sampled_from(EMPTY_IDEAL_SHAPES))
    n = len(degrees)
    gens = []
    for i, d in enumerate(degrees):
        terms = {tuple(d if k == i else 0 for k in range(n)): 1}
        if i < n - 1:
            tail = [(0,) * (i + 1) + rest for rest in _monomials(n - i - 1, d)]
            for e in draw(st.lists(st.sampled_from(tail), max_size=3, unique=True)):
                terms[e] = draw(st.integers(1, P - 1))
        gens.append(FPoly(P, n, terms))
    change = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    assume(linalg.det(change) % P)
    images = [FPoly(P, n, {tuple(int(k == j) for k in range(n)): change[i][j] for j in range(n)})
              for i in range(n)]
    return [g.substitute(images) for g in gens]


@settings(deadline=None, max_examples=25)
@given(gens=_triangular_empty())
def test_early_stop_agrees_with_the_reduced_basis_on_empty_ideals(gens):
    empty, reduced = projective_empty(gens)
    early, partial = projective_empty(gens, stop_at_certificate=True)
    assert empty is early is True
    assert all(normal_form(g, reduced).is_zero() for g in partial)


@st.composite
def _planted_zero(draw):
    """One to n homogeneous forms in n = 3 or 4 variables that all vanish
    at one drawn point: each drawn form f has f(point) / point_j^d times
    x_j^d taken off, for the first nonzero coordinate point_j."""
    n = draw(st.integers(3, 4))
    point = draw(st.lists(st.integers(0, P - 1), min_size=n, max_size=n).filter(any))
    j = next(i for i, c in enumerate(point) if c)
    gens = []
    for _ in range(draw(st.integers(1, n))):
        d = draw(st.integers(1, 3))
        chosen = draw(st.lists(st.sampled_from(_monomials(n, d)), min_size=1, max_size=4,
                               unique=True))
        f = FPoly(P, n, {e: draw(st.integers(1, P - 1)) for e in chosen})
        value = sum(c * prod(pow(a, k, P) for a, k in zip(point, e)) for e, c in f.terms.items())
        pure = tuple(d if k == j else 0 for k in range(n))
        f = f - FPoly(P, n, {pure: value * pow(point[j], -d, P)})
        if not f.is_zero():
            gens.append(f)
    assume(gens)
    return gens


@settings(deadline=None, max_examples=30)
@given(gens=_planted_zero())
def test_early_stop_never_fires_on_a_planted_zero(gens):
    reduced = buchberger(gens)
    assert buchberger(gens, stop_at_certificate=True) == reduced
    assert projective_empty(gens, stop_at_certificate=True) == (False, reduced)


# -- FPoly is MultiPoly reduced mod p: each operation commutes with the lift


@st.composite
def _int_polys(draw, p, count):
    """count integer polynomials in three variables sharing one term set,
    with exponents up to 8 (so that x^p appears at p = 7) and coefficients
    that are often multiples of p."""
    monomials = draw(st.lists(st.tuples(*[st.integers(0, 8)] * 3), min_size=0,
                              max_size=5, unique=True))
    return [MultiPoly(3, {e: draw(_coefficients(p)) for e in monomials})
            for _ in range(count)]


def _coefficients(p):
    return st.one_of(st.integers(-3 * p, 3 * p), st.integers(-3, 3).map(lambda k: k * p))


def _mod(f, p):
    return FPoly.from_int_poly(f, p)


def _same_fpoly(got, want, p):
    assert type(got) is FPoly and got.p == p and got.nvars == want.nvars
    assert all(0 < c < p for c in got.terms.values())
    assert got.terms == want.terms


@pytest.mark.parametrize("p", [7, 32003])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_fpoly_operations_commute_with_reduction(p, data):
    f, g = data.draw(_int_polys(p, 2))
    k = data.draw(st.one_of(st.integers(-2 * p, 2 * p), st.just(p)))
    point = data.draw(st.lists(st.integers(-p, 2 * p), min_size=3, max_size=3))
    i = data.draw(st.integers(0, 2))
    ff, fg = _mod(f, p), _mod(g, p)
    _same_fpoly(ff + fg, _mod(f + g, p), p)
    _same_fpoly(ff - fg, _mod(f - g, p), p)
    _same_fpoly(-ff, _mod(-f, p), p)
    _same_fpoly(ff * k, _mod(f * k, p), p)
    _same_fpoly(k * ff, _mod(f * k, p), p)
    _same_fpoly(ff * fg, _mod(f * g, p), p)
    _same_fpoly(ff.derivative(i), _mod(f.derivative(i), p), p)
    assert ff.evaluate(point) % p == f.evaluate(point) % p
    # affine images, so that the substitution stays small
    affine = st.dictionaries(st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                             _coefficients(p), max_size=2)
    images = [MultiPoly(3, data.draw(affine)) for _ in range(3)]
    _same_fpoly(ff.substitute([_mod(h, p) for h in images]), _mod(f.substitute(images), p), p)
    if ff:
        lift = MultiPoly(3, ff.terms)
        _, c = lift.leading_term()
        monic = ff.monic()
        _same_fpoly(monic, _mod(lift * pow(c, -1, p), p), p)
        assert monic.leading_term()[1] == 1


def test_fpoly_derivative_drops_coefficients_that_vanish_mod_p():
    x = FPoly(7, 2, {(1, 0): 1})
    y = FPoly(7, 2, {(0, 1): 1})
    assert (x ** 7).derivative(0).is_zero()
    _same_fpoly((x ** 7 + 3 * x * y).derivative(0), FPoly(7, 2, {(0, 1): 3}), 7)
    assert (x * 7 + y * 14).is_zero()


# -- the two elimination kernels against independent routes ---------------


def _field_det(m):
    """Determinant from the pivots of the elimination loop with the field
    kernel forced."""
    pivots, sign = linalg._eliminate(m, True)
    if len(pivots) < len(m):
        return 0
    d = sign
    for piv in pivots:
        d = d * piv
    return d


def _square(entries, n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(deadline=None, max_examples=60)
@given(m=st.integers(1, 5).flatmap(lambda n: _square(st.integers(-6, 6), n)))
def test_integer_det_matches_expansion_and_field_kernel(m):
    d = linalg.det(m)
    assert type(d) is int
    embedded = [[QuadInt(x) for x in row] for row in m]
    assert linalg.expansion_det(embedded, QuadInt(1)) == QuadInt(d)
    assert _field_det([[Fraction(x) for x in row] for row in m]) == d
    # the field kernel stays exact when it meets int pivots
    assert _field_det(m) == d


def _check_inverse(m, entry_type):
    """m * inverse(m) == I with entries of entry_type, or ValueError when m
    is singular; a copy of m with a repeated (or zero) row must raise."""
    n = len(m)
    singular = m[:-1] + [m[0]] if n > 1 else [[m[0][0] * 0]]
    with pytest.raises(ValueError):
        linalg.inverse(singular)
    if linalg.det(m) == 0:
        with pytest.raises(ValueError):
            linalg.inverse(m)
        return
    inv = linalg.inverse(m)
    assert all(type(x) is entry_type for row in inv for x in row)
    assert linalg.mat_eq(linalg.mat_mul(m, inv), linalg.identity(n))


@settings(deadline=None, max_examples=60)
@given(m=st.integers(1, 4).flatmap(lambda n: _square(st.integers(-3, 3), n)))
def test_inverse_of_integer_matrices_is_rational(m):
    _check_inverse(m, Fraction)


@settings(deadline=None, max_examples=60)
@given(m=st.integers(1, 4).flatmap(
    lambda n: _square(st.fractions(-3, 3, max_denominator=4), n)))
def test_inverse_of_rational_matrices(m):
    _check_inverse(m, Fraction)


_C11_ENTRY = st.one_of(
    st.just(CycloNum(11, (0,) * 10, 1)),
    st.lists(st.integers(-2, 2), min_size=10, max_size=10).map(lambda c: CycloNum(11, c, 1)),
)


@settings(deadline=None, max_examples=40)
@given(m=st.integers(1, 3).flatmap(lambda n: _square(_C11_ENTRY, n)))
def test_inverse_of_conductor_11_matrices(m):
    _check_inverse(m, CycloNum)


@st.composite
def _affine(draw, nvars=3):
    """An affine-linear integer polynomial, often zero or constant."""
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=nvars + 1, max_size=nvars + 1))
    terms = {(0,) * nvars: coeffs[0]}
    for i, c in enumerate(coeffs[1:]):
        terms[tuple(int(k == i) for k in range(nvars))] = c
    return MultiPoly(nvars, terms)


@settings(deadline=None, max_examples=40)
@given(m=st.integers(1, 4).flatmap(lambda n: _square(_affine(), n)))
def test_polynomial_bareiss_det_matches_expansion(m):
    assert linalg.bareiss_det(m) == linalg.expansion_det(m, MultiPoly.const(3, 1))


_RATIONAL = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=6))


@st.composite
def _rational_matrix(draw):
    """Rows of ints and Fractions, with zero rows and rescaled repeats of
    earlier rows shuffled in."""
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_RATIONAL, min_size=cols, max_size=cols),
                         min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            rows.append([0] * cols)
        else:
            k = draw(st.integers(0, len(rows) - 1))
            c = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
            rows.append([c * x for x in rows[k]])
    return draw(st.permutations(rows))


@settings(deadline=None, max_examples=80)
@given(m=_rational_matrix())
def test_rational_rank_matches_field_kernel(m):
    exact = [[Fraction(x) for x in row] for row in m]
    assert linalg.rank(m) == len(linalg._eliminate(exact, True)[0])
    n = len(m)
    if n <= len(m[0]):
        assert linalg.det([row[:n] for row in m]) == _field_det([row[:n] for row in exact])


# -- the signature of a symmetric matrix -----------------------------------


def _descartes_signature(gram):
    """(positives, negatives) by Descartes' rule on the Faddeev-LeVerrier
    characteristic polynomial, exact since a symmetric matrix has real
    roots: the route that the pivot signs replaced, kept as their oracle."""
    cp = char_poly(gram)
    pos = descartes_positive_roots(cp)
    neg = descartes_positive_roots([c if i % 2 == 0 else -c for i, c in enumerate(cp)])
    assert pos + neg == len(gram)
    return pos, neg


@st.composite
def _symmetric(draw):
    """A symmetric integer matrix of size at most 8 with entries in [-3, 3],
    often zero on the diagonal, with up to two U = [[0, 1], [1, 0]] summands
    shuffled into its rows and columns."""
    planes = draw(st.integers(0, 2))
    m = draw(st.integers(0 if planes else 1, 8 - 2 * planes))
    diagonal = st.just(0) if draw(st.booleans()) else st.one_of(st.just(0), st.integers(-3, 3))
    n = m + 2 * planes
    g = [[0] * n for _ in range(n)]
    for i in range(m):
        g[i][i] = draw(diagonal)
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    for k in range(m, n, 2):
        g[k][k + 1] = g[k + 1][k] = 1
    perm = draw(st.permutations(range(n)))
    return [[g[i][j] for j in perm] for i in perm]


@settings(deadline=None, max_examples=200)
@given(g=_symmetric())
def test_signature_matches_descartes_oracle(g):
    assume(linalg.det(g) != 0)
    assert lattices.Lattice(g).signature() == _descartes_signature(g)
    # every pivot is nonzero, and the congruence pivots are unimodular, so
    # the last minor is det g
    minors = linalg.symmetric_elimination(g)[1]
    assert all(minors) and minors[-1] == linalg.det(g)


# -- the k x k minors of a rectangular matrix ------------------------------


def _matrix(entries, rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_exterior_power_entries_are_minors_and_compose(data):
    """Entry (I, J) of the k-th exterior power of an r x n matrix is the
    determinant on the I-th k-subset of rows and the J-th k-subset of
    columns; and Cauchy-Binet holds: wedge^k(AB) = wedge^k(A) wedge^k(B)."""
    entries = data.draw(st.sampled_from([st.integers(-5, 5), _RATIONAL]))
    r, n, q = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, min(r, n, q)))
    a, b = data.draw(_matrix(entries, r, n)), data.draw(_matrix(entries, n, q))
    wedge = linalg.exterior_power_matrix(a, k)
    row_sets, col_sets = list(combinations(range(r), k)), list(combinations(range(n), k))
    assert len(wedge) == len(row_sets)
    for rows, got in zip(row_sets, wedge):
        assert len(got) == len(col_sets)
        for cols, minor in zip(col_sets, got):
            assert minor == linalg.det([[a[i][j] for j in cols] for i in rows])
    assert linalg.exterior_power_matrix(linalg.mat_mul(a, b), k) == linalg.mat_mul(
        wedge, linalg.exterior_power_matrix(b, k))


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_exterior_power_trace_is_the_trace_of_the_exterior_power(data):
    """The sum of the principal k x k minors is the trace of the k-th
    exterior power, for int and Fraction entries."""
    entries = data.draw(st.sampled_from([st.integers(-5, 5), _RATIONAL]))
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, min(4, n)))
    m = data.draw(_matrix(entries, n, n))
    assert linalg.exterior_power_trace(m, k) == linalg.trace(linalg.exterior_power_matrix(m, k))


def _fpoly_det(sub, p):
    """The determinant over F_p of a matrix of FPolys, taken by the
    polynomial Bareiss kernel over Z on the lifts and then reduced."""
    lifted = [[MultiPoly(x.nvars, x.terms) for x in row] for row in sub]
    return FPoly.from_int_poly(linalg.bareiss_det(lifted), p)


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_maximal_minors_are_the_column_subset_determinants(data):
    """Every entry of maximal_minors on an r x n matrix is the determinant
    of the submatrix on its columns, and a mask missing from it is a zero
    minor: against linalg.det for ints and Fractions, and against
    expansion_det and the Bareiss kernel over Z for FPolys."""
    kind = data.draw(st.sampled_from(["int", "rational", "fpoly"]))
    n = data.draw(st.integers(1, 6))
    r = data.draw(st.integers(1, min(4, n)))
    if kind == "fpoly":
        p = 7
        entries = _affine().map(lambda f: FPoly.from_int_poly(f, p))
        one = FPoly(p, 3, {(0, 0, 0): 1})
    else:
        entries = st.integers(-5, 5) if kind == "int" else _RATIONAL
        one = 1
    m = data.draw(_matrix(entries, r, n))
    minors = linalg.maximal_minors(m, one)
    col_sets = list(combinations(range(n), r))
    masks = [sum(1 << c for c in cols) for cols in col_sets]
    assert set(minors) <= set(masks)
    for cols, mask in zip(col_sets, masks):
        sub = [[row[c] for c in cols] for row in m]
        got = minors.get(mask, one - one)
        if kind == "fpoly":
            assert got.terms == linalg.expansion_det(sub, one).terms == _fpoly_det(sub, p).terms
        else:
            assert got == linalg.det(sub)


# -- the simplex interpolation route against the polynomial Bareiss route ---


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_simplex_det_matches_bareiss(data):
    nvars = data.draw(st.integers(2, 5))
    m = data.draw(st.integers(1, 5).flatmap(lambda n: _square(_affine(nvars), n)))
    det = linalg.bareiss_det(m)
    assert epw._simplex_det(m) == det
    # any radius from the true degree up to the size is exact
    degree = data.draw(st.integers(max(det.total_degree(), 0), len(m)))
    assert epw._simplex_det(m, degree) == det


def test_simplex_det_reaches_the_size_bound():
    # degree 8 in one variable: beyond any tensor grid sized for degree 6
    x1 = MultiPoly.var(0, 3)
    zero = MultiPoly.zero(3)
    m = [[x1 if i == j else zero for j in range(8)] for i in range(8)]
    assert epw._simplex_det(m) == MultiPoly(3, {(8, 0, 0): 1})


# -- CycloNum field axioms across conductors --------------------------------

CONDUCTORS = (1, 3, 5, 7, 11, 15, 33)
# the maximal lcms of those conductors that stay within MAX_CONDUCTOR 66,
# so that any elements drawn for one host can be combined
HOSTS = (15, 21, 33, 35, 55)


@st.composite
def _cyclos(draw, size=3):
    """size cyclotomic numbers with conductors from CONDUCTORS, mixed, all
    dividing one host field."""
    host = draw(st.sampled_from(HOSTS))
    out = []
    for _ in range(size):
        n = draw(st.sampled_from([c for c in CONDUCTORS if host % c == 0]))
        coeffs = draw(st.lists(st.fractions(-4, 4, max_denominator=3),
                               min_size=euler_phi(n), max_size=euler_phi(n)))
        out.append(cyclo_from_fractions(n, coeffs))
    return out


def _same(a, b):
    return a == b and hash(a) == hash(b)


@settings(deadline=None, max_examples=60)
@given(xyz=_cyclos())
def test_cyclo_field_axioms_across_conductors(xyz):
    x, y, z = xyz
    assert _same((x * y) * z, x * (y * z))
    assert _same((x + y) + z, x + (y + z))
    assert _same(x * (y + z), x * y + x * z)
    assert _same(x * y, y * x)
    host = lcm(x.n, y.n, z.n)
    assert _same(x, x.lift(host))
    if not x.is_zero():
        assert x * x.inverse() == 1
        assert _same((x * y) / x, y)


@settings(deadline=None, max_examples=60)
@given(n=st.sampled_from([5, 11]), data=st.data())
def test_hash_does_not_depend_on_the_conductor(n, data):
    coeffs = data.draw(st.lists(st.fractions(-4, 4, max_denominator=3),
                                min_size=euler_phi(n), max_size=euler_phi(n)))
    x = cyclo_from_fractions(n, coeffs)
    assert hash(x) == hash(x.lift(55))


# -- the packed matrix product against the per-entry product ----------------

# conductors of the entries, and hosts whose divisors among them can be
# mixed in one product within MAX_CONDUCTOR
PRODUCT_CONDUCTORS = (1, 3, 5, 11, 33)
PRODUCT_HOSTS = (15, 33, 55)


def _per_entry_mat_mul(a, b):
    """The term-by-term product: one reduced CycloNum per term and another
    per addition."""
    zero = CycloNum.from_rational(0)
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = None
            for k, x in enumerate(row):
                y = b[k][j]
                if not x or not y:
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            out_row.append(zero if acc is None else acc)
        out.append(tuple(out_row))
    return tuple(out)


@st.composite
def _cyclo_entry(draw, host, bound):
    """A CycloNum of a conductor dividing host: often zero, otherwise with
    signed coefficients up to bound over mixed denominators."""
    n = draw(st.sampled_from([c for c in PRODUCT_CONDUCTORS if host % c == 0]))
    phi = euler_phi(n)
    if draw(st.integers(0, 3)) == 0:
        return CycloNum(n, (0,) * phi, 1)
    coeffs = draw(st.lists(st.integers(-bound, bound), min_size=phi, max_size=phi))
    return CycloNum(n, coeffs, draw(st.sampled_from([1, 1, 2, 3, 7, 2 ** 40 + 15])))


@st.composite
def _matrix_pair(draw):
    """An n x n pair (n from 1 to 10) over one host field."""
    n = draw(st.integers(1, 10))
    host = draw(st.sampled_from(PRODUCT_HOSTS))
    bound = draw(st.sampled_from([1, 5, 2 ** 30, 2 ** 100]))
    entry = _cyclo_entry(host, bound)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(square), draw(square)


def _equal_matrices(got, want):
    return len(got) == len(want) and all(
        len(r) == len(s) and all(x == y for x, y in zip(r, s)) for r, s in zip(got, want)
    )


@settings(deadline=None, max_examples=60)
@given(pair=_matrix_pair())
# a rational factor, as in epw.dual_rebuild_check's products
@example(pair=([[Fraction(1, 2), Fraction(-3)], [0, Fraction(5, 7)]],
               [[CycloNum.zeta(11, 1), CycloNum.from_rational(2, 11)],
                [CycloNum.zeta(11, 3), CycloNum.from_rational(0, 11)]]))
def test_packed_mat_mul_matches_per_entry_product(pair):
    a, b = pair
    want = _per_entry_mat_mul(a, b)
    assert _equal_matrices(group.mat_mul(a, b), want)
    # linalg.mat_mul packs every product with a CycloNum operand
    packed = linalg.mat_mul(a, b)
    assert type(packed) is tuple and _equal_matrices(packed, want)


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("conductor", PRODUCT_CONDUCTORS)
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_mat_mul_at_the_coefficient_bound(n, conductor, sign):
    # every coefficient of every entry at +-2^100: the middle coefficient
    # of each output convolution sum is n * phi * 2^200, the radix bound
    phi = euler_phi(conductor)
    top = 2 ** 100
    a = [[CycloNum(conductor, (sign * top,) * phi, 1)] * n for _ in range(n)]
    b = [[CycloNum(conductor, (top,) * phi, 1)] * n for _ in range(n)]
    assert _equal_matrices(group.mat_mul(a, b), _per_entry_mat_mul(a, b))


# -- packed exterior powers against the cofactor route ----------------------

MINOR_CONDUCTORS = (1, 3, 5, 11, 15, 33, 55)


@st.composite
def _minor_entry(draw, host):
    """An int, a Fraction or a CycloNum of a conductor dividing host, over
    a denominator; any of them may be zero."""
    kind = draw(st.sampled_from(["int", "fraction", "cyclo", "cyclo"]))
    if kind == "int":
        return draw(st.integers(-4, 4))
    if kind == "fraction":
        return draw(st.fractions(-3, 3, max_denominator=6))
    n = draw(st.sampled_from([c for c in MINOR_CONDUCTORS if host % c == 0]))
    phi = euler_phi(n)
    if draw(st.integers(0, 4)) == 0:
        return CycloNum(n, (0,) * phi, 1)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=phi, max_size=phi))
    return CycloNum(n, coeffs, draw(st.sampled_from([1, 2, 3, 10])))


@st.composite
def _packed_minor_case(draw):
    """(m, k): an r x n matrix, r <= 5 and n <= 6, of mixed entries over a
    host field, with one CycloNum entry at least and some zero rows, and
    1 <= k <= min(r, n)."""
    host = draw(st.sampled_from(MINOR_CONDUCTORS))
    r, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = _minor_entry(host)
    m = draw(_matrix(entry, r, n))
    for i in draw(st.sets(st.integers(0, r - 1), max_size=2)):
        m[i] = [draw(st.sampled_from([0, Fraction(0), CycloNum.from_rational(0, host)]))] * n
    m[draw(st.integers(0, r - 1))][draw(st.integers(0, n - 1))] = CycloNum.zeta(
        host, draw(st.integers(0, host - 1)))
    return m, draw(st.sampled_from(range(1, min(r, n) + 1)))


@settings(deadline=None, max_examples=100)
@given(case=_packed_minor_case())
def test_packed_exterior_power_matches_the_cofactor_route(case):
    """Each k x k minor expanded on Kronecker-packed ints, and the trace of
    the leading square block's exterior power, equal the cofactor route's,
    one CycloNum product at a time."""
    m, k = case
    got, want = linalg.exterior_power_matrix(m, k), cofactor_exterior_power(m, k)
    assert _equal_matrices(got, want)
    assert all(isinstance(x, CycloNum) for row in got for x in row)
    square = [row[:min(len(m), len(m[0]))] for row in m[:len(m[0])]]
    assert linalg.exterior_power_trace(square, k) == cofactor_exterior_trace(square, k)


_QUADINT = st.builds(QuadInt, st.integers(-6, 6), st.integers(-6, 6))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_packed_exterior_power_over_z_w_matches_the_cofactor_route(data):
    """The same over Z[w]: QuadInt and int entries, zero rows included,
    unpacked by the powers of w."""
    r, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    k = data.draw(st.sampled_from(range(1, min(r, n) + 1)))
    m = data.draw(_matrix(st.one_of(_QUADINT, st.integers(-3, 3), st.just(QuadInt(0))), r, n))
    for i in data.draw(st.sets(st.integers(0, r - 1), max_size=2)):
        m[i] = [QuadInt(0)] * n
    m[0][0] = data.draw(_QUADINT)
    got = linalg.exterior_power_matrix(m, k)
    assert _equal_matrices(got, cofactor_exterior_power(m, k))
    assert all(isinstance(x, QuadInt) for row in got for x in row)
    square = [row[:min(r, n)] for row in m[:n]]
    assert linalg.exterior_power_trace(square, k) == cofactor_exterior_trace(square, k)


def _radix_stress(ring, size, top):
    """A size x size matrix whose principal minors of size 1 and 2 reach
    the radix bound k! * s^k, s = top: entry (i, j) is +-top times
    z^(i + j) (or times w^(j mod 2) over Z[w]), + on and below the diagonal
    and - above, so both terms of a principal 2 x 2 minor have one sign and
    one power."""
    def entry(i, j):
        sign = 1 if i >= j else -1
        if ring == "z[w]":
            return QuadInt(0, sign * top) if j % 2 else QuadInt(sign * top)
        n = int(ring)
        return CycloNum(n, [sign * top if t == (i + j) % euler_phi(n) else 0
                            for t in range(euler_phi(n))], 1)
    return [[entry(i, j) for j in range(size)] for i in range(size)]


@pytest.mark.parametrize("ring", ["1", "11", "55", "z[w]"])
@pytest.mark.parametrize("k", [1, 2])
def test_packed_exterior_power_at_the_radix_bound(ring, k):
    # coefficients near 10^6: a principal 2 x 2 minor is 2 * top^2 on one
    # digit and the trace of the 5 x 5 matrix's k-th power sums C(5, k) of
    # them, each the bound the radix is sized for; one bit less overflows
    top = 10 ** 6 - 1
    m = _radix_stress(ring, 5, top)
    assert _equal_matrices(linalg.exterior_power_matrix(m, k), cofactor_exterior_power(m, k))
    trace = linalg.exterior_power_trace(m, k)
    assert trace == cofactor_exterior_trace(m, k)
    if ring == "1":
        assert trace == comb(5, k) * factorial(k) * top ** k


# prime conductors, as in the closure, and two composite ones, where
# several powers of z past the power basis fold back
KERNEL_CONDUCTORS = (3, 5, 7, 11, 12, 15)


@st.composite
def _kernel_case(draw):
    """Two r x k matrices and a k x c matrix over one conductor, with zero
    entries, signed coefficients and mixed denominators; the right factor
    is sometimes monomial, with scalars +-z^j (the closure's shortcut) or
    other multiples of z^j."""
    n = draw(st.sampled_from(KERNEL_CONDUCTORS))
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    phi, bound = euler_phi(n), draw(st.sampled_from([1, 5, 2 ** 30]))
    entry = st.one_of(
        st.just(CycloNum(n, (0,) * phi, 1)),
        st.builds(lambda cs, d: CycloNum(n, cs, d),
                  st.lists(st.integers(-bound, bound), min_size=phi, max_size=phi),
                  st.sampled_from([1, 2, 3, 7, 2 ** 40 + 15])))
    left = st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r)
    a, a2 = draw(left), draw(left)
    if draw(st.booleans()):
        b = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
    else:
        b = [[CycloNum(n, (0,) * phi, 1)] * c for _ in range(k)]
        # a scalar other than +-1 times a root of unity takes the dense kernel
        scalars = st.sampled_from([1, 1, -1, -1, 2, Fraction(1, 2), Fraction(-1, 3)])
        for j in range(c):
            b[draw(st.integers(0, k - 1))][j] = (draw(scalars)
                                                 * CycloNum.zeta(n, draw(st.integers(0, n - 1))))
    return n, a, a2, b


def _normalized_like_the_constructor(n, m):
    return all(type(x.num) is tuple and x.den > 0 and gcd(x.den, *x.num) == 1
               and (x.num, x.den) == (y.num, y.den)
               for row in m for x in row for y in (CycloNum(n, x.num, x.den),))


@settings(deadline=None, max_examples=80)
@given(case=_kernel_case())
def test_packed_kernel_matches_the_schoolbook_product(case):
    n, a, a2, b = case
    assert _equal_matrices(cyclo.mat_mul(a, b), _per_entry_mat_mul(a, b))
    # one multiplier for both left factors: the second may meet its packed
    # columns again
    times = cyclo.right_multiplier(b, n)
    for left in (a, a2):
        coords = times(tuple((x.num, x.den) for row in left for x in row))
        got = cyclo.matrix_of(n, coords, len(b[0]))
        assert _equal_matrices(got, _per_entry_mat_mul(left, b))
        assert _normalized_like_the_constructor(n, got)


def test_closure_entries_are_normalized_like_the_constructor(table660):
    assert all(_normalized_like_the_constructor(11, m) for m in table660.elements)


@st.composite
def _sparse(draw, nvars, coeffs):
    """A polynomial in nvars variables with exponents up to 4."""
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    return MultiPoly(nvars, draw(st.dictionaries(exps, coeffs, max_size=5)))


@settings(deadline=None, max_examples=80)
@given(nvars=st.integers(1, 2), data=st.data())
def test_divmod_over_q_is_division_with_remainder(nvars, data):
    coeffs = _RATIONAL.filter(bool).map(Fraction)
    a = data.draw(_sparse(nvars, coeffs))
    b = data.draw(_sparse(nvars, coeffs).filter(bool))
    q, r = a.divmod(b)
    assert q * b + r == a
    lead, _ = b.leading_term()
    assert not any(all(x >= y for x, y in zip(e, lead)) for e in r.terms)
    if r:
        with pytest.raises(ValueError):
            a.exact_div(b)
    else:
        assert a.exact_div(b) == q
    assert (a * b).exact_div(b) == a
    if a:
        assert a.monic().leading_term()[1] == 1


@settings(deadline=None, max_examples=80)
@given(nvars=st.integers(1, 2), data=st.data())
def test_divmod_over_z_stays_exact(nvars, data):
    coeffs = st.integers(-6, 6).filter(bool)
    a = data.draw(_sparse(nvars, coeffs))
    b = data.draw(_sparse(nvars, coeffs).filter(bool))
    q, r = a.divmod(b)
    assert q * b + r == a
    assert all(type(c) is int for p in (q, r) for c in p.terms.values())
    # a term of r under the leading monomial has a coefficient the leading
    # coefficient does not divide
    lead, lc = b.leading_term()
    for e, c in r.terms.items():
        if all(x >= y for x, y in zip(e, lead)):
            assert c % lc
    assert (a * b).exact_div(b) == a
    assert all(type(c) in (int, Fraction) for p in (a.monic(), b.monic())
               for c in p.terms.values())
    assert b.monic().leading_term()[1] == 1


# -- the heap division and the tower inverse against their oracles ---------


@settings(deadline=None, max_examples=150)
@given(ring=st.sampled_from(("Z", "Q", "F_p")), nvars=st.integers(1, 3), data=st.data())
def test_divmod_matches_the_max_scan(ring, nvars, data):
    """The same quotient and remainder, term for term and in order, for a
    dividend a * b + c (many cancellations) and for a plain one; over Z
    the remainder may keep terms the leading coefficient does not divide."""
    coeffs = {"Z": st.integers(-6, 6), "Q": _RATIONAL, "F_p": st.integers(-6, 6)}[ring]
    a, b, c = (data.draw(_sparse(nvars, coeffs.filter(bool))) for _ in range(3))
    assume(b)
    if ring == "F_p":
        a, b, c = (FPoly.from_int_poly(f, 7) for f in (a, b, c))
        assume(b)
    for dividend in (a * b + c, a):
        got, want = dividend.divmod(b), max_scan_divmod(dividend, b)
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert list(g.terms.items()) == list(w.terms.items())
        assert got[0] * b + got[1] == dividend


@st.composite
def _invertible(draw, n):
    """A nonzero element of conductor n: a rational, +-z^k, a sparse one
    with up to three nonzero coordinates, or a dense one."""
    phi = euler_phi(n)
    kind = draw(st.sampled_from(("rational", "unit", "sparse", "dense")))
    if kind == "rational":
        return CycloNum.from_rational(draw(_RATIONAL.filter(bool)), n)
    if kind == "unit":
        z = CycloNum.zeta(n, draw(st.integers(0, n - 1)))
        return z if draw(st.booleans()) else -z
    if kind == "sparse":
        coeffs = [0] * phi
        for i in draw(st.lists(st.integers(0, phi - 1), min_size=1, max_size=3)):
            coeffs[i] = draw(st.integers(-5, 5).filter(bool))
    else:
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi).filter(any))
    return CycloNum(n, coeffs, draw(st.integers(1, 6)))


@pytest.mark.parametrize("n", range(1, MAX_CONDUCTOR + 1))
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_inverse_matches_the_conjugate_product(n, data):
    x = data.draw(_invertible(n))
    got, want = x.inverse(), conjugate_product_inverse(x)
    assert (got.n, got.num, got.den) == (want.n, want.num, want.den)
    assert x * got == 1


# -- the packed linear substitution against MultiPoly.substitute ------------

# entry conductors, and the hosts whose divisors among them are mixed in one
# matrix (every lcm within MAX_CONDUCTOR)
SUBSTITUTION_CONDUCTORS = (1, 3, 4, 5, 11)
SUBSTITUTION_HOSTS = (1, 3, 4, 5, 11, 12, 15, 20, 33, 44, 55, 60)


@st.composite
def _substitution_entry(draw, host, bound):
    """An int, a Fraction or a CycloNum of a conductor dividing host; often
    zero, otherwise with coefficients up to bound over mixed denominators."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return 0
    den = draw(st.sampled_from([1, 1, 2, 3, 2 ** 40 + 15]))
    if kind == 1:
        value = draw(st.integers(-bound, bound))
        return value if den == 1 else Fraction(value, den)
    n = draw(st.sampled_from([c for c in SUBSTITUTION_CONDUCTORS if host % c == 0]))
    phi = euler_phi(n)
    coeffs = draw(st.lists(st.integers(-bound, bound), min_size=phi, max_size=phi))
    return CycloNum(n, coeffs, den)


@st.composite
def _substitution(draw):
    """(terms, rows): a polynomial in 1..3 variables of degree up to 4,
    neither homogeneous nor invariant in general, with int and Fraction
    coefficients, and a matrix over one host field with some zero rows."""
    nvars, nout = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    host = draw(st.sampled_from(SUBSTITUTION_HOSTS))
    bound = draw(st.sampled_from([1, 5, 2 ** 30, 2 ** 100]))
    entry = _substitution_entry(host, bound)
    rows = []
    for _ in range(nvars):
        zero_row = draw(st.integers(0, 4)) == 0
        rows.append([0] * nout if zero_row else draw(st.lists(entry, min_size=nout,
                                                               max_size=nout)))
    exps = st.tuples(*[st.integers(0, 4)] * nvars).filter(lambda e: sum(e) <= 4)
    coeff = st.one_of(st.integers(-bound, bound).filter(bool),
                      st.fractions(-bound, bound, max_denominator=12).filter(bool))
    terms = draw(st.dictionaries(exps, coeff, max_size=6))
    return terms, rows


@settings(deadline=None, max_examples=80)
@given(case=_substitution())
# the zero polynomial and constants: Horner's rule meets no terms, or
# terms in no variable
@example(case=({}, [[1, 2], [3, 4]]))
@example(case=({(0, 0): 5}, [[1, 2], [3, 4]]))
@example(case=({(0, 0): Fraction(-2, 7)}, [[CycloNum.zeta(11), Fraction(1, 3)]] * 2))
def test_packed_substitution_matches_multipoly_substitute(case):
    terms, rows = case
    got = substitute_linear(terms, rows)
    assert all(isinstance(c, CycloNum) and c for c in got.values())
    assert MultiPoly(len(rows[0]), got) == MultiPoly(len(rows), terms).substitute(
        linear_forms(rows))
    # term for term against the power-cache expansion
    want = power_cache_substitute(terms, rows)
    assert {e: (c.n, c.num, c.den) for e, c in got.items()} == {
        e: (c.n, c.num, c.den) for e, c in want.items()}


@pytest.mark.parametrize("conductor", SUBSTITUTION_CONDUCTORS)
@pytest.mark.parametrize("degree", [1, 4])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_substitution_at_the_coefficient_bound(conductor, degree, sign):
    # c x^d under x -> T y: the one coefficient c T^d is the radix bound itself
    top = 2 ** 100
    terms = {(degree,): sign * top}
    rows = [[CycloNum(conductor, (top,) + (0,) * (euler_phi(conductor) - 1), 1)]]
    assert substitute_linear(terms, rows) == {(degree,): sign * top ** (degree + 1)}
    # every coefficient of a dense entry at T: the carries reach all digits
    dense = [[CycloNum(conductor, (top,) * euler_phi(conductor), 1)] * 2] * 2
    terms = {(degree, 0): sign * top, (0, degree): top, (1, degree - 1): 3}
    want = MultiPoly(2, terms).substitute(linear_forms(dense))
    assert MultiPoly(2, substitute_linear(terms, dense)) == want


# -- leading minors without row swaps against block-by-block determinants ----

_ZW = st.builds(QuadInt, st.integers(-3, 3), st.integers(-2, 2))


def _zw(rows):
    return [[QuadInt(x) for x in row] for row in rows]


@st.composite
def _hermitian_zw(draw):
    """A Hermitian matrix over Z[w] of size 1..6: a Gram matrix conj(B)^T B
    (positive semidefinite; singular with B, and B often has a zero
    column) or one with random entries (mostly indefinite), then shifted
    by a small multiple of I."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        b = draw(_square(st.one_of(st.just(QuadInt(0)), _ZW), n))
        m = linalg.mat_mul(linalg.conj_transpose(b), b)
    else:
        m = [[None] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = QuadInt(draw(st.integers(-4, 6)))
            for j in range(i):
                m[i][j] = draw(_ZW)
                m[j][i] = m[i][j].conj()
    shift = draw(st.sampled_from([0, 0, 0, 1, -1, 3]))
    return [[x + shift if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]


@settings(deadline=None, max_examples=100)
@given(m=_hermitian_zw())
@example(m=_zw([[0, 1], [1, 0]]))
@example(m=_zw([[1, 0, 0], [0, 0, 0], [0, 0, 1]]))
@example(m=_zw([[1, 0], [0, -1]]))
def test_leading_minors_match_the_block_by_block_route(m):
    want = per_block_leading_minors(m)
    first_zero = next((k + 1 for k, v in enumerate(want) if not v), len(want))
    assert hermitian.leading_minor_values(m) == want[:first_zero]
    definite = all(v > 0 for v in want)
    assert hermitian.is_positive_definite(m) == definite
    if definite:
        assert hermitian.polarization_invariants(m) == cyclotomic_polarization_invariants(m)
    else:
        with pytest.raises(ValueError):
            hermitian.polarization_invariants(m)
    embedded = [[x.to_cyclo() for x in row] for row in m]
    assert group.hermitian_positive_definite(embedded) == definite
    assert per_block_positive_definite(embedded) == definite


@st.composite
def _hermitian_cyclo(draw):
    """conj(B)^T B + s I over the conductor-5 or -7 field, size 1..4: its
    leading minors are real and often irrational, and s < 0 makes some of
    them positive without being totally positive."""
    n, conductor = draw(st.integers(1, 4)), draw(st.sampled_from([5, 7]))
    phi = euler_phi(conductor)
    entry = st.one_of(st.just(CycloNum.from_rational(0, conductor)),
                      st.lists(st.integers(-2, 2), min_size=phi, max_size=phi).map(
                          lambda c: CycloNum(conductor, c, 1)))
    b = draw(_square(entry, n))
    shift = draw(st.sampled_from([0, 0, 1, -1, -3]))
    m = linalg.mat_mul(linalg.conj_transpose(b), b)
    return [[x + shift if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]


@settings(deadline=None, max_examples=60)
@given(m=_hermitian_cyclo())
@example(m=[[CycloNum.from_rational(2, 5), CycloNum.zeta(5)],
            [CycloNum.zeta(5, 4), CycloNum.from_rational(3, 5)]])
@example(m=[[CycloNum.zeta(5) + CycloNum.zeta(5, 4) + 2]])
def test_sylvester_test_matches_the_block_by_block_route(m):
    """Rational minors decide; an irrational minor met first is a
    ValueError on both routes."""
    try:
        want = per_block_positive_definite(m)
    except ValueError:
        with pytest.raises(ValueError):
            group.hermitian_positive_definite(m)
    else:
        assert group.hermitian_positive_definite(m) == want


@settings(deadline=None, max_examples=60)
@given(m=st.integers(1, 5).flatmap(lambda n: _square(
    st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=4)), n)))
@example(m=[[0, 1], [1, 0]])
@example(m=[[Fraction(1, 2), 1, 0], [1, Fraction(1, 3), 1], [0, 1, Fraction(2, 7)]])
def test_integer_leading_minors_are_the_block_determinants(m):
    """Over ints and Fractions alike: a Fraction row is cleared of its
    denominators before the fraction-free elimination, and each minor
    divided back by the multipliers of its rows."""
    want = [linalg.det([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]
    first_zero = next((k + 1 for k, v in enumerate(want) if not v), len(want))
    assert linalg.leading_minors(m) == want[:first_zero]
    field = linalg.leading_minors([[CycloNum.from_rational(x, 3) for x in row] for row in m])
    assert field == want[:first_zero]


_QUOTIENT_ENTRY = st.builds(QuadInt, st.integers(-40, 40), st.integers(-40, 40))


@settings(deadline=None, max_examples=100)
@given(q=_QUOTIENT_ENTRY, r=_QUOTIENT_ENTRY)
@example(q=QuadInt(2, 1), r=QuadInt(0))
@example(q=QuadInt(-7, 3), r=QuadInt(2))
def test_quadint_floordiv_is_the_exact_quotient(q, r):
    if not r:
        with pytest.raises(ZeroDivisionError):
            q // r
        return
    assert (q * r) // r == q
    if r != 1 and r != -1:
        # 1 is not a multiple of r in Z[w], whose only units are +-1
        with pytest.raises(ArithmeticError):
            (q * r + 1) // r


# -- MultiPoly.evaluate against the term-by-term product ---------------------


@st.composite
def _evaluation(draw):
    """A polynomial of mixed degrees with int and Fraction coefficients,
    and an all-int point or one with Fraction coordinates."""
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 5)] * nvars)
    coeff = st.one_of(st.integers(-50, 50).filter(bool),
                      st.fractions(-50, 50, max_denominator=12).filter(bool))
    terms = draw(st.dictionaries(exps, coeff, max_size=8))
    coord = st.integers(-7, 7)
    if draw(st.booleans()):
        coord = st.one_of(coord, st.fractions(-7, 7, max_denominator=30))
    return MultiPoly(nvars, terms), draw(st.lists(coord, min_size=nvars, max_size=nvars))


@settings(deadline=None, max_examples=150)
@given(case=_evaluation())
def test_evaluate_matches_the_term_by_term_product(case):
    f, point = case
    got, want = f.evaluate(point), term_by_term_evaluate(f, point)
    assert got == want
    if all(type(x) is int for x in point + list(f.terms.values())):
        assert type(got) is int
