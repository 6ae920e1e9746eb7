"""The tests' reference routes for exact kernels and constructions, each
the simpler route that the package's own replaced, kept to compare with.

conjugate_product_inverse multiplies the Galois conjugates one by one;
CycloNum.inverse multiplies them along a tower of subgroups.
max_scan_divmod finds each step's leading term by a scan of the whole
remainder; MultiPoly.divmod pops it from a heap.
The *_mod builders construct the Groebner gate ideals over F_p, prime by
prime, and lifted_jacobian_minors expands the minors of their integer
lifts in [0, p); the package builds each ideal and its minors once over
Z and reduces them at each prime.
tuple_normal_form, tuple_buchberger and tuple_autoreduce are the Groebner
kernel on exponent tuples, with divides as its divisibility test; the
package runs the same algorithm on packed monomials (poly.grevlex_packing).
per_block_leading_minors takes herm_det of each leading block, and
per_block_positive_definite linalg.det of each, then reads every minor as
a rational, as group.hermitian_positive_definite does; the package reads
all leading minors off one elimination without row swaps
(linalg.leading_minors).
char_poly is Faddeev-LeVerrier on any exact matrix, and
descartes_positive_roots counts the sign changes of a polynomial with
real roots only.  cyclotomic_polarization_invariants runs char_poly on
the conductor-11 embedding; hermitian.polarization_invariants runs
Faddeev-LeVerrier on the integer pair of Z[w] coordinates.
term_by_term_evaluate multiplies each coordinate in, one factor at a
time; MultiPoly.evaluate uses a power table over one common denominator.
"""

import heapq
from fractions import Fraction
from itertools import combinations
from math import gcd

from kleinepw import hermitian, linalg
from kleinepw.cyclo import CycloNum, lambda_embed
from kleinepw.epw import build_A, merge_indices
from kleinepw.fixtures import PAIR_VARS, QUADRIC_TEXT, sextic_poly
from kleinepw.groebner import MAX_DEGREE, MAX_PAIRS, BudgetExhausted, FPoly, certifies_empty
from kleinepw.poly import MultiPoly, grevlex_key, linear_forms
from kleinepw.textform import parse_polynomial


def conjugate_product_inverse(x):
    """1/x as the product of the phi(n) - 1 conjugates other than x, over
    the norm."""
    adj = CycloNum.from_rational(1, x.n)
    for t in range(2, x.n):
        if gcd(t, x.n) == 1:
            adj = adj * x.galois(t)
    norm = (x * adj).to_fraction()
    return CycloNum(x.n, [c * norm.denominator for c in adj.num],
                    adj.den * norm.numerator)


def max_scan_divmod(a, divisor):
    """a.divmod(divisor) with the largest remaining monomial found by a
    scan at every step, through the same hooks (_ints_in_z, _inverse,
    _with_terms)."""
    de, dc = divisor.leading_term()
    tail = [(e, c) for e, c in divisor.terms.items() if e != de]
    over_z = a._ints_in_z and isinstance(dc, int)
    inv = a._inverse(dc)
    rem = dict(a.terms)
    q, r = {}, {}
    while rem:
        e = max(rem, key=grevlex_key)
        c = rem.pop(e)
        qe = tuple(x - y for x, y in zip(e, de))
        whole = over_z and isinstance(c, int)
        if any(x < 0 for x in qe) or (whole and c % dc):
            r[e] = c
            continue
        qc = c // dc if whole else c * inv
        q[qe] = qc
        for te, tc in tail:
            ke = tuple(x + y for x, y in zip(qe, te))
            acc = rem.get(ke)
            s = (acc if acc is not None else 0) - qc * tc
            if s:
                rem[ke] = s
            elif ke in rem:
                del rem[ke]
    return a._with_terms(q), a._with_terms(r)


def fpoly_var(p, i, nvars, coeff=1):
    """The variable x_i over F_p, times coeff."""
    e = [0] * nvars
    e[i] = 1
    return FPoly(p, nvars, {tuple(e): coeff})


def pluecker_relations_mod(k, n, p):
    """The quadratic Pluecker relations of the cone over Gr(k, n) over F_p,
    zeros and relations equal to an earlier one up to a scalar mod p
    dropped."""
    index = {s: i for i, s in enumerate(combinations(range(n), k))}
    out, seen = [], set()
    for I in combinations(range(n), k - 1):
        for J in combinations(range(n), k + 1):
            terms = []
            for t, j in enumerate(J):
                sign, merged = merge_indices(I, (j,))
                if not sign:
                    continue
                e = [0] * len(index)
                e[index[merged]] += 1
                e[index[J[:t] + J[t + 1:]]] += 1
                terms.append((e, sign * (-1) ** t))
            rel = FPoly(p, len(index), terms)
            key = frozenset(rel.monic().terms.items())
            if rel and key not in seen:
                seen.add(key)
                out.append(rel)
    return out


def decomposable_pullback_ideal_mod(p):
    """The Gr(3, 6) relations over F_p pulled back to the Lagrangian family,
    zeros and pullbacks equal to an earlier one up to a scalar dropped,
    the rest monic."""
    linear = [FPoly.from_int_poly(form, p) for form in linear_forms(list(zip(*build_A())))]
    out, seen = [], set()
    for rel in pluecker_relations_mod(3, 6, p):
        acc = rel.substitute(linear)
        if not acc.is_zero():
            key = frozenset(acc.monic().terms.items())
            if key not in seen:
                seen.add(key)
                out.append(acc.monic())
    return out


def gm_threefold_ideal_mod(p):
    """The threefold section's quadrics over F_p, built as the package's
    builder builds them over Z."""
    names = ["x01", "x02", "x12", "x13", "x14", "x23", "x24", "x34"]

    def var(name, coeff=1):
        return fpoly_var(p, names.index(name), 8, coeff)

    section = {"x03": var("x12", -1), "x04": var("x23")}
    pairs = [f"x{i}{j}" for i, j in combinations(range(5), 2)]
    images = [section[pair] if pair in section else var(pair) for pair in pairs]
    out = [rel.substitute(images) for rel in pluecker_relations_mod(2, 5, p)]
    out.append(var("x01") * var("x02") - var("x13") * var("x14") - var("x24") * var("x34"))
    return out


def gm_fivefold_ideal_mod(p):
    out = pluecker_relations_mod(2, 5, p)
    out.append(FPoly.from_int_poly(parse_polynomial(QUADRIC_TEXT, PAIR_VARS), p))
    return out


def sextic_singular_locus_ideal_mod(p):
    f = FPoly.from_int_poly(sextic_poly(), p)
    return [f.derivative(i) for i in range(6)]


def lifted_jacobian_minors(gens, size):
    """The c x c Jacobian minors of FPoly generators that are nonzero mod
    p, in jacobian_minors' key order: the minors of the generators'
    integer lifts in [0, p), expanded over Z and reduced."""
    p, nvars = gens[0].p, gens[0].nvars
    jac = [[MultiPoly(nvars, g.terms).derivative(i) for i in range(nvars)] for g in gens]
    one = MultiPoly.const(nvars, 1)
    out = []
    for rs in combinations(range(len(gens)), size):
        minors = linalg.maximal_minors([jac[r] for r in rs], one)
        for cs in combinations(range(nvars), size):
            d = minors.get(sum(1 << c for c in cs))
            if d is not None:
                m = FPoly.from_int_poly(d, p)
                if not m.is_zero():
                    out.append(m)
    return out


# -- the Groebner kernel on exponent tuples ----------------------------------


def divides(d, e):
    """Whether the monomial d divides e, exponent by exponent."""
    return all(a <= b for a, b in zip(d, e))


def tuple_normal_form(f, basis, lead_data=None, divisor=None):
    """Full reduction of f by a list of monic polynomials, on exponent
    tuples: a lazy min-heap keyed (-deg, e_(n-1), ..., e_0), the reverse of
    grevlex_key's order, drives the working polynomial, and each monomial is
    reduced by the first lead that divides it.  lead_data is the leads'
    [(lead, terms)]; divisor, when given, is a first-divisor table kept
    across calls while lead_data grows by appending: a monomial's first
    dividing lead, or ~k when none of the first k leads divides it."""
    p = f.p
    work = dict(f.terms)
    if lead_data is None:
        lead_data = [(g.leading_term()[0], list(g.terms.items())) for g in basis]
    n_leads = len(lead_data)
    heap = [(-sum(e),) + e[::-1] for e in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        e = heapq.heappop(heap)[:0:-1]
        c = work.pop(e, None)
        if c is None:
            continue
        k = -1 if divisor is None else divisor.get(e, -1)
        if k < 0:
            k = next((i for i in range(~k, n_leads) if divides(lead_data[i][0], e)), ~n_leads)
            if divisor is not None:
                divisor[e] = k
        if k < 0:
            remainder[e] = c
            continue
        le, terms = lead_data[k]
        shift = tuple(a - b for a, b in zip(e, le))
        for ge, gc in terms:
            if ge == le:
                continue
            ke = tuple(a + b for a, b in zip(ge, shift))
            prev = work.get(ke)
            acc = ((0 if prev is None else prev) - c * gc) % p
            if prev is None and acc:
                heapq.heappush(heap, (-sum(ke),) + ke[::-1])
            if acc:
                work[ke] = acc
            elif prev is not None:
                del work[ke]
    r = FPoly(p, f.nvars)
    r.terms = remainder
    return r


def tuple_buchberger(gens, max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE,
                     stop_at_certificate=False):
    """groebner.buchberger on exponent tuples: the same input reduction,
    normal selection on grevlex_key(lcm), coprime and chain criteria,
    budgets, early stop and final tuple_autoreduce."""
    basis, leads, lead_data, divisor = [], [], [], {}

    def join(h):
        h = h.monic()
        basis.append(h)
        leads.append(h.leading_term()[0])
        lead_data.append((leads[-1], list(h.terms.items())))

    for g in gens:
        h = tuple_normal_form(g, basis, lead_data, divisor)
        if not h.is_zero():
            join(h)
    if not basis:
        raise ValueError("no nonzero generators")
    p, nvars = basis[0].p, basis[0].nvars
    if stop_at_certificate and certifies_empty(leads, nvars):
        return basis
    degree = max(sum(e) for e in leads)

    def lcm(a, b):
        return tuple(map(max, a, b))

    pending = {(j, i) for i in range(len(basis)) for j in range(i)}
    heap = [(grevlex_key(lcm(leads[j], leads[i])), j, i) for j, i in pending]
    heapq.heapify(heap)
    handled = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        pending.remove((i, j))
        m = lcm(leads[i], leads[j])
        if all(a + b == c for a, b, c in zip(leads[i], leads[j], m)):
            continue
        if any(k != i and k != j and divides(leads[k], m)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending for k in range(len(basis))):
            continue
        if handled >= max_pairs:
            raise BudgetExhausted(f"pair budget {max_pairs} exhausted", handled, len(basis),
                                  degree)
        handled += 1
        s = FPoly(p, nvars)
        for g, le, sign in ((basis[i], leads[i], 1), (basis[j], leads[j], -1)):
            shift = tuple(a - b for a, b in zip(m, le))
            s = s + FPoly(p, nvars, {tuple(a + b for a, b in zip(e, shift)): sign * c
                                     for e, c in g.terms.items()})
        h = tuple_normal_form(s, basis, lead_data, divisor)
        if h.is_zero():
            continue
        le = h.monic().leading_term()[0]
        degree = max(degree, sum(le))
        if sum(le) > max_degree:
            raise BudgetExhausted(f"degree budget {max_degree} exhausted", handled,
                                  len(basis), degree)
        join(h)
        if stop_at_certificate and certifies_empty(leads, nvars):
            return basis
        for k in range(len(basis) - 1):
            pending.add((k, len(basis) - 1))
            heapq.heappush(heap, (grevlex_key(lcm(leads[k], le)), k, len(basis) - 1))
    return tuple_autoreduce(basis)


def tuple_autoreduce(basis):
    """groebner.autoreduce on exponent tuples: drop each element whose lead
    another lead divides (the later of two equal leads), reduce each kept
    element by the others in one pass, sort by lead."""
    basis = [g.monic() for g in basis if not g.is_zero()]
    leads = [g.leading_term()[0] for g in basis]
    keep = [g for i, g in enumerate(basis)
            if not any(j != i and divides(leads[j], leads[i]) and (leads[j] != leads[i] or j < i)
                       for j in range(len(basis)))]
    data = [(g.leading_term()[0], list(g.terms.items())) for g in keep]
    for i, g in enumerate(keep):
        keep[i] = tuple_normal_form(g, None, data[:i] + data[i + 1:])
        data[i] = (data[i][0], list(keep[i].terms.items()))
    keep.sort(key=lambda g: grevlex_key(g.leading_term()[0]))
    return keep


# -- leading minors, positivity and invariants, block by block ---------------


def per_block_leading_minors(m):
    """herm_det of every leading principal block of a Hermitian matrix
    over Z[w], zero or not."""
    return [hermitian.herm_det([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def per_block_positive_definite(m):
    """group.hermitian_positive_definite by linalg.det of each leading
    block of a cyclotomic matrix, each minor read as a positive rational:
    ValueError at an irrational minor met before a non-positive one."""
    for k in range(1, len(m) + 1):
        if linalg.det([row[:k] for row in m[:k]]).to_fraction() <= 0:
            return False
    return True


def char_poly(m):
    """Monic characteristic polynomial det(T*I - m), coefficients of T^0 up
    to T^n, exact, via the Faddeev-LeVerrier recurrence (divisions only by
    integers)."""
    n = len(m)
    mk = [list(row) for row in m]
    cs = []
    for k in range(1, n + 1):
        ck = linalg.trace(mk) * Fraction(-1, k)
        cs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] = mk[i][i] + ck
            mk = [list(row) for row in linalg.mat_mul(m, mk)]
    # det(T I - m) = T^n + cs[0] T^(n-1) + ... + cs[n-1]
    return cs[::-1] + [1]


def descartes_positive_roots(coeffs):
    """Number of positive roots (with multiplicity) of a polynomial all of
    whose roots are real: the count equals the sign variations."""
    signs = [1 if c > 0 else -1 for c in coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cyclotomic_polarization_invariants(m):
    """hermitian.polarization_invariants of a positive definite m, from the
    characteristic polynomial of its conductor-11 embedding a + b lambda."""
    n = len(m)
    lam = lambda_embed()
    cp = char_poly([[CycloNum.from_rational(e.a, 11) + e.b * lam for e in row] for row in m])
    return [(-1) ** (n - j) * c.to_int() for j, c in enumerate(cp[:n])] + [1]


def term_by_term_evaluate(f, point):
    """f at the point, each term its coefficient times the coordinates
    multiplied in one factor at a time."""
    total = 0
    for e, c in f.terms.items():
        v = c
        for x, k in zip(point, e):
            for _ in range(k):
                v = v * x
        total = total + v
    return total
