"""Multivariate ideals over prime fields: Buchberger, emptiness, smoothness.

Polynomials are FPoly: poly.MultiPoly over F_p, whose operations reduce
their coefficients into 1..p-1.  The monomial order is poly.grevlex_key.
The Groebner machinery supports two certified checks used as
finite-field stand-ins for characteristic-0 computations:

* projective emptiness (projective_empty, which also returns the basis):
  a nonzero constant or a pure power of every variable among the leading
  monomials (certifies_empty), so the affine cone is supported at the
  origin only;
* smoothness: the singular-locus ideal (generators plus all c x c minors
  of the Jacobian) is projectively empty.  jacobian_minors expands each
  row set of the Jacobian once, by linalg.maximal_minors.

Inside a Buchberger run a monomial is two ints (poly.grevlex_packing,
after Monagan & Pearce, J. Symbolic Comput. 46, 2011): P for the order and
products, E for divisibility, packed through a memo that lives as long as
the run.  The field width comes from D = max(the degree budget, the
input's degree), which bounds every lead, as the budget is checked before
an element joins the basis; in a degree-compatible order no monomial of an
S-polynomial or a reduction exceeds an lcm of two leads, of degree at most
2D.  The run also keeps one first-divisor table for normal_form, so the
monomials that recur in every Jacobian minor are matched to a lead once.

One builder, pluecker_relations(k, n), gives the quadratic Pluecker
relations of both Grassmannians in play: Gr(2, 5), whose linear and
quadric sections are the GM threefold and fivefold, and Gr(3, 6), the
decomposable trivectors, pulled back to the Lagrangian.  The GM
threefold's ideal is built by substituting its linear section into the
relations of Gr(2, 5), not written out by hand.  The gate ideals and
their Jacobian minors are integer polynomials, built once; each gate
reduces them at its primes (the pullback's through distinct_mod).

The certificate need not wait for the reduced basis.  Every polynomial
Buchberger keeps lies in the ideal, so once the leading monomials found so
far hold a nonzero constant or a pure power of every variable, the
leading ideal holds them too, R/I has finite length and the affine cone is the origin alone (the
finiteness theorem: Cox, Little & O'Shea, Ideals, Varieties, and
Algorithms, ch. 5 section 3).  buchberger(stop_at_certificate=True) tests
this after the input reduction and after each new basis element, and
returns the partial basis as soon as it holds; the verify gates stop
there.  An ideal that is not empty never meets the test, so its run ends
at the reduced basis either way.  The command line and the demo keep the
reduced basis, whose size they report.

Emptiness over a single prime is evidence, not proof, for the
characteristic-0 statement; the verification driver demands agreement at
two primes and labels results accordingly.  Budgets (pair count, degree)
raise BudgetExhausted, which callers must report distinctly from a
mathematical verdict.  Their defaults, MAX_PAIRS and MAX_DEGREE, are also
the defaults of verify and of the command line.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations

from . import linalg
from .epw import build_A, merge_indices
from .fixtures import PAIR_VARS, QUADRIC_TEXT, sextic_poly
from .poly import MultiPoly, grevlex_packing, linear_forms
from .textform import parse_polynomial

# the default budgets of every Groebner computation
MAX_PAIRS = 500000
MAX_DEGREE = 48


class BudgetExhausted(RuntimeError):
    """A pair or degree budget ran out.  ``pairs`` is the number of pairs
    handled, ``basis`` the basis size and ``degree`` the highest leading
    degree reached when it did."""

    def __init__(self, message, pairs, basis, degree):
        super().__init__(message)
        self.pairs, self.basis, self.degree = pairs, basis, degree

    def progress(self):
        return {"pairs": self.pairs, "basis": self.basis, "degree": self.degree}


class FPoly(MultiPoly):
    """MultiPoly over F_p: coefficients in 1..p-1.  The ring operations
    are MultiPoly's; the result hook reduces their coefficients mod p, and
    the inverse hook inverts them mod p, so divmod and monic divide in F_p."""

    __slots__ = ("p",)
    _ints_in_z = False

    def __init__(self, p, nvars, terms=None):
        self.p = p
        super().__init__(nvars, terms)
        self.terms = {e: v for e, c in self.terms.items() if (v := c % p)}

    def _with_terms(self, terms):
        p = self.p
        r = FPoly.__new__(FPoly)
        r.p, r.nvars = p, self.nvars
        r.terms = {e: v for e, c in terms.items() if (v := c % p)}
        return r

    @staticmethod
    def from_int_poly(poly, p):
        """Reduce a MultiPoly with integer coefficients modulo p."""
        return FPoly(p, poly.nvars)._with_terms(poly.terms)

    def _inverse(self, c):
        return pow(c, -1, self.p)


def _packed_lead(g, packing):
    """normal_form's entry for a monic g: lead P, lead E, other terms (P, c)."""
    terms = [(packing[0](e), c) for e, c in g.terms.items()]
    lead = max(terms)[0]
    return lead, packing[2](lead), [t for t in terms if t[0] != lead]


def normal_form(f: FPoly, basis, packing=None, divisor=None):
    """Full reduction of f by a list of monic polynomials, on packed
    monomials: the working polynomial maps P to coefficient and is driven
    by a lazy heap of negated Ps, largest monomial first; a step adds the
    quotient's P to each tail P of the first lead that divides the
    monomial, tested on E.  The remainder is unpacked in pop order, largest
    term first.  Within a run, packing is the run's and basis its
    _packed_lead entries; otherwise a packing is made for the degrees of f
    and basis, which bound every monomial (a step replaces a monomial by
    smaller ones, of no larger degree).

    divisor, when given, is a first-divisor table for basis kept across
    calls: it maps a P to the index of its first dividing lead, or to ~k (a
    negative int) when none of the first k leads divides it.  It stays
    valid only while basis grows by appending: a first hit is then still
    the first hit, and a miss resumes its scan at lead k."""
    if packing is None:
        packing = grevlex_packing(f.nvars, max(g.total_degree() for g in (f, *basis)))
        basis = [_packed_lead(g, packing) for g in basis]
    pack, unpack, word, _, guard = packing
    divisor = {} if divisor is None else divisor
    p = f.p
    work = {pack(e): c for e, c in f.terms.items()}
    heap = [-m for m in work]
    heapify(heap)
    n_leads = len(basis)
    remainder = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        k = divisor.get(m, -1)
        if k < 0:
            e = word(m) | guard
            k = divisor[m] = next((i for i in range(~k, n_leads)
                                   if (e - basis[i][1]) & guard == guard), ~n_leads)
        if k < 0:
            remainder[unpack(m)] = c
            continue
        lead, _, tail = basis[k]
        shift = m - lead
        for q, gc in tail:
            q += shift
            prev = work.get(q)
            if prev is None:
                work[q] = -c * gc % p
                heappush(heap, -q)
            elif acc := (prev - c * gc) % p:
                work[q] = acc
            else:
                del work[q]
    return f._with_terms(remainder)


def _pure_power_variable(e):
    """The variable of which the monomial e is a pure power, or None when
    e involves no variable or more than one."""
    support = [i for i, k in enumerate(e) if k]
    return support[0] if len(support) == 1 else None


def certifies_empty(leads, nvars):
    """The emptiness certificate: a nonzero constant, or a pure power of
    every variable, among the leading monomials.  For leads of elements of
    a homogeneous ideal it proves the projective scheme empty; a constant
    lead makes the ideal the unit ideal, whose zero set is empty."""
    return (any(not any(e) for e in leads)
            or {_pure_power_variable(e) for e in leads} >= set(range(nvars)))


def buchberger(gens, max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE, stop_at_certificate=False):
    """Reduced Groebner basis by the classic algorithm with the coprime
    and chain criteria and normal (minimal-lcm) selection; deterministic
    for a fixed input order.  Budgets raise BudgetExhausted.

    The input is reduced first: each generator, in order, is replaced by
    its normal form against the generators already kept; a zero is
    dropped, the rest are made monic and kept.  Pairs are formed among the
    kept generators only.  The ideal, hence the reduced basis, is the same.
    Every normal_form call of the run, input reduction and S-polynomials
    alike, shares one packing and one first-divisor table (see
    normal_form).  A pair waits on the P of its lcm, and the coprime and
    chain criteria test the lcm's E.

    With stop_at_certificate, the run ends as soon as the leads meet
    certifies_empty: after the input reduction, or when a new element's
    lead is a constant or a pure power.  The basis returned then is the
    partial, unreduced one; its elements lie in the ideal, so its leads
    prove the leading ideal finite-colength.  Otherwise, and for every
    ideal that never meets the certificate, the result is the reduced
    basis."""
    if not any(gens):
        raise ValueError("no nonzero generators")
    p, nvars = gens[0].p, gens[0].nvars
    packing = grevlex_packing(nvars, max(max_degree, *(g.total_degree() for g in gens)))
    _, unpack, word, packed_lcm, guard = packing
    basis, leads, lead_data = [], [], []
    # normal_form's first-divisor table, valid for the run: lead_data
    # only grows by appending
    divisor = {}

    def join(h):
        # normal_form gives the lead first; made monic, h keeps that order
        c = next(iter(h.terms.values()))
        h = h if c == 1 else h * pow(c, -1, p)
        basis.append(h)
        lead_data.append(_packed_lead(h, packing))
        leads.append(unpack(lead_data[-1][0]))

    for g in gens:
        h = normal_form(g, lead_data, packing, divisor)
        if not h.is_zero():
            join(h)
    if stop_at_certificate and certifies_empty(leads, nvars):
        return basis
    degree = max(sum(e) for e in leads)
    # the pairs not yet handled, queued on the P of their lcm
    pending = {(j, i) for i in range(len(basis)) for j in range(i)}
    heap = [(packed_lcm(lead_data[j][1], lead_data[i][1]), j, i) for j, i in pending]
    heapify(heap)
    handled = 0
    while heap:
        lcm, i, j = heappop(heap)
        pending.remove((i, j))
        (lead_i, e_i, tail_i), (lead_j, e_j, tail_j) = lead_data[i], lead_data[j]
        e = word(lcm)
        # coprime criterion
        if e == e_i + e_j:
            continue
        # chain criterion
        e |= guard
        if any((e - e_k) & guard == guard and k != i and k != j
               and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
               for k, (_, e_k, _) in enumerate(lead_data)):
            continue
        if handled >= max_pairs:
            raise BudgetExhausted(f"pair budget {max_pairs} exhausted", handled, len(basis),
                                  degree)
        handled += 1
        # the S-polynomial of monic elements: the shifted leads cancel
        shift_i, shift_j = lcm - lead_i, lcm - lead_j
        s_terms = {q + shift_i: c for q, c in tail_i}
        for q, c in tail_j:
            q += shift_j
            if acc := (s_terms.get(q, 0) - c) % p:
                s_terms[q] = acc
            else:
                del s_terms[q]
        s = FPoly(p, nvars)
        s.terms = {unpack(q): c for q, c in s_terms.items()}
        h = normal_form(s, lead_data, packing, divisor)
        if h.is_zero():
            continue
        le = next(iter(h.terms))
        degree = max(degree, sum(le))
        if sum(le) > max_degree:
            raise BudgetExhausted(f"degree budget {max_degree} exhausted", handled,
                                  len(basis), degree)
        join(h)
        if (stop_at_certificate and (not any(le) or _pure_power_variable(le) is not None)
                and certifies_empty(leads, nvars)):
            return basis
        n = len(basis) - 1
        for k in range(n):
            pending.add((k, n))
            heappush(heap, (packed_lcm(lead_data[k][1], lead_data[n][1]), k, n))
    return autoreduce(basis)


def autoreduce(basis):
    """Interreduce a basis to the reduced Groebner basis: minimal leading
    monomials, every element fully reduced by the others, monic, sorted.
    One pass suffices: no kept lead divides another, so reduction keeps
    every lead, and no term of an element, once reduced, is divisible by
    any lead of the result.  Its normal_form calls share one packing; each
    leaves a different element out, so none keeps a first-divisor table."""
    basis = [g.monic() for g in basis if not g.is_zero()]
    packing = grevlex_packing(basis[0].nvars, max(g.total_degree() for g in basis))
    guard = packing[4]
    data = [_packed_lead(g, packing) for g in basis]
    # drop elements whose lead is divisible by another lead
    kept = [i for i, (li, ei, _) in enumerate(data)
            if not any(j != i and ((ei | guard) - ej) & guard == guard and (lj != li or j < i)
                       for j, (lj, ej, _) in enumerate(data))]
    keep, data = [basis[i] for i in kept], [data[i] for i in kept]
    for i, g in enumerate(keep):
        keep[i] = normal_form(g, data[:i] + data[i + 1:], packing)
        data[i] = _packed_lead(keep[i], packing)
    return [g for _, g in sorted(zip((d[0] for d in data), keep))]


def projective_empty(gens, max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE,
                     stop_at_certificate=False):
    """(empty?, basis) for a homogeneous ideal: the projective scheme is
    empty iff the leading ideal of the reduced basis contains a nonzero
    constant or a pure power of every variable (certifies_empty).  With
    stop_at_certificate an empty verdict comes from buchberger's first
    certificate, and the basis returned is that partial one, not the
    reduced basis; a verdict of "not empty" always comes with the reduced
    basis."""
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("projective emptiness needs homogeneous generators")
    basis = buchberger(gens, max_pairs=max_pairs, max_degree=max_degree,
                       stop_at_certificate=stop_at_certificate)
    return certifies_empty([g.leading_term()[0] for g in basis], gens[0].nvars), basis


def jacobian_minors(gens, size):
    """All nonzero c x c minors of the Jacobian matrix of integer
    polynomials, with the row sets and then the column sets in
    lexicographic order.  Returns (minors, False).

    A gate expands the minors once over Z and reduces them at each prime:
    reduction commutes with derivatives and determinants.  Each row set is
    expanded once, by linalg.maximal_minors, for all its column sets."""
    nvars = gens[0].nvars
    jac = [[g.derivative(i) for i in range(nvars)] for g in gens]
    one = MultiPoly.const(nvars, 1)
    out = []
    for rs in combinations(range(len(gens)), size):
        minors = linalg.maximal_minors([jac[r] for r in rs], one)
        for cs in combinations(range(nvars), size):
            d = minors.get(sum(1 << c for c in cs))
            if d:
                out.append(d)
    # a pair, not a bare list, because perfbench's minors_used observer
    # (OBSERVERS["groebner.jacobian_minors"]) reads len(result[0])
    return out, False


def smoothness_check(gens, codim, p, max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE, minors=None,
                     stop_at_certificate=False):
    """Projective emptiness at the prime p of the singular locus of the
    integer polynomials gens: the generators plus all codim x codim minors
    of their Jacobian, reduced mod p.  minors is a jacobian_minors(gens,
    codim) result, so a caller that checks several primes expands it once;
    by default it is expanded here.  stop_at_certificate goes to
    projective_empty.

    Returns (smooth: bool, info dict).  info["basis_size"] is the size of
    the reduced basis; a smooth verdict reached at the first certificate
    has no reduced basis, and its info has no "basis_size"."""
    if codim < 1:
        raise ValueError("codimension must be at least 1")
    base = buchberger([FPoly.from_int_poly(g, p) for g in gens],
                      max_pairs=max_pairs, max_degree=max_degree)
    minors, _ = minors or jacobian_minors(gens, codim)
    reduced = [m for m in (FPoly.from_int_poly(d, p) for d in minors) if m]
    empty, basis = projective_empty(base + reduced, max_pairs=max_pairs, max_degree=max_degree,
                                    stop_at_certificate=stop_at_certificate)
    info = {"minors_used": len(reduced)}
    if not (empty and stop_at_certificate):
        info["basis_size"] = len(basis)
    return empty, info


# ---------------------------------------------------------------------------
# the specific ideals: decomposability pullback and the GM sections
# ---------------------------------------------------------------------------


def pluecker_relations(k, n):
    """The quadratic Pluecker relations of the cone over Gr(k, n), with
    integer coefficients, in the C(n, k) coordinates x_S, S a k-subset of
    0..n-1 in lexicographic order (Fulton, Young Tableaux, 1997, section
    9.1): for each (k-1)-subset I and (k+1)-subset J = (j_0 < ... < j_k),
    the sum over t of (-1)^t x_(I u j_t) x_(J - j_t), where x_(I u j)
    carries the sign of sorting I followed by j.  Zero relations and
    relations equal to an earlier one up to a scalar are dropped."""
    index = {s: i for i, s in enumerate(combinations(range(n), k))}
    relations = []
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
            relations.append(MultiPoly(len(index), terms))
    return _first_up_to_scalar(relations)


def _first_up_to_scalar(polys):
    """The nonzero polys, in order, each dropped when an earlier one equals
    it up to a scalar."""
    kept = {}
    for f in polys:
        if f:
            kept.setdefault(frozenset(f.monic().terms.items()), f)
    return list(kept.values())


def distinct_mod(polys, p):
    """The reductions mod p of integer polynomials, made monic, with the
    zeros and those equal to an earlier one up to a scalar dropped: two
    polynomials proportional mod p need not be proportional over Q."""
    return [g.monic() for g in _first_up_to_scalar(FPoly.from_int_poly(f, p) for f in polys)]


def decomposable_pullback_ideal():
    """Pull the decomposability relations back along the 10-parameter
    family of Lagrangian vectors: integer quadrics in 10 coordinates.  The
    projective emptiness of distinct_mod(these, p) certifies that the
    Lagrangian contains no decomposable vector."""
    # linear forms: coordinate I of the family point = sum_r a_r * A[r][I]
    linear = linear_forms(list(zip(*build_A())))
    return [rel.substitute(linear) for rel in pluecker_relations(3, 6)]


def gm_threefold_ideal():
    """The degree-10 Fano threefold section: the five Grassmannian quadrics
    restricted to the linear section x03 = -x12, x04 = x23, plus one more
    quadric, in the eight coordinates left (variable order: x01, x02, x12,
    x13, x14, x23, x24, x34)."""
    names = ["x01", "x02", "x12", "x13", "x14", "x23", "x24", "x34"]

    def var(name, coeff=1):
        return MultiPoly.var(names.index(name), 8, coeff)

    section = {"x03": var("x12", -1), "x04": var("x23")}
    pairs = [f"x{i}{j}" for i, j in combinations(range(5), 2)]
    images = [section[pair] if pair in section else var(pair) for pair in pairs]
    out = [rel.substitute(images) for rel in pluecker_relations(2, 5)]
    out.append(var("x01") * var("x02") - var("x13") * var("x14") - var("x24") * var("x34"))
    return out


def gm_fivefold_ideal():
    """The fivefold section: the five Grassmannian quadrics on pairs from
    a 5-space together with the invariant quadric, in the ten pair
    coordinates (x12, ..., x45)."""
    return pluecker_relations(2, 5) + [parse_polynomial(QUADRIC_TEXT, PAIR_VARS)]


def sextic_singular_locus_ideal():
    """Gradient ideal of the invariant sextic (six quintics in six
    variables); its projective zero locus is the singular surface."""
    f = sextic_poly()
    return [f.derivative(i) for i in range(6)]
