"""Multivariate ideals over prime fields: Buchberger, emptiness, smoothness.

Polynomials are FPoly: poly.MultiPoly over F_p, whose operations reduce
their coefficients into 1..p-1.  The monomial order is poly.grevlex_key,
exact for every exponent; normal_form's heap key orders in its reverse.
The Groebner machinery supports two certified checks used as
finite-field stand-ins for characteristic-0 computations:

* projective emptiness (projective_empty, which also returns the basis):
  a nonzero constant or a pure power of every variable among the leading
  monomials (certifies_empty), so the affine cone is supported at the
  origin only;
* smoothness: the singular-locus ideal (generators plus c x c minors of
  the Jacobian) is projectively empty.  Minor subsampling is sound for
  the empty verdict: a subset of the minors cuts out a larger scheme, so
  emptiness of the subsampled locus implies emptiness of the full one.
  The subsample is drawn with the fixed seed SAMPLE_SEED, so a sampled
  run is reproducible.  jacobian_minors expands each row set of the
  Jacobian once, by linalg.maximal_minors.

Each Buchberger run keeps one first-divisor table for normal_form, so the
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

import heapq
import random
from itertools import combinations, groupby
from operator import itemgetter

from . import linalg
from .epw import build_A, merge_indices
from .fixtures import PAIR_VARS, QUADRIC_TEXT, sextic_poly
from .poly import MultiPoly, grevlex_exponents, grevlex_key, linear_forms
from .textform import parse_polynomial

# the default budgets of every Groebner computation
MAX_PAIRS = 500000
MAX_DEGREE = 48
# the seed of every Jacobian minor subsample
SAMPLE_SEED = 0


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


def _divides(d, e):
    for a, b in zip(d, e):
        if a > b:
            return False
    return True


def normal_form(f: FPoly, basis, lead_data=None, divisor=None):
    """Full reduction of f by a list of monic polynomials; the working
    polynomial is driven by a lazy min-heap keyed (-deg, e_(n-1), ..., e_0),
    whose order is the reverse of poly.grevlex_key's for any exponents, so
    the largest monomial comes first; the key reversed past its first entry
    is the exponent tuple.  Each monomial is reduced by the first lead that
    divides it.

    divisor, when given, is a first-divisor table for lead_data kept across
    calls: it maps a monomial to the index of its first dividing lead, or
    to ~k (a negative int) when none of the first k leads divides it.  It
    stays valid only while lead_data grows by appending: a first hit is
    then still the first hit, and a miss resumes its scan at lead k."""
    p = f.p
    work = dict(f.terms)
    if not work:
        return f
    if lead_data is None:
        lead_data = [(g.leading_term()[0], list(g.terms.items())) for g in basis]
    n_leads = len(lead_data)
    heap = [(-sum(e),) + e[::-1] for e in work]
    heapq.heapify(heap)
    remainder = {}
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        e = pop(heap)[:0:-1]
        c = work.get(e)
        if c is None:
            continue
        del work[e]
        k = -1 if divisor is None else divisor.get(e, -1)
        if k < 0:
            for i in range(~k, n_leads):
                for a, b in zip(lead_data[i][0], e):
                    if a > b:
                        break
                else:
                    k = i
                    break
            else:
                k = ~n_leads
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
            if prev is None:
                acc = (-c * gc) % p
                if acc:
                    work[ke] = acc
                    push(heap, (-sum(ke),) + ke[::-1])
            else:
                acc = (prev - c * gc) % p
                if acc:
                    work[ke] = acc
                else:
                    del work[ke]
    r = FPoly(p, f.nvars)
    r.terms = remainder
    return r


def _lcm_exp(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


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
    alike, shares one first-divisor table (see normal_form); autoreduce
    leaves a different element out of each call, so it scans without one.

    With stop_at_certificate, the run ends as soon as the leads meet
    certifies_empty: after the input reduction, or when a new element's
    lead is a constant or a pure power.  The basis returned then is the
    partial, unreduced one; its elements lie in the ideal, so its leads
    prove the leading ideal finite-colength.  Otherwise, and for every
    ideal that never meets the certificate, the result is the reduced
    basis."""
    basis, leads, lead_data = [], [], []
    # normal_form's first-divisor table, valid for the run: lead_data
    # only grows by appending
    divisor = {}
    for g in gens:
        h = normal_form(g, basis, lead_data, divisor)
        if not h.is_zero():
            h = h.monic()
            basis.append(h)
            leads.append(h.leading_term()[0])
            lead_data.append((leads[-1], list(h.terms.items())))
    if not basis:
        raise ValueError("no nonzero generators")
    p, nvars = basis[0].p, basis[0].nvars
    if stop_at_certificate and certifies_empty(leads, nvars):
        return basis
    degree = max(sum(e) for e in leads)
    # the pairs not yet handled, queued on grevlex_key(lcm), the key being
    # the pair's one record of its lcm
    pending = {(j, i) for i in range(len(basis)) for j in range(i)}
    heap = [(grevlex_key(_lcm_exp(leads[j], leads[i])), j, i) for j, i in pending]
    heapq.heapify(heap)
    handled = 0
    while heap:
        key, i, j = heapq.heappop(heap)
        pending.remove((i, j))
        lcm = grevlex_exponents(key)
        # coprime criterion
        if all(a + b == c for a, b, c in zip(leads[i], leads[j], lcm)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if _divides(leads[k], lcm):
                ik = (k, i) if k < i else (i, k)
                jk = (k, j) if k < j else (j, k)
                if ik not in pending and jk not in pending:
                    skip = True
                    break
        if skip:
            continue
        if handled >= max_pairs:
            raise BudgetExhausted(
                f"pair budget {max_pairs} exhausted", handled, len(basis), degree
            )
        handled += 1
        gi, gj = basis[i], basis[j]
        shift_i = tuple(a - b for a, b in zip(lcm, leads[i]))
        shift_j = tuple(a - b for a, b in zip(lcm, leads[j]))
        s_terms = {}
        for e, c in gi.terms.items():
            ke = tuple(a + b for a, b in zip(e, shift_i))
            s_terms[ke] = (s_terms.get(ke, 0) + c) % p
        for e, c in gj.terms.items():
            ke = tuple(a + b for a, b in zip(e, shift_j))
            acc = (s_terms.get(ke, 0) - c) % p
            if acc:
                s_terms[ke] = acc
            elif ke in s_terms:
                del s_terms[ke]
        s = FPoly(p, nvars)
        s.terms = {e: c for e, c in s_terms.items() if c}
        h = normal_form(s, basis, lead_data, divisor)
        if h.is_zero():
            continue
        h = h.monic()
        le = h.leading_term()[0]
        degree = max(degree, sum(le))
        if sum(le) > max_degree:
            raise BudgetExhausted(
                f"degree budget {max_degree} exhausted", handled, len(basis), degree
            )
        basis.append(h)
        leads.append(le)
        lead_data.append((le, list(h.terms.items())))
        if (stop_at_certificate and (not any(le) or _pure_power_variable(le) is not None)
                and certifies_empty(leads, nvars)):
            return basis
        new_idx = len(basis) - 1
        for k in range(new_idx):
            pending.add((k, new_idx))
            heapq.heappush(heap, (grevlex_key(_lcm_exp(leads[k], le)), k, new_idx))
    return autoreduce(basis)


def autoreduce(basis):
    """Interreduce a basis to the reduced Groebner basis: minimal leading
    monomials, every element fully reduced by the others, monic, sorted.
    One pass suffices: no kept lead divides another, so reduction keeps
    every lead, and no term of an element, once reduced, is divisible by
    any lead of the result."""
    # drop elements whose lead is divisible by another lead
    basis = [g.monic() for g in basis if not g.is_zero()]
    keep, data = [], []  # data: normal_form's (lead, terms), in step with keep
    leads = [g.leading_term()[0] for g in basis]
    for i, g in enumerate(basis):
        li = leads[i]
        if any(
            j != i and _divides(leads[j], li) and (leads[j] != li or j < i)
            for j in range(len(basis))
        ):
            continue
        keep.append(g)
        data.append((li, list(g.terms.items())))
    for i, g in enumerate(keep):
        keep[i] = normal_form(g, None, data[:i] + data[i + 1:])
        data[i] = (data[i][0], list(keep[i].terms.items()))
    keep.sort(key=lambda g: grevlex_key(g.leading_term()[0]))
    return keep


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


def jacobian_minors(gens, size, sample=None):
    """c x c minors of the Jacobian matrix of integer polynomials, nonzero
    ones only, with the row sets and then the column sets in lexicographic
    order; optionally a deterministic random subsample of those keys
    (sound for the empty verdict, since fewer equations cut out a larger
    scheme).  Returns (minors, sampled).

    A gate expands the minors once over Z and reduces them at each prime:
    reduction commutes with derivatives and determinants.  Each row set is
    expanded once, by linalg.maximal_minors, for all its column sets."""
    nvars = gens[0].nvars
    jac = [[g.derivative(i) for i in range(nvars)] for g in gens]
    one = MultiPoly.const(nvars, 1)
    all_keys = [
        (rs, cs)
        for rs in combinations(range(len(gens)), size)
        for cs in combinations(range(nvars), size)
    ]
    sampled = False
    if sample is not None and sample < len(all_keys):
        rng = random.Random(SAMPLE_SEED)
        all_keys = rng.sample(all_keys, sample)
        sampled = True
    # one expansion per run of keys on the same row set, over the columns
    # those keys use: all of them on the full key list, where each row set
    # is one run, and mostly a single column set in a sample
    out = []
    for rs, run in groupby(all_keys, key=itemgetter(0)):
        col_sets = [cs for _, cs in run]
        cols = sorted(set().union(*col_sets))
        bit = {c: 1 << i for i, c in enumerate(cols)}
        minors = linalg.maximal_minors([[jac[r][c] for c in cols] for r in rs], one)
        for cs in col_sets:
            d = minors.get(sum(bit[c] for c in cs))
            if d:
                out.append(d)
    return out, sampled


def smoothness_check(gens, codim, p, max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE, minors=None,
                     stop_at_certificate=False):
    """Projective emptiness at the prime p of the singular locus of the
    integer polynomials gens: the generators plus the codim x codim minors
    of their Jacobian, reduced mod p.  minors is a jacobian_minors(gens,
    codim, sample) result, so a caller that checks several primes expands
    it once; by default it is the full set, and a sampled set that leaves
    the locus nonempty falls back to it.  stop_at_certificate goes to
    projective_empty.

    Returns (smooth: bool, info dict).  info["basis_size"] is the size of
    the reduced basis; a smooth verdict reached at the first certificate
    has no reduced basis, and its info has no "basis_size"."""
    if codim < 1:
        raise ValueError("codimension must be at least 1")
    base = buchberger([FPoly.from_int_poly(g, p) for g in gens],
                      max_pairs=max_pairs, max_degree=max_degree)
    minors, sampled = minors or jacobian_minors(gens, codim)
    while True:
        reduced = [m for m in (FPoly.from_int_poly(d, p) for d in minors) if m]
        empty, basis = projective_empty(base + reduced, max_pairs=max_pairs,
                                        max_degree=max_degree,
                                        stop_at_certificate=stop_at_certificate)
        if empty or not sampled:
            break
        minors, sampled = jacobian_minors(gens, codim)
    info = {"sampled_minors": sampled, "minors_used": len(reduced)}
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
