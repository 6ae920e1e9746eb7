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
products, E for divisibility.  An element is its packed entry only (lead
P, lead E, the other terms as (P, c), monic): the private kernel _reduce
takes an S-polynomial as a {P: c} dict, its remainder joins the basis as
it is, and FPolys are built once, at the exit.  The field width comes
from D = max(the degree budget, the input's degree), which bounds every
lead, as the budget is checked before an element joins the basis; in a
degree-compatible order no monomial of an S-polynomial or a reduction
exceeds an lcm of two leads, of degree at most 2D.  A smoothness gate
keeps one packing: jacobian_minors expands the minors over Z on the Ps of
a packing wide enough for the gate's runs, and each prime's run reads
their residues under it.

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
Algorithms, ch. 5 section 3).  A certificate run is a run given a trace
list: buchberger tests this after the input reduction and after each new
basis element, and returns the partial basis as soon as it holds; the
verify gates run so.  An ideal that is not empty never meets the test, so
its run ends at the reduced basis either way.  An empty trace records the
run; a gate's second prime replays it (a nonempty trace): only the inputs
it kept and the pairs that gave an element, falling back to a recorded
full run at any deviation.  Each element is still computed mod the second
prime and lies in the ideal, so that prime's verdict is still its own
certificate.  With no trace, a run goes on to the reduced basis, whose
size the command line and the demo report.

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
from math import gcd
from operator import add

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


class _PackedZ(MultiPoly):
    """MultiPoly over Z keyed by the Ps of one grevlex_packing, whose
    monomial product is an integer add: for +, -, * and truthiness only."""

    __slots__ = ()
    _monomial_product = staticmethod(add)


def _entry(terms, p, word):
    """A nonzero {P: c} dict made monic, as (lead P, lead E, [(P, c)] tail)."""
    lead = max(terms)
    inv = pow(terms[lead], -1, p)
    return lead, word(lead), [(m, c * inv % p) for m, c in terms.items() if m != lead]


def _reduce(work, basis, packing, p, divisor):
    """The remainder, largest term first, of the full reduction of work
    ({P: c}, consumed) by the monic packed entries basis.  A lazy heap of
    negated Ps drives work, largest monomial first; a step adds the
    quotient's P to each tail P of the first lead that divides the
    monomial, tested on E.  divisor is a first-divisor table for basis kept
    across calls: it maps a P to the index of its first dividing lead, or
    to ~k when none of the first k leads divides it.  It stays valid while
    basis grows by appending: a first hit stays first, and a miss resumes
    its scan at lead k."""
    word, guard = packing[2], packing[4]
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
            remainder[m] = c
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
    return remainder


def _reduce_pair(i, j, entries, packing, p, divisor):
    """_reduce of the S-polynomial of the monic entries i and j, whose
    leads, shifted to their lcm, cancel."""
    (lead_i, e_i, tail_i), (lead_j, e_j, tail_j) = entries[i], entries[j]
    lcm = packing[3](e_i, e_j)
    shift_i, shift_j = lcm - lead_i, lcm - lead_j
    s = {q + shift_i: c for q, c in tail_i}
    for q, c in tail_j:
        q += shift_j
        if acc := (s.get(q, 0) - c) % p:
            s[q] = acc
        else:
            del s[q]
    return _reduce(s, entries, packing, p, divisor)


def _replay(inputs, trace, packing, p, nvars, max_degree):
    """The entries of the run that trace records, made at p from its kept
    inputs and then its pairs alone, with no heap and no criteria, when
    their leads certify; None at a deviation: another input count, an input
    or pair that reduces to zero, a pair of entries not yet made, a lead
    over the degree budget, or no certificate at the end of the trace."""
    count, kept, made = trace
    if count != len(inputs):
        return None
    unpack, word = packing[1], packing[2]
    entries, divisor = [], {}
    for k in kept:
        r = _reduce({m: v for m, c in inputs[k].items() if (v := c % p)}, entries, packing, p,
                    divisor)
        if not r:
            return None
        entries.append(_entry(r, p, word))
    for i, j in made:
        r = j < len(entries) and _reduce_pair(i, j, entries, packing, p, divisor)
        if not r or sum(unpack(next(iter(r)))) > max_degree:
            return None
        entries.append(_entry(r, p, word))
    return entries if certifies_empty([unpack(e[0]) for e in entries], nvars) else None


def _packed(g, pack):
    return {pack(e): c for e, c in g.terms.items()}


def _fpolys(entries, unpack, p, nvars):
    """The monic FPolys of packed entries, each lead first."""
    return [FPoly(p, nvars)._with_terms({unpack(lead): 1, **{unpack(m): c for m, c in tail}})
            for lead, _, tail in entries]


def normal_form(f: FPoly, basis):
    """Full reduction of f by a list of monic polynomials: _reduce on a
    packing for the degrees of f and basis, which bound every monomial (a
    step replaces a monomial by smaller ones), unpacked largest term first."""
    packing = grevlex_packing(f.nvars, max(g.total_degree() for g in (f, *basis)))
    pack, unpack, word = packing[:3]
    entries = [_entry(_packed(g, pack), f.p, word) for g in basis]
    r = _reduce(_packed(f, pack), entries, packing, f.p, {})
    return f._with_terms({unpack(m): c for m, c in r.items()})


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


def buchberger(gens, max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE, packed=None, trace=None):
    """Reduced Groebner basis by the classic algorithm with the coprime
    and chain criteria and normal (minimal-lcm) selection; deterministic
    for a fixed input order.  Budgets raise BudgetExhausted.

    packed, when given, is (packing, dicts): more generators, after gens,
    as nonzero {P: c} dicts over Z under that packing (jacobian_minors'),
    each reduced mod p when the run reads it.  The run takes the packing
    as it is: it must hold the dicts, and one narrower than the run's own
    for gens raises ValueError.

    The input is reduced first: each generator, in order, is replaced by
    its normal form against the generators already kept; a zero is
    dropped, the rest are made monic and kept.  Pairs are formed among the
    kept generators only.  The ideal, hence the reduced basis, is the same.
    Every _reduce call of the run shares one packing and one first-divisor
    table.  A pair waits as the int lcm << 2b | j << b | i, j < i, whose b
    bits hold every basis size the pair budget allows, so pairs pop in the
    order of (lcm's P, j, i); the coprime and chain criteria test the
    lcm's E, and a triangular bytearray flags the pairs already taken.

    Given a trace list, the run is a certificate run: it returns the
    partial, unreduced basis as soon as the leads meet certifies_empty,
    after the input reduction or at a new constant or pure-power lead; its
    elements lie in the ideal, so its leads prove the leading ideal
    finite-colength.  With no trace, and for an ideal that never meets the
    certificate, the result is the reduced basis.  An empty trace records
    the run (Traverso, ISSAC 1988; Arnold, J. Symbolic Comput. 35, 2003):
    the input count, the positions in gens + dicts of the kept inputs, and
    the pairs (i, j), i < j, whose remainder joined the basis.  A nonempty
    trace is replayed instead (_replay), in this p's arithmetic; at a
    deviation the run starts from scratch and records itself.  A replayed
    element lies in the ideal: a replay can miss the certificate, never
    fake it."""
    if not any(gens):
        raise ValueError("no nonzero generators")
    p, nvars = gens[0].p, gens[0].nvars
    packing = grevlex_packing(nvars, max(max_degree, *(g.total_degree() for g in gens)))
    given, extra = packed or (packing, [])
    # in nvars variables a wider packing has the larger guard
    if given[4] < packing[4]:
        raise ValueError("the packing is narrower than the run needs")
    pack, unpack, word, packed_lcm, guard = packing = given
    inputs = [_packed(g, pack) for g in gens] + extra
    if trace:
        entries = _replay(inputs, trace, packing, p, nvars, max_degree)
        if entries:
            return _fpolys(entries, unpack, p, nvars)
    entries, leads, kept, made = [], [], [], []
    divisor = {}  # valid for the run: entries only grows by appending
    for k, work in enumerate(inputs):
        r = _reduce({m: v for m, c in work.items() if (v := c % p)}, entries, packing, p, divisor)
        if r:
            kept.append(k)
            entries.append(_entry(r, p, word))
            leads.append(unpack(entries[-1][0]))
    if trace is not None:
        trace[:] = len(inputs), kept, made
        if certifies_empty(leads, nvars):
            return _fpolys(entries, unpack, p, nvars)
    degree = max(sum(e) for e in leads)
    b = (len(inputs) + max(max_pairs, 0)).bit_length()
    low = (1 << b) - 1
    # the pairs not yet taken, on the P of their lcm, and the taken flags:
    # pair (j, i), j < i, at i * (i - 1) / 2 + j
    heap = [packed_lcm(entries[j][1], entries[i][1]) << 2 * b | j << b | i
            for i in range(len(entries)) for j in range(i)]
    heapify(heap)
    taken = bytearray(len(heap))
    handled = 0
    while heap:
        pair = heappop(heap)
        lcm, i, j = pair >> 2 * b, pair >> b & low, pair & low
        row_j = j * (j - 1) >> 1
        taken[row_j + i] = 1
        e_i, e_j = entries[i][1], entries[j][1]
        e = word(lcm)
        # coprime criterion
        if e == e_i + e_j:
            continue
        # chain criterion
        e |= guard
        if any((e - e_k) & guard == guard and k != i and k != j
               and taken[(k * (k - 1) >> 1) + i if k > i else (i * (i - 1) >> 1) + k]
               and taken[(k * (k - 1) >> 1) + j if k > j else row_j + k]
               for k, (_, e_k, _) in enumerate(entries)):
            continue
        if handled >= max_pairs:
            raise BudgetExhausted(f"pair budget {max_pairs} exhausted", handled, len(entries),
                                  degree)
        handled += 1
        r = _reduce_pair(i, j, entries, packing, p, divisor)
        if not r:
            continue
        le = unpack(next(iter(r)))
        degree = max(degree, sum(le))
        if sum(le) > max_degree:
            raise BudgetExhausted(f"degree budget {max_degree} exhausted", handled,
                                  len(entries), degree)
        n = len(entries)
        entries.append(_entry(r, p, word))
        leads.append(le)
        made.append((i, j))
        if (trace is not None and (not any(le) or _pure_power_variable(le) is not None)
                and certifies_empty(leads, nvars)):
            return _fpolys(entries, unpack, p, nvars)
        taken.extend(bytes(n))
        for k in range(n):
            heappush(heap, packed_lcm(entries[k][1], entries[n][1]) << 2 * b | k << b | n)
    return autoreduce(_fpolys(entries, unpack, p, nvars))


def autoreduce(basis):
    """Interreduce a basis to the reduced Groebner basis: minimal leading
    monomials, every element fully reduced by the others, monic, sorted.
    One pass suffices: no kept lead divides another, so reduction keeps
    every lead, and no term of an element, once reduced, is divisible by
    any lead of the result.  Its _reduce calls share one packing; each
    leaves a different element out, so none keeps a first-divisor table."""
    basis = [g for g in basis if not g.is_zero()]
    p, nvars = basis[0].p, basis[0].nvars
    packing = grevlex_packing(nvars, max(g.total_degree() for g in basis))
    pack, unpack, word, _, guard = packing
    data = [_entry(_packed(g, pack), p, word) for g in basis]
    # drop elements whose lead is divisible by another lead
    data = [(li, ei, ti) for i, (li, ei, ti) in enumerate(data)
            if not any(j != i and ((ei | guard) - ej) & guard == guard and (lj != li or j < i)
                       for j, (lj, ej, _) in enumerate(data))]
    for i, (lead, _, tail) in enumerate(data):
        r = _reduce({lead: 1, **dict(tail)}, data[:i] + data[i + 1:], packing, p, {})
        data[i] = _entry(r, p, word)
    return _fpolys(sorted(data, key=lambda d: d[0]), unpack, p, nvars)


def _check_homogeneous(gens):
    if not all(g.is_homogeneous() for g in gens):
        raise ValueError("projective emptiness needs homogeneous generators")


def projective_empty(gens, max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE, trace=None):
    """(empty?, basis) for a homogeneous ideal: the projective scheme is
    empty iff the leading ideal of the reduced basis contains a nonzero
    constant or a pure power of every variable (certifies_empty).  Given
    a trace, buchberger's certificate run gives an empty verdict with its
    partial basis; "not empty" always comes with the reduced basis.  The
    certificate reads the leads buchberger puts first in each element."""
    _check_homogeneous(gens)
    basis = buchberger(gens, max_pairs=max_pairs, max_degree=max_degree, trace=trace)
    return certifies_empty([next(iter(g.terms)) for g in basis], gens[0].nvars), basis


def jacobian_minors(gens, size, max_degree=MAX_DEGREE):
    """All nonzero c x c minors of the Jacobian matrix of homogeneous
    integer polynomials (checked: their minors are then homogeneous), with
    the row sets and then the column sets in lexicographic order.  Returns
    (minors, packing, contents): the minors over Z keyed by the Ps of a
    packing for the degree budget max_degree, the generators' degree and
    the minors' (the c largest row degrees' sum), which every smoothness
    run under that budget can take; and the gcd of each minor's
    coefficients, which a prime divides iff the minor vanishes there.

    A gate expands the minors once over Z and reduces them at each prime:
    reduction commutes with derivatives and determinants.  Each row set is
    expanded once, by linalg.maximal_minors, for all its column sets; the
    entries are packed first, so each product of two terms adds two ints."""
    _check_homogeneous(gens)
    nvars = gens[0].nvars
    rows = sorted((max(g.total_degree() - 1, 0) for g in gens), reverse=True)
    packing = grevlex_packing(nvars, max(max_degree, rows[0] + 1, sum(rows[:size])))
    zero = _PackedZ(nvars)
    jac = [[zero._with_terms(_packed(g.derivative(i), packing[0])) for i in range(nvars)]
           for g in gens]
    out = []
    for rs in combinations(range(len(gens)), size):
        minors = linalg.maximal_minors([jac[r] for r in rs], zero._with_terms({0: 1}))
        for cs in combinations(range(nvars), size):
            d = minors.get(sum(1 << c for c in cs))
            if d:
                out.append(d)
    return out, packing, [gcd(*d.terms.values()) for d in out]


def smoothness_check(gens, codim, p, max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE, minors=None,
                     trace=None):
    """Projective emptiness at the prime p of the singular locus of the
    homogeneous integer polynomials gens (checked before any Buchberger
    run): the generators plus all codim x codim minors of their Jacobian,
    reduced mod p.  minors is a jacobian_minors(gens, codim, max_degree)
    result, so a caller that checks several primes expands, checks and
    packs it once; by default it is expanded here.  trace goes to the
    run, which then stops at the first certificate.

    The generators are first taken mod p to their reduced basis; the
    minors follow it into the run, packed, which takes the residues of
    those it reads: on a replay, only those the trace names.  The
    pre-reduction pays: without it the surface took 4,337 pairs, 2,757
    elements, 311.7 MB peak and 51.7-53.7 s for both primes, against
    287.8-288.0 MB and 45.4-51.4 s with it (two alternating in-process
    runs, 2 vCPU, shared host).

    Returns (smooth: bool, info dict).  info["basis_size"] is the size of
    the reduced basis; a smooth verdict reached at the first certificate
    has no reduced basis, and its info has no "basis_size"."""
    if codim < 1:
        raise ValueError("codimension must be at least 1")
    _check_homogeneous(gens)
    minors, packing, contents = minors or jacobian_minors(gens, codim, max_degree)
    base = buchberger([FPoly.from_int_poly(g, p) for g in gens],
                      max_pairs=max_pairs, max_degree=max_degree)
    basis = buchberger(base, max_pairs=max_pairs, max_degree=max_degree,
                       packed=(packing, [d.terms for d in minors]), trace=trace)
    empty = certifies_empty([next(iter(g.terms)) for g in basis], base[0].nvars)
    info = {"minors_used": sum(c % p != 0 for c in contents)}
    if not (empty and trace is not None):
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
