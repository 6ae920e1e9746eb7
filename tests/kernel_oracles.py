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
"""

import random
from itertools import combinations, groupby
from math import gcd
from operator import itemgetter

from kleinepw import linalg
from kleinepw.cyclo import CycloNum
from kleinepw.epw import build_A, merge_indices
from kleinepw.fixtures import PAIR_VARS, QUADRIC_TEXT, sextic_poly
from kleinepw.groebner import SAMPLE_SEED, FPoly
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


def lifted_jacobian_minors(gens, size, sample=None):
    """The c x c Jacobian minors of FPoly generators that are nonzero mod
    p, in jacobian_minors' key order and sample: the minors of the
    generators' integer lifts in [0, p), expanded over Z and reduced."""
    p, nvars = gens[0].p, gens[0].nvars
    jac = [[MultiPoly(nvars, g.terms).derivative(i) for i in range(nvars)] for g in gens]
    one = MultiPoly.const(nvars, 1)
    all_keys = [(rs, cs) for rs in combinations(range(len(gens)), size)
                for cs in combinations(range(nvars), size)]
    if sample is not None and sample < len(all_keys):
        all_keys = random.Random(SAMPLE_SEED).sample(all_keys, sample)
    out = []
    for rs, run in groupby(all_keys, key=itemgetter(0)):
        col_sets = [cs for _, cs in run]
        cols = sorted(set().union(*col_sets))
        bit = {c: 1 << i for i, c in enumerate(cols)}
        minors = linalg.maximal_minors([[jac[r][c] for c in cols] for r in rs], one)
        for cs in col_sets:
            d = minors.get(sum(bit[c] for c in cs))
            if d is not None:
                m = FPoly.from_int_poly(d, p)
                if not m.is_zero():
                    out.append(m)
    return out
