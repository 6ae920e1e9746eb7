import contextlib
import hashlib
import io
import random
from itertools import combinations
from pathlib import Path

import pytest

from kleinepw import groebner, linalg
from kleinepw.cli import main
from kleinepw.epw import TRIPLE_INDEX, TRIPLES6, build_A, merge_indices
from kleinepw.poly import MultiPoly, grevlex_key, grevlex_packing, linear_forms
from kleinepw.groebner import (
    BudgetExhausted,
    FPoly,
    autoreduce,
    buchberger,
    certifies_empty,
    decomposable_pullback_ideal,
    distinct_mod,
    gm_fivefold_ideal,
    gm_threefold_ideal,
    jacobian_minors,
    normal_form,
    pluecker_relations,
    projective_empty,
    sextic_singular_locus_ideal,
    smoothness_check,
)
from kleinepw.verify import SURFACE_BUDGET_PAIRS

import kernel_oracles
from kernel_oracles import divides, fpoly_var, tuple_normal_form

P = 32003
# the shipped ideal files
DATA = Path(__file__).resolve().parent.parent / "src" / "kleinepw" / "data"


def fvars(p, n):
    return [fpoly_var(p, i, n) for i in range(n)]


def zvars(n):
    return [MultiPoly.var(i, n) for i in range(n)]


def reduce_mod(polys, p):
    """The reductions mod p that are nonzero, in order, as a smoothness
    gate reduces its minors."""
    return [g for g in (FPoly.from_int_poly(f, p) for f in polys) if g]


def unpacked_minors(gens, size, max_degree=groebner.MAX_DEGREE):
    """jacobian_minors' minors as MultiPolys on exponent tuples, each
    unpacked by the packing it returns, terms in its order."""
    minors, packing, _ = jacobian_minors(gens, size, max_degree)
    unpack = packing[1]
    return [MultiPoly(gens[0].nvars, [(unpack(m), c) for m, c in d.terms.items()])
            for d in minors]


def test_buchberger_basics():
    x, y = fvars(7, 2)
    # the reduced basis is sorted by leading monomial, whatever the input order
    for gens in ([x, y], [y, x]):
        assert [g.terms for g in buchberger(gens)] == [{(0, 1): 1}, {(1, 0): 1}]
    one = FPoly(7, 1, {(0,): 1})
    (u,) = fvars(7, 1)
    gb = buchberger([u * u - one, u - one])
    assert len(gb) == 1 and gb[0].terms == (u - one).terms


def test_buchberger_zero_dimensional_cone():
    x, y = fvars(7, 2)
    gb = buchberger([x * x + y * y, x * y])
    leads = [g.leading_term()[0] for g in gb]
    assert any(e[1] == 0 for e in leads) and any(e[0] == 0 for e in leads)
    # hand-computed S-polynomial content: y^3 lands in the ideal
    assert normal_form(y * y * y, gb).is_zero()


def test_idempotence_and_membership():
    x, y = fvars(13, 2)
    gens = [x * x - y, x * y + y * y]
    gb = buchberger(gens)
    again = buchberger(gb)
    assert [g.terms for g in again] == [g.terms for g in gb]
    for g in gens:
        assert normal_form(g, gb).is_zero()


def test_normal_form_properties():
    x, y = fvars(11, 2)
    gb = buchberger([x * x - y])
    r = normal_form(x * x * x, gb)
    # x^3 reduces to x*y
    assert r.terms == (x * y).terms


def test_budget_exhaustion():
    x, y = fvars(7, 2)
    with pytest.raises(BudgetExhausted) as err:
        buchberger([x * x * x - y * y, x * y * y - x], max_pairs=1)
    e = err.value
    assert str(e) == "pair budget 1 exhausted"
    assert (e.pairs, e.basis, e.degree) == (1, 3, 4)
    assert e.progress() == {"pairs": 1, "basis": 3, "degree": 4}
    with pytest.raises(BudgetExhausted) as err:
        buchberger([x * x * x - y * y, x * y * y - x], max_degree=3)
    e = err.value
    assert str(e) == "degree budget 3 exhausted"
    # the first S-polynomial has a degree-4 lead and is not kept
    assert (e.pairs, e.basis, e.degree) == (1, 2, 4)


def test_projective_empty():
    x, y, z = fvars(P, 3)
    assert projective_empty([x, y, z])[0] is True
    assert projective_empty([x * y])[0] is False
    # monotone: adding generators never flips true -> false
    assert projective_empty([x, y, z, x * y])[0] is True
    with pytest.raises(ValueError):
        projective_empty([x + FPoly(P, 3, {(0, 0, 0): 1})])


def test_minors_are_checked_for_homogeneity_where_they_are_built(monkeypatch):
    # jacobian_minors refuses x^2 + y, and the minors of x^2 + yz and xy,
    # homogeneous rows, are homogeneous; smoothness_check refuses x^2 + y
    # before any Buchberger run, also with minors handed in
    x, y, z = zvars(3)
    with pytest.raises(ValueError, match="homogeneous"):
        jacobian_minors([x * x + y], 1)
    minors, packing, _ = jacobian_minors([x * x + y * z, x * y], 2)
    top = packing[4].bit_length()
    assert minors and all(min(d.terms) >> top == max(d.terms) >> top for d in minors)

    def refuse(*args, **kwargs):
        raise AssertionError("a Buchberger run before the homogeneity check")

    handed_in = jacobian_minors([x * x + y * z], 1)
    monkeypatch.setattr(groebner, "buchberger", refuse)
    for given in (None, handed_in):
        with pytest.raises(ValueError, match="homogeneous"):
            smoothness_check([x * x + y], 1, P, minors=given)


def test_certificate_needs_a_pure_power_of_every_variable():
    assert certifies_empty([(0, 3, 0), (1, 1, 0), (2, 0, 0), (0, 0, 5)], 3)
    assert not certifies_empty([(0, 3, 0), (1, 0, 1), (2, 0, 0)], 3)
    # a constant lead certifies too: the ideal is the unit ideal
    assert certifies_empty([(0, 0)], 2)
    assert certifies_empty([(0, 0, 0), (1, 1, 0)], 3)


def test_early_stop_returns_a_partial_basis_only_for_an_empty_ideal():
    x, y, z = fvars(P, 3)
    gens = [x * x + y * z, y * y + x * z, z * z * z]
    reduced = buchberger(gens)
    # the leads x^2, y^2, z^3 certify before any pair is handled
    partial = buchberger(gens, trace=[])
    assert partial == gens and partial != reduced
    assert all(normal_form(g, reduced).is_zero() for g in partial)
    assert projective_empty(gens, trace=[]) == (True, partial)
    # the twisted cubic's ideal is not empty: the run ends at the reduced basis
    cubic = [x * z - y * y, x * y - z * z, x * x - y * z]
    assert buchberger(cubic, trace=[]) == buchberger(cubic)


def test_early_stop_at_a_constant_lead():
    x, y = fvars(7, 2)
    gens = [x * y + FPoly(7, 2, {(0, 0): 1}), x * x]
    assert [g.terms for g in buchberger(gens)] == [{(0, 0): 1}]
    # S(x^2, xy + 1) gives x, then S(x, xy + 1) the constant; no y power is met
    partial = buchberger(gens, trace=[])
    assert [g.leading_term()[0] for g in partial] == [(1, 1), (2, 0), (1, 0), (0, 0)]


def test_run_width_comes_from_the_budget_or_the_input_degree(monkeypatch):
    # every monomial of a run has degree at most twice the larger of the
    # degree budget and the input's degree: the packing gets that bound
    degrees = []
    packing = groebner.grevlex_packing
    monkeypatch.setattr(groebner, "grevlex_packing",
                        lambda nvars, degree: degrees.append(degree) or packing(nvars, degree))
    x, y, z = fvars(P, 3)
    high = FPoly(P, 3, {(0, 258, 0): 1, (257, 0, 1): -1})
    for gens, max_degree, want in (([x * y - z * z], 48, 48), ([high, x - z], 48, 258),
                                   ([high, x - z], 400, 400), ([high, high], 3, 258)):
        del degrees[:]
        budgets = {"max_pairs": 40, "max_degree": max_degree}
        try:
            got = [g.terms for g in buchberger(gens, **budgets)]
        except BudgetExhausted as e:
            got = e.progress()
        try:
            want_basis = [g.terms for g in kernel_oracles.tuple_buchberger(gens, **budgets)]
        except BudgetExhausted as e:
            want_basis = e.progress()
        assert degrees[0] == want and got == want_basis


def test_smoothness_small_examples():
    x, y, z, w = zvars(4)
    assert smoothness_check([x * x + y * y + z * z + w * w], 1, P)[0] is True
    u, v, t = zvars(3)
    assert smoothness_check([u * v - t * t], 1, P)[0] is True  # smooth conic
    assert smoothness_check([u * u * v], 1, P)[0] is False
    # x^2 + 2y^2 + 3z^2 is a smooth conic over Q and two lines mod 3
    x, y, z = zvars(3)
    assert smoothness_check([x * x + 2 * y * y + 3 * z * z], 1, 7)[0] is True
    assert smoothness_check([x * x + 2 * y * y + 3 * z * z], 1, 3)[0] is False


def _rank_mod(polys, p):
    """Rank over F_p of the coefficient vectors of the given polynomials,
    by a small modular elimination."""
    monos = sorted({e for g in polys for e in g.terms})
    mi = {e: i for i, e in enumerate(monos)}
    rows = []
    for g in polys:
        row = [0] * len(monos)
        for e, c in g.terms.items():
            row[mi[e]] = c
        rows.append(row)
    r = 0
    for c in range(len(monos)):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_grassmannian_relations():
    rel = pluecker_relations(3, 6)
    assert all(g.total_degree() == 2 for g in rel)
    assert all(g.is_homogeneous() for g in rel)
    # rank 35 over the prime field
    assert _rank_mod(rel, P) == 35
    # vanish on decomposables, not identically
    rng = random.Random(5)
    for _ in range(3):
        u = [rng.randint(0, P - 1) for _ in range(6)]
        v = [rng.randint(0, P - 1) for _ in range(6)]
        w = [rng.randint(0, P - 1) for _ in range(6)]
        t = [c % P for c in linalg.exterior_power_matrix([u, v, w], 3)[0]]
        for g in rel:
            assert g.evaluate(t) % P == 0
    some_nonzero = any(
        g.evaluate([1] + [0] * 18 + [1]) % P != 0 for g in rel
    )  # e_012 + e_345 is not decomposable
    assert some_nonzero


def _three_term_rule(p):
    """The oracle for pluecker_relations(2, 5, p): one relation
    x_ij x_kl - x_ik x_jl + x_il x_jk per 4-subset {i<j<k<l} of 0..4, in
    the ten pair coordinates."""
    pair_index = {pair: k for k, pair in enumerate(combinations(range(5), 2))}
    out = []
    for i, j, k, l in combinations(range(5), 4):
        terms = {}
        for p1, p2, sign in (((i, j), (k, l), 1), ((i, k), (j, l), -1), ((i, l), (j, k), 1)):
            e = [0] * 10
            e[pair_index[p1]] += 1
            e[pair_index[p2]] += 1
            terms[tuple(e)] = sign
        out.append(FPoly(p, 10, terms))
    return out


def _contraction_and_wedge(p):
    """The oracle for pluecker_relations(3, 6, p): for each m and each
    5-subset, the e_five coefficient of (contraction of t with the m-th
    dual vector) ^ t, a quadric in the 20 trivector coordinates; deduplicated
    up to a scalar."""
    relations = {}
    for m in range(6):
        for five in combinations(range(6), 5):
            coeffs = {}
            for I in TRIPLES6:
                if m not in I:
                    continue
                rest = tuple(x for x in I if x != m)
                for K in TRIPLES6:
                    s2, merged = merge_indices(rest, K)
                    if s2 and merged == five:
                        key = tuple(sorted((TRIPLE_INDEX[I], TRIPLE_INDEX[K])))
                        coeffs[key] = coeffs.get(key, 0) + (-1) ** I.index(m) * s2
            terms = []
            for (i, j), c in coeffs.items():
                e = [0] * 20
                e[i] += 1
                e[j] += 1
                terms.append((e, c))
            poly = FPoly(p, 20, terms).monic()
            if poly:
                relations[frozenset(poly.terms.items())] = poly
    return list(relations.values())


@pytest.mark.parametrize("p", [P, 65537])
def test_pluecker_relations_of_gr25_are_the_three_term_rule(p):
    assert [FPoly.from_int_poly(r, p) for r in pluecker_relations(2, 5)] == _three_term_rule(p)


@pytest.mark.parametrize("p", [P, 65537])
def test_pluecker_relations_of_gr36_span_the_contraction_relations(p):
    built = [FPoly.from_int_poly(r, p) for r in pluecker_relations(3, 6)]
    oracle = _contraction_and_wedge(p)
    assert _rank_mod(built, p) == _rank_mod(oracle, p) == _rank_mod(built + oracle, p) == 35
    # the two decomposable pullback ideals have one reduced basis
    linear = [FPoly.from_int_poly(form, p) for form in linear_forms(list(zip(*build_A())))]
    pulled = [rel.substitute(linear) for rel in oracle]
    assert buchberger(distinct_mod(decomposable_pullback_ideal(), p)) == buchberger(pulled)


def test_decomposable_gate_two_primes():
    pullback = decomposable_pullback_ideal()
    for p in (P, 65537):
        gens = distinct_mod(pullback, p)
        empty, basis = projective_empty(gens)
        assert empty is True and len(basis) == 60
        # the early stop gives the same verdict from a partial basis of
        # elements of the ideal
        early, partial = projective_empty(gens, trace=[])
        assert early is True and len(partial) == 57
        assert all(normal_form(g, basis).is_zero() for g in partial)


def _hand_built_threefold(p):
    """The oracle for gm_threefold_ideal: each 4-term Pluecker quadric
    x_ij x_kl - x_ik x_jl + x_il x_jk written out with x03 = -x12 and
    x04 = x23 put in by hand, then the extra quadric."""
    names = ["x01", "x02", "x12", "x13", "x14", "x23", "x24", "x34"]

    def var(name, coeff=1):
        return fpoly_var(p, names.index(name), 8, coeff)

    def image(i, j):
        name = f"x{i}{j}"
        return var("x12", -1) if name == "x03" else var("x23") if name == "x04" else var(name)

    out = [image(i, j) * image(k, l) - image(i, k) * image(j, l) + image(i, l) * image(j, k)
           for i, j, k, l in combinations(range(5), 4)]
    out.append(var("x01") * var("x02") - var("x13") * var("x14") - var("x24") * var("x34"))
    return out


@pytest.mark.parametrize("p", [P, 65537])
def test_threefold_ideal_matches_the_hand_built_quadrics(p):
    built, oracle = gm_threefold_ideal(), _hand_built_threefold(p)
    assert all(type(g) is MultiPoly for g in built)
    assert [FPoly.from_int_poly(g, p).terms for g in built] == [g.terms for g in oracle]


def test_threefold_gate():
    gens = gm_threefold_ideal()
    minors = jacobian_minors(gens, 4)
    for p in (P, 65537):
        ok, info = smoothness_check(gens, 4, p)
        assert ok is True
        assert info == {"minors_used": 1037, "basis_size": 165}
        # the early stop reaches the same verdict and reports no basis size,
        # from the minors expanded once for both primes
        early = smoothness_check(gens, 4, p, minors=minors, trace=[])
        assert early == (True, {"minors_used": 1037})


@pytest.mark.slow
def test_fivefold_gate(monkeypatch):
    # this run is also the one of the shipped gm_fivefold.json (the same
    # generators, term for term), so it checks autoreduce against its oracle
    (ok, info), bases = _autoreduce_inputs(
        monkeypatch, lambda: smoothness_check(gm_fivefold_ideal(), 4, P))
    for basis in bases:
        assert _same_terms(autoreduce(basis), _fixpoint_autoreduce(basis))
    assert ok is True
    assert info == {"minors_used": 2965, "basis_size": 445}
    early = smoothness_check(gm_fivefold_ideal(), 4, P, trace=[])
    assert early == (True, {"minors_used": 2965})


def test_threefold_negative_control():
    # deleting one quadric term forces a singular point: the degenerate
    # quadric's vertex plane meets the section
    gens = gm_threefold_ideal()
    quad = gens[-1]
    broken = dict(quad.terms)
    key = next(e for e in broken if e[6] == 1 and e[7] == 1)  # the x24*x34 term
    del broken[key]
    corrupted = gens[:-1] + [MultiPoly(8, broken)]
    ok, info = smoothness_check(corrupted, 4, P)
    assert ok is False
    # a non-empty locus never meets the certificate: the early-stop route
    # runs to the same reduced basis and reports the same basis size
    assert smoothness_check(corrupted, 4, P, trace=[]) == (ok, info)
    assert info["basis_size"] == 130


def test_jacobian_minors_over_z_match_the_fpoly_expansion():
    # jacobian_minors takes all minors of a row set from one expansion over
    # Z; reduced mod p they are the minors that the oracle expands over F_p
    # directly, one by one, in the same row-set then column-set order
    for build in (gm_threefold_ideal, gm_fivefold_ideal):
        minors = unpacked_minors(build(), 4)
        for p in (P, 65537):
            gens = [FPoly.from_int_poly(g, p) for g in build()]
            nvars = gens[0].nvars
            jac = [[g.derivative(i) for i in range(nvars)] for g in gens]
            one = FPoly(p, nvars, {(0,) * nvars: 1})
            oracle = []
            for rs in combinations(range(len(gens)), 4):
                for cs in combinations(range(nvars), 4):
                    m = linalg.expansion_det([[jac[r][c] for c in cs] for r in rs], one)
                    if not m.is_zero():
                        oracle.append(m)
            assert [m.terms for m in reduce_mod(minors, p)] == [m.terms for m in oracle]


@pytest.mark.parametrize("build", [gm_threefold_ideal, gm_fivefold_ideal],
                         ids=lambda f: f.__name__)
def test_packed_minors_equal_the_tuple_expansion(build):
    # the expansion on packed Ps through MultiPoly's product hook gives the
    # expansion on exponent tuples term for term, in the same term order
    got = unpacked_minors(build(), 4)
    want = kernel_oracles.tuple_jacobian_minors(build(), 4)
    assert [list(m.terms.items()) for m in got] == [list(m.terms.items()) for m in want]
    assert all(type(m) is MultiPoly for m in want)


def test_first_divisor_table_matches_the_plain_scan():
    # one table shared by every call while the leads grow by appending, as
    # in buchberger, gives the tuple kernel's plain-scan normal forms term
    # for term
    p = 101
    x, y, z = fvars(p, 3)
    packing = grevlex_packing(3, 15)
    pack, unpack, word = packing[:3]
    basis, lead_data, divisor = [], [], {}

    def append(g):
        basis.append(g.monic())
        lead_data.append(groebner._entry(groebner._packed(basis[-1], pack), p, word))

    def check(f):
        r = groebner._reduce(groebner._packed(f, pack), lead_data, packing, p, divisor)
        got = FPoly(p, 3, [(unpack(m), c) for m, c in r.items()])
        want = tuple_normal_form(f, basis)
        assert list(got.terms.items()) == list(want.terms.items())
        # each entry is the first dividing lead, or a miss over a prefix of
        # the leads that holds no divisor
        for m, k in divisor.items():
            first = next((i for i, g in enumerate(basis)
                          if divides(g.leading_term()[0], unpack(m))), None)
            assert k == first if k >= 0 else first is None or first >= ~k
        return got

    # x^2 y misses while z^3 is the only lead, and is hit once xy is appended
    append(z * z * z)
    f = x * x * y + z * z
    assert check(f).terms == f.terms and divisor[pack((2, 1, 0))] == ~1
    append(x * y + z * z)
    assert check(f).terms == (z * z - x * z * z).terms and divisor[pack((2, 1, 0))] == 1
    rng = random.Random(7)

    def random_poly(degree):
        exps = [tuple(rng.randint(0, degree) for _ in range(3)) for _ in range(rng.randint(1, 6))]
        return FPoly(p, 3, {e: rng.randrange(1, p) for e in exps})

    for _ in range(12):
        append(random_poly(3))
        for _ in range(5):
            check(random_poly(5))


def _recorded_runs(monkeypatch, run):
    """run()'s result and each buchberger call made while it ran, as
    (generators with any packed ones unpacked to FPolys, keyword
    arguments, basis returned)."""
    runs = []

    def recording(gens, **kwargs):
        basis = buchberger(gens, **kwargs)
        packing, extra = kwargs.get("packed") or (None, [])
        unpacked = [FPoly(g.p, g.nvars, [(packing[1](m), c) for m, c in d.items()])
                    for g in gens[:1] for d in extra]
        runs.append((list(gens) + unpacked, kwargs, basis))
        return basis

    monkeypatch.setattr(groebner, "buchberger", recording)
    return run(), runs


def _oracle_budgets(kwargs):
    """tuple_buchberger's keyword arguments for a recorded buchberger
    call: its budgets, and a run given a trace stops at the certificate."""
    budgets = {k: v for k, v in kwargs.items() if k in ("max_pairs", "max_degree")}
    return {**budgets, "stop_at_certificate": kwargs.get("trace") is not None}


@pytest.mark.parametrize("p", [P, 65537])
@pytest.mark.parametrize("gate", ["threefold", "pullback"])
def test_gate_runs_match_the_tuple_kernel(monkeypatch, gate, p):
    # every run of the verify gate, its partial basis at the certificate
    # included, equals the tuple kernel's on the same generators, term for
    # term; the threefold's minors enter packed and are unpacked to compare
    def run():
        if gate == "pullback":
            return projective_empty(distinct_mod(decomposable_pullback_ideal(), p),
                                    trace=[])[0]
        gens = gm_threefold_ideal()
        return smoothness_check(gens, 4, p, minors=jacobian_minors(gens, 4), trace=[])[0]

    verdict, runs = _recorded_runs(monkeypatch, run)
    assert verdict is True and [len(r[0]) for r in runs] == (
        [45] if gate == "pullback" else [6, 7 + 1037])
    for gens, kwargs, basis in runs:
        assert _same_terms(basis, kernel_oracles.tuple_buchberger(gens, **_oracle_budgets(kwargs)))


def _width(packing):
    return (packing[4] & -packing[4]).bit_length()


def test_minors_packed_for_the_default_budget_are_too_narrow_at_200():
    # jacobian_minors packs for its degree budget: 8-bit fields at the
    # default 48, 10-bit ones at 200.  A run takes a given packing as it
    # is, so a run at 200 refuses minors packed at 8 bits
    gens = gm_threefold_ideal()
    narrow = jacobian_minors(gens, 4)
    assert _width(narrow[1]) == 8
    with pytest.raises(ValueError, match="narrower than the run needs"):
        smoothness_check(gens, 4, P, max_pairs=100, max_degree=200, minors=narrow, trace=[])


def test_minors_packed_at_200_serve_a_run_at_the_default(monkeypatch):
    # minors packed at 10 bits for a budget of 200 serve a run at the
    # default 48 as they are, and give the tuple kernel's runs and the
    # default verdict.  The gate needs a few pairs; a budget of 100 stops
    # a run that misreads the Ps early
    gens = gm_threefold_ideal()
    wide = jacobian_minors(gens, 4, 200)
    assert _width(wide[1]) == 10
    verdict, runs = _recorded_runs(monkeypatch, lambda: smoothness_check(
        gens, 4, P, max_pairs=100, minors=wide, trace=[]))
    assert verdict == (True, {"minors_used": 1037})
    assert [len(r[0]) for r in runs] == [6, 7 + 1037] and runs[1][1]["packed"][0] is wide[1]
    for gens, kwargs, basis in runs:
        assert _same_terms(basis, kernel_oracles.tuple_buchberger(gens, **_oracle_budgets(kwargs)))


def test_pair_indices_outgrow_the_input_count(monkeypatch):
    # two generators whose run keeps more than four elements: a waiting
    # pair's index fields are sized by the pair budget, not by the input
    gens = [FPoly(101, 3, {(0, 0, 3): 62, (1, 0, 2): 35, (1, 1, 1): 75}),
            FPoly(101, 3, {(1, 0, 2): 40, (1, 1, 1): 11, (2, 1, 0): 89})]
    budgets = {"max_pairs": 200, "max_degree": 12}
    got, (run,) = _autoreduce_inputs(monkeypatch, lambda: buchberger(gens, **budgets))
    assert len(run) > 4
    assert _same_terms(got, kernel_oracles.tuple_buchberger(gens, **budgets))


def test_projective_empty_reads_the_leads_from_the_run(monkeypatch):
    # every basis buchberger returns puts each lead first; the certificate
    # takes its leads from there, with no grevlex_key per term again
    def refuse(self):
        raise AssertionError("a lead was derived again")

    def run(gens, **kwargs):
        basis = buchberger(gens, **kwargs)
        monkeypatch.setattr(MultiPoly, "leading_term", refuse)
        return basis

    x, y = fvars(P, 2)
    gens = distinct_mod(decomposable_pullback_ideal(), P)
    monkeypatch.setattr(groebner, "buchberger", run)
    assert projective_empty([x * y])[0] is False
    assert [(e, len(b)) for e, b in (projective_empty(gens, trace=[]),
                                     projective_empty(gens))] == [(True, 57), (True, 60)]


# -- the second prime replays the first prime's trace --------------------------

# each verify gate: its integer ideal, the codimension of its smoothness
# check (None: the pullback's emptiness) and its pair budget
REPLAY_GATES = {
    "threefold": (gm_threefold_ideal, 4, groebner.MAX_PAIRS),
    "pullback": (decomposable_pullback_ideal, None, groebner.MAX_PAIRS),
    "fivefold": (gm_fivefold_ideal, 4, groebner.MAX_PAIRS),
    "surface": (sextic_singular_locus_ideal, 3, SURFACE_BUDGET_PAIRS),
}
# _digest of the surface's partial basis at 65537, from the full run: 2,633
# elements, 279,648 terms
SURFACE_DIGEST = "7c7e55376599cabfd439a32357e48597725d32d2892aab7806acc4915af47ba0"


def _gate_runner(monkeypatch, name):
    """run(p, trace): the gate's certificate run at p as verify makes it,
    as (verdict, the partial basis, [whether _replay made it] or [] when
    no replay was tried)."""
    build, codim, max_pairs = REPLAY_GATES[name]
    gens = build()
    minors = codim and jacobian_minors(gens, codim)
    bases, replays = [], []
    real_buchberger, real_replay = buchberger, groebner._replay
    monkeypatch.setattr(groebner, "buchberger",
                        lambda g, **kw: bases.append(real_buchberger(g, **kw)) or bases[-1])
    monkeypatch.setattr(groebner, "_replay",
                        lambda *args: replays.append(real_replay(*args)) or replays[-1])

    def run(p, trace):
        del bases[:], replays[:]
        if codim is None:
            verdict = projective_empty(distinct_mod(gens, p), max_pairs=max_pairs,
                                       trace=trace)[0]
        else:
            verdict = smoothness_check(gens, codim, p, max_pairs=max_pairs, minors=minors,
                                       trace=trace)[0]
        return verdict, bases[-1], [r is not None for r in replays]

    return run


def _digest(basis):
    """sha256 of each element's terms, sorted, in the basis' order."""
    h = hashlib.sha256()
    for g in basis:
        h.update(repr(g.sorted_terms()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", ["threefold", "pullback", "fivefold",
                                  pytest.param("surface", marks=pytest.mark.slow)])
def test_the_second_prime_replays_the_first_prime_trace(monkeypatch, name):
    # the trace recorded at 32003 replays at 65537 with no fallback, to the
    # full run's partial basis there, term for term
    run = _gate_runner(monkeypatch, name)
    trace = []
    assert run(P, trace)[0] is True and trace
    verdict, basis, replays = run(65537, trace)
    assert verdict is True and replays == [True]
    if name == "surface":
        assert len(basis) == 2633 and _digest(basis) == SURFACE_DIGEST
    else:
        full = run(65537, [])
        assert full[2] == [] and _same_terms(basis, full[1])


class _Watched(dict):
    """A dict that adds its index to seen whenever it is iterated."""

    def __init__(self, terms, index, seen):
        super().__init__(terms)
        self.index, self.seen = index, seen

    def __iter__(self):
        self.seen.add(self.index)
        return super().__iter__()

    def keys(self):
        self.seen.add(self.index)
        return super().keys()

    def values(self):
        self.seen.add(self.index)
        return super().values()

    def items(self):
        self.seen.add(self.index)
        return super().items()


def test_the_replay_iterates_only_the_kept_minors():
    # at the replayed second prime no packed minor outside the trace's
    # kept inputs is iterated: the minors are not scanned again for
    # homogeneity, width or use at each prime
    gens = gm_threefold_ideal()
    minors, packing, contents = gate_minors = jacobian_minors(gens, 4)
    seen = set()
    for k, d in enumerate(minors):
        d.terms = _Watched(d.terms, k, seen)
    trace = []
    assert smoothness_check(gens, 4, P, minors=gate_minors, trace=trace)[0] is True
    assert seen == set(range(len(minors)))
    count, kept, _ = trace
    first = count - len(minors)
    seen.clear()
    assert smoothness_check(gens, 4, 65537, minors=gate_minors, trace=trace)[0] is True
    assert seen == {k - first for k in kept if k >= first} and len(seen) < len(minors)


def _corrupted(kind, trace):
    count, kept, made = trace
    if kind == "needed pair dropped":
        # the last pair's element completes the certificate
        return [count, kept, made[:-1]]
    if kind == "pairs swapped":
        # a pair whose element the next pair takes: that one now comes first
        k = next(k for k in range(len(made) - 1) if len(kept) + k in made[k + 1])
        return [count, kept, made[:k] + [made[k + 1], made[k]] + made[k + 2:]]
    return [count, kept[:1] + kept, made]


@pytest.mark.parametrize("kind", ["needed pair dropped", "pairs swapped",
                                  "input index repeated"])
def test_a_corrupted_trace_falls_back_to_the_full_run(monkeypatch, kind):
    # the pullback's run needs 22 pairs after its 35 kept inputs
    run = _gate_runner(monkeypatch, "pullback")
    recorded = []
    run(P, recorded)
    trace = _corrupted(kind, recorded)
    verdict, basis, replays = run(65537, trace)
    fresh = []
    full = run(65537, fresh)
    assert replays == [False] and verdict is full[0] is True
    assert _same_terms(basis, full[1])
    # the fallback recorded its own run for a later prime
    assert trace == fresh


def _fixpoint_autoreduce(basis):
    """The oracle for autoreduce: the minimal basis interreduced pass after
    pass until a pass changes nothing, on the tuple kernel."""
    basis = [g.monic() for g in basis if not g.is_zero()]
    leads = [g.leading_term()[0] for g in basis]
    keep = [g for i, g in enumerate(basis)
            if not any(j != i and divides(leads[j], leads[i])
                       and (leads[j] != leads[i] or j < i) for j in range(len(basis)))]
    data = [(g.leading_term()[0], list(g.terms.items())) for g in keep]
    changed = True
    while changed:
        changed = False
        out, out_data = [], []
        for i, g in enumerate(keep):
            others = out_data + data[i + 1:]
            r = tuple_normal_form(g, None, others) if others else g
            if r.is_zero():
                changed = True
                continue
            r = r.monic()
            if r != g:
                changed = True
            out.append(r)
            out_data.append((r.leading_term()[0], list(r.terms.items())))
        keep, data = out, out_data
    keep.sort(key=lambda g: grevlex_key(g.leading_term()[0]))
    return keep


def _autoreduce_inputs(monkeypatch, run):
    """run()'s result and the bases that buchberger handed to autoreduce
    while it ran."""
    seen = []
    monkeypatch.setattr(groebner, "autoreduce", lambda basis: seen.append(basis) or autoreduce(basis))
    result = run()
    assert seen
    return result, seen


IDEALS = (gm_threefold_ideal, gm_fivefold_ideal, decomposable_pullback_ideal)


def _gate_gens(build, p):
    """A gate ideal's generators reduced at p as its gate reduces them."""
    if build is decomposable_pullback_ideal:
        return distinct_mod(build(), p)
    return [FPoly.from_int_poly(g, p) for g in build()]


def _same_terms(got, want):
    """Term for term, in order."""
    return [g.sorted_terms() for g in got] == [g.sorted_terms() for g in want]


@pytest.mark.parametrize("p", [P, 65537])
@pytest.mark.parametrize("build", IDEALS, ids=lambda f: f.__name__)
def test_one_pass_autoreduce_matches_the_fixpoint_on_the_ideals(monkeypatch, build, p):
    for basis in _autoreduce_inputs(monkeypatch, lambda: buchberger(_gate_gens(build, p)))[1]:
        assert _same_terms(autoreduce(basis), _fixpoint_autoreduce(basis))


# gm_fivefold.json is checked by test_fivefold_gate, which runs it
@pytest.mark.parametrize("name", ["gm_threefold", "gm_sixfold"])
def test_one_pass_autoreduce_matches_the_fixpoint_on_the_data_files(monkeypatch, name):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            main(["groebner", "--file", str(DATA / f"{name}.json")])
    for basis in _autoreduce_inputs(monkeypatch, run)[1]:
        assert _same_terms(autoreduce(basis), _fixpoint_autoreduce(basis))


# -- the integer gate ideals against the per-prime builders ------------------

# (integer builder, per-prime oracle, codimension of its smoothness gate)
GATES = (
    (decomposable_pullback_ideal, kernel_oracles.decomposable_pullback_ideal_mod, None),
    (gm_threefold_ideal, kernel_oracles.gm_threefold_ideal_mod, 4),
    (gm_fivefold_ideal, kernel_oracles.gm_fivefold_ideal_mod, 4),
    (sextic_singular_locus_ideal, kernel_oracles.sextic_singular_locus_ideal_mod, 3),
)


@pytest.mark.parametrize("p", [P, 65537])
@pytest.mark.parametrize("gate", GATES, ids=[build.__name__ for build, _, _ in GATES])
def test_gate_ideals_reduce_to_the_per_prime_builders(gate, p):
    build, oracle, codim = gate
    want = oracle(p)
    assert _same_terms(_gate_gens(build, p), want)
    # the surface's minors are the slow test below
    if codim is None or build is sextic_singular_locus_ideal:
        return
    minors = unpacked_minors(build(), codim)
    assert _same_terms(reduce_mod(minors, p), kernel_oracles.lifted_jacobian_minors(want, codim))


@pytest.mark.slow
def test_surface_minors_reduce_to_the_lifted_minors():
    minors = unpacked_minors(sextic_singular_locus_ideal(), 3)
    for p in (P, 65537):
        want = kernel_oracles.lifted_jacobian_minors(
            kernel_oracles.sextic_singular_locus_ideal_mod(p), 3)
        assert _same_terms(reduce_mod(minors, p), want)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_pullback_reduces_to_the_per_prime_builder_at_small_primes(p):
    gens = decomposable_pullback_ideal()
    want = kernel_oracles.decomposable_pullback_ideal_mod(p)
    assert _same_terms(distinct_mod(gens, p), want)
    # f + p g equals f mod p but is not proportional to it over Q: the
    # duplicates are dropped after the reduction
    doubled = gens + [f + p * g for f, g in zip(gens, reversed(gens))]
    assert _same_terms(distinct_mod(doubled, p), want)
