"""Named verification checks and the suite driver.

Every check has a stable id, a one-line statement of the claim it
certifies, and produces a VerificationReport with verdict pass, fail,
skipped or budget-exhausted.  Failing verdicts always carry a witness
(first mismatching coefficient, entry or vector).  Reports are emitted
in check-id order regardless of execution order, and all exact values in
witnesses are serialized as strings.
The finite-field checks run at PRIMES with groebner's default budgets,
unless VerifyContext is given others, and stop at the first emptiness
certificate; their pass witnesses carry no basis size.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cached_property

from . import epw, fixtures, group, hermitian, lattices, linalg
from .cyclo import CycloNum, QuadInt, lambda_embed, substitute_linear
from .groebner import (
    MAX_DEGREE,
    MAX_PAIRS,
    BudgetExhausted,
    decomposable_pullback_ideal,
    distinct_mod,
    gm_fivefold_ideal,
    gm_threefold_ideal,
    jacobian_minors,
    projective_empty,
    sextic_singular_locus_ideal,
    smoothness_check,
)
from .poly import MultiPoly, gcd, squarefree_decomposition
from .textform import emit_polynomial

PASS, FAIL, SKIP, BUDGET = "pass", "fail", "skipped", "budget-exhausted"

# the two primes of the finite-field checks, unless two others are given
PRIMES = (32003, 65537)


class VerificationReport:
    __slots__ = ("check_id", "statement", "verdict", "witness", "elapsed")

    def __init__(self, check_id, statement, verdict, witness=None, elapsed=0.0):
        self.check_id, self.statement, self.verdict = check_id, statement, verdict
        self.witness = {} if witness is None else witness
        self.elapsed = elapsed

    def to_json(self):
        return {
            "check": self.check_id,
            "statement": self.statement,
            "verdict": self.verdict,
            "witness": self.witness,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def frac_str(x):
    f = Fraction(x) if not isinstance(x, Fraction) else x
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def quadint_json(x):
    """Serialization of a + b*w as the two-integer array [a, b]."""
    return [x.a, x.b]


def cyclo_json(x: CycloNum):
    lam = lambda_embed()
    if x.is_rational():
        pretty = frac_str(x.to_fraction())
    elif x == lam:
        pretty = "λ"
    elif x == lam.conj():
        pretty = "λ̄"
    else:
        pretty = repr(x)
    return {
        "conductor": x.n,
        "coefficients": [frac_str(c) for c in x.coeffs()],
        "pretty": pretty,
    }


class VerifyContext:
    """Shared state, each piece built on first use and kept (a cached
    property): the 660-element table, the Lagrangian, the sextic by both
    routes, wedge squares of the generators and of H', the invariant form."""

    def __init__(self, seed=0, slow=False, primes=PRIMES,
                 budget_pairs=MAX_PAIRS, budget_degree=MAX_DEGREE):
        self.seed = seed
        self.slow = slow
        self.primes = tuple(primes)
        self.budget_pairs = budget_pairs
        self.budget_degree = budget_degree

    @cached_property
    def generators(self):
        return group.gen_a(), group.gen_c(), group.weil_outside_borel()

    @cached_property
    def table(self):
        return group.generate_group(list(self.generators))

    @cached_property
    def labeled(self):
        return self.table.labeled_classes()

    @cached_property
    def lagrangian(self):
        return epw.build_A()

    @property
    def sextic_fixture(self):
        return fixtures.sextic_poly()

    @cached_property
    def sextic_derived(self):
        return epw.sextic_equation()

    @cached_property
    def sextic_interpolated(self):
        return epw.sextic_via_interpolation()

    @cached_property
    def wedge2_generators(self):
        """The 10 x 10 wedge-square images of the three generators, built
        once for the invariant form and the two checks that use them."""
        return tuple(linalg.exterior_power_matrix(g, 2) for g in self.generators)

    @cached_property
    def hermitian_wedge_square(self):
        return linalg.exterior_power_matrix(fixtures.hprime_matrix(), 2)

    @cached_property
    def wedge_square_invariants(self):
        """The polarization invariants of H' wedge H', det first (by three
        routes); ValueError unless it is positive definite."""
        return hermitian.polarization_invariants(self.hermitian_wedge_square)

    @cached_property
    def invariant_form(self):
        return group.unitary_group_sum(self.wedge2_generators, len(self.table))


# the rows of the character table, in display order; chi0 is the trivial
# character and has no functor
CHARACTER_ROWS = {
    "chi0": None,
    "xi": group.functor_xi(),
    "xi_dual": group.functor_xi_dual(),
    "wedge2_xi": group.functor_wedge2(),
}


def character_value(ctx, row, label):
    """Value of the named character row on the class with this label."""
    f = CHARACTER_ROWS[row]
    if f is None:
        return CycloNum.from_rational(1, 11)
    return group.character(f, ctx.table, ctx.labeled[label][0])


CHECKS = []


def check(check_id, suites, statement):
    def wrap(fn):
        CHECKS.append((check_id, frozenset(suites), statement, fn))
        return fn

    return wrap


def _bool(ok, witness_ok, witness_fail):
    return (PASS, witness_ok) if ok else (FAIL, witness_fail)


# ---------------------------------------------------------------------------
# sextic checks
# ---------------------------------------------------------------------------


@check(
    "sextic.fixture-match",
    {"fast", "epw"},
    "determinant route reproduces the canonical 37-term sextic exactly",
)
def _sextic_fixture(ctx):
    got = ctx.sextic_derived
    want = ctx.sextic_fixture
    if got == want:
        return PASS, {"terms": len(got.terms)}
    return FAIL, _first_term_diff(got, want, "computed", "expected")


@check(
    "sextic.route-agreement",
    {"epw"},
    "fraction-free elimination and grid interpolation give the same sextic",
)
def _sextic_routes(ctx):
    a = ctx.sextic_derived
    b = ctx.sextic_interpolated
    if a == b:
        return PASS, {}
    return FAIL, _first_term_diff(a, b, "elimination", "interpolation")


def _first_term_diff(a, b, a_name, b_name):
    """Witness at the first exponent (sorted order) where a and b differ."""
    for e in sorted(set(a.terms) | set(b.terms)):
        if a.terms.get(e) != b.terms.get(e):
            return {
                "exponents": list(e),
                a_name: str(a.terms.get(e, 0)),
                b_name: str(b.terms.get(e, 0)),
            }
    return {}


@check(
    "sextic.term-count",
    {"fast", "epw"},
    "the canonical sextic has exactly 37 monomials",
)
def _sextic_terms(ctx):
    n = len(ctx.sextic_derived.terms)
    return _bool(n == fixtures.SEXTIC_TERM_COUNT, {"terms": n}, {"terms": n})


@check(
    "sextic.coefficient-examples",
    {"fast", "epw"},
    "pinned coefficients: x0^6 -> 1, x0x1x2x3x4x5 -> -12, x1x4x5^4 -> -4",
)
def _sextic_coeffs(ctx):
    f = ctx.sextic_derived
    probes = [
        ((6, 0, 0, 0, 0, 0), 1),
        ((1, 1, 1, 1, 1, 1), -12),
        ((0, 1, 0, 0, 1, 4), -4),
    ]
    for e, want in probes:
        got = f.coefficient(e)
        if got != want:
            return FAIL, {"exponents": list(e), "computed": str(got), "expected": str(want)}
    return PASS, {}


@check(
    "sextic.group-invariance",
    {"epw"},
    "the sextic is fixed exactly by all three group generators",
)
def _sextic_invariance(ctx):
    f = ctx.sextic_fixture
    for name, g in zip(("a", "c", "s"), ctx.generators):
        if substitute_linear(f.terms, group._v6_matrix(g)) != f.terms:
            return FAIL, {"generator": name}
    return PASS, {}


# ---------------------------------------------------------------------------
# group checks
# ---------------------------------------------------------------------------


@check(
    "group.borel-55",
    {"group"},
    "the order-5 and order-11 generators close to exactly 55 matrices",
)
def _borel(ctx):
    a, c, _ = ctx.generators
    t = group.generate_group([a, c])
    return _bool(len(t) == 55, {"size": len(t)}, {"size": len(t)})


@check(
    "group.weil-normalization",
    {"group", "fast"},
    "the Fourier-type generator has determinant 1, order 2 and trace 1",
)
def _weil(ctx):
    s = ctx.generators[2]
    det = linalg.det(s)
    order = group.mat_order(s)
    trace = linalg.trace(s)
    ok = det == 1 and order == 2 and trace == 1
    return _bool(ok, {}, {"det": repr(det), "order": order, "trace": repr(trace)})


@check(
    "group.closure-660",
    {"group", "fast"},
    "the three generators close to exactly 660 matrices = 660 projective classes",
)
def _closure(ctx):
    t = ctx.table
    proj = t.projective_class_count()
    ok = len(t) == 660 and proj == 660
    return _bool(ok, {"matrices": len(t)}, {"matrices": len(t), "projective": proj})


@check(
    "group.class-sizes",
    {"group", "fast"},
    "conjugacy class sizes form the multiset {1,60,60,132,132,110,110,55}",
)
def _classes(ctx):
    sizes = sorted(len(c) for c in ctx.labeled.values())
    want = sorted(s for _, _, s in fixtures.CLASS_DATA)
    return _bool(sizes == want, {"sizes": sizes}, {"sizes": sizes, "expected": want})


@check(
    "group.order-profile",
    {"group", "fast"},
    "element orders per class are (1, 11, 11, 5, 5, 6, 3, 2)",
)
def _orders(ctx):
    labeled = ctx.labeled
    got = {}
    for label, order, size in fixtures.CLASS_DATA:
        cls = labeled.get(label)
        if cls is None:
            return FAIL, {"missing-class": label}
        o = ctx.table.element_order(cls[0])
        got[label] = o
        if o != order or len(cls) != size:
            return FAIL, {"class": label, "order": o, "size": len(cls)}
    return PASS, {"orders": got}


@check(
    "chartable.rows",
    {"group", "fast"},
    "character rows (trivial, 5-dim, dual 5-dim, wedge-square) match exactly",
)
def _chartable(ctx):
    rows = fixtures.character_rows()
    for name in CHARACTER_ROWS:
        for (lab, _, _), want in zip(fixtures.CLASS_DATA, rows[name]):
            got = character_value(ctx, name, lab)
            if got != want:
                return FAIL, {
                    "row": name,
                    "class": lab,
                    "computed": cyclo_json(got),
                    "expected": cyclo_json(want),
                }
    return PASS, {}


@check(
    "chartable.lambda-identities",
    {"group", "fast"},
    "the residue sum satisfies L^2 + L + 3 = 0, L conj(L) = 3, L + conj(L) = -1",
)
def _lambda(ctx):
    lam = lambda_embed()
    ok = lam * lam + lam + 3 == 0 and lam * lam.conj() == 3 and lam + lam.conj() == -1
    return _bool(ok, {"lambda": cyclo_json(lam)}, {"lambda": cyclo_json(lam)})


@check(
    "group.eigenvalue-exponents",
    {"group"},
    "diagonal generator exponents are exactly the nonzero squares mod 11",
)
def _exponents(ctx):
    squares = sorted({(k * k) % 11 for k in range(1, 11)})
    exponents = [1, 4, 5, 9, 3]
    c = ctx.generators[1]
    z = CycloNum.zeta(11)
    diag_ok = all(c[i][i] == z ** e for i, e in enumerate(exponents))
    return _bool(sorted(exponents) == squares and diag_ok, {"exponents": exponents},
                 {"exponents": exponents, "squares": squares, "diagonal-match": diag_ok})


@check(
    "group.character-orthogonality",
    {"group"},
    "sum over the group of |character|^2 equals 660 for each irreducible row",
)
def _orthogonality(ctx):
    for f in (group.functor_xi(), group.functor_xi_dual(), group.functor_wedge2()):
        total = None
        for cls in ctx.labeled.values():
            v = group.character(f, ctx.table, cls[0])
            term = v * v.conj() * len(cls)
            total = term if total is None else total + term
        if total != 660:
            return FAIL, {"functor": f.name, "sum": repr(total)}
    return PASS, {}


@check(
    "group.wedge-character-identity",
    {"group"},
    "wedge-square character equals (chi(g)^2 - chi(g^2))/2 on every class",
)
def _wedge_identity(ctx):
    xi = group.functor_xi()
    w2 = group.functor_wedge2()
    for cls in ctx.labeled.values():
        idx = cls[0]
        lhs = group.character(w2, ctx.table, idx)
        chi = group.character(xi, ctx.table, idx)
        chi2 = group.character(xi, ctx.table, ctx.table.square_index(idx))
        if lhs * 2 != chi * chi - chi2:
            return FAIL, {"class-rep-order": ctx.table.element_order(idx)}
    return PASS, {}


@check(
    "quadric.trivial-multiplicity",
    {"group", "fast"},
    "the symmetric square of the wedge square contains the trivial character once",
)
def _quadric_mult(ctx):
    m = group.trivial_multiplicity(group.functor_sym2_wedge2(), ctx.table)
    witness = {"multiplicity": m}
    extra = group.trivial_multiplicity(group.functor_xi(), ctx.table)
    witness["xi-multiplicity"] = extra
    return _bool(m == 1 and extra == 0, witness, witness)


@check(
    "quadric.invariance",
    {"group", "fast", "epw"},
    "the pinned quadric on 2-vectors is fixed by all three generators",
)
def _quadric_invariance(ctx):
    q = fixtures.invariant_quadric()
    for name, w in zip("acs", ctx.wedge2_generators):
        if substitute_linear(q.terms, w) != q.terms:
            return FAIL, {"generator": name}
    return PASS, {}


@check(
    "lefschetz.surface-counts",
    {"group", "fast"},
    "surface fixed-point counts for orders 11, 5, 6, 3 are 5, 2, 3, 3",
)
def _lefschetz(ctx):
    want = fixtures.SURFACE_FIXED_COUNTS
    got = {}
    for lab, order in (("c", 11), ("a", 5), ("b", 6), ("b2", 3)):
        got[order] = group.lefschetz_surface_count(ctx.table, ctx.labeled[lab][0])
    return _bool(got == want, {"counts": got}, {"counts": got, "expected": want})


@check(
    "invform.group-sum",
    {"group"},
    "the summed conjugate-transpose form is Hermitian, invariant, positive definite",
)
def _invform(ctx):
    m = ctx.invariant_form
    if m is None:
        return FAIL, {"stage": "unitary"}
    if not linalg.is_hermitian(m):
        return FAIL, {"stage": "hermitian"}
    if not group.hermitian_invariance_check(m, ctx.wedge2_generators):
        return FAIL, {"stage": "invariance"}
    if not group.hermitian_positive_definite(m):
        return FAIL, {"stage": "positive-definite"}
    return PASS, {"dimension": len(m)}


@check(
    "group.stabilizers",
    {"group"},
    "point stabilizers: the vertex is fixed by all 660, a coordinate point by 11",
)
def _stabilizers(ctx):
    e0 = [[1], [0], [0], [0], [0], [0]]
    e1 = [[0], [1], [0], [0], [0], [0]]
    s0 = len(group.stabilizer(ctx.table, e0))
    s1 = len(group.stabilizer(ctx.table, e1))
    ok = s0 == 660 and s1 == 11
    return _bool(ok, {"vertex": s0, "coordinate-point": s1},
                 {"vertex": s0, "coordinate-point": s1})


# ---------------------------------------------------------------------------
# strata / GM dimensions / lines
# ---------------------------------------------------------------------------


@check(
    "stratum.coordinate-points",
    {"fast", "epw"},
    "intersection dimensions: 0 at the vertex, 2 at the five coordinate points",
)
def _strata(ctx):
    A = ctx.lagrangian
    got = [epw.stratum(A, [1, 0, 0, 0, 0, 0])]
    for i in range(1, 6):
        x = [0] * 6
        x[i] = 1
        got.append(epw.stratum(A, x))
    ok = got == [0, 2, 2, 2, 2, 2]
    return _bool(ok, {"strata": got}, {"strata": got})


@check(
    "gm.dimensions",
    {"fast", "epw"},
    "hyperplane sections: one pencil gives dimension 5, the others dimension 3",
)
def _gm_dims(ctx):
    A = ctx.lagrangian
    dims = []
    for j in range(6):
        cov = [0] * 6
        cov[j] = 1
        dims.append(epw.gm_dimension(A, cov))
    ok = dims[0] == 5 and all(d == 3 for d in dims[1:])
    return _bool(ok, {"dimensions": dims}, {"dimensions": dims})


@check(
    "selfdual.check",
    {"fast", "epw"},
    "the sign-flip duality carries the Lagrangian onto its annihilator",
)
def _selfdual(ctx):
    A = ctx.lagrangian
    direct = epw.self_duality_check(A)
    oracle = epw.self_duality_oracle(A)
    return _bool(direct and oracle, {}, {"direct": direct, "oracle": oracle})


@check(
    "epw.dual-rebuild",
    {"epw"},
    "rebuilding from the dual representation returns the same Lagrangian",
)
def _dual_rebuild(ctx):
    ok = epw.dual_rebuild_check(list(ctx.generators))
    return _bool(ok, {}, {"intertwining-or-span": "mismatch"})


@check(
    "line5.restriction",
    {"fast", "epw"},
    "the order-5 line section is s^6+10s^3t^3-12st^5+5t^6 with root pattern (2,2,1,1)",
)
def _line5(ctx):
    f = ctx.sextic_fixture
    g = epw.restrict_to_line(f, [1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1])
    if g != fixtures.order5_line_poly():
        return FAIL, {"restriction": emit_polynomial(g, ["s", "t"])}
    pol, inf = epw.dehomogenize(g)
    common = gcd(pol, pol.derivative(0))
    want_gcd = MultiPoly(1, {(2,): 1, (1,): 1, (0,): -1})
    pattern = sorted(
        m for fac, m in squarefree_decomposition(pol) for _ in range(fac.total_degree())
    )
    ok = common == want_gcd and pattern == [1, 1, 2, 2] and inf == 0
    return _bool(
        ok,
        {"pattern": pattern, "double-root-factor": "u^2 + u - 1"},
        {"pattern": pattern, "gcd": repr(common)},
    )


@check(
    "line2.squarefree",
    {"fast", "epw"},
    "the order-2 fixed line meets the sextic in 6 distinct points",
)
def _line2(ctx):
    s6 = group._v6_matrix(ctx.generators[2])
    _, components = epw.sextic_fixed_point_count(s6, ctx.lagrangian, ctx.sextic_fixture)
    for _, dim, pattern in components:
        if dim == 2:
            return _bool(pattern == [1] * 6, {"pattern": pattern}, {"pattern": pattern})
    return FAIL, {"error": "no 2-dimensional eigenspace found"}


@check(
    "stratum.random-consistency",
    {"epw"},
    "for seeded random rational points: stratum >= 1 iff the sextic vanishes",
)
def _random_consistency(ctx):
    rng = random.Random(ctx.seed)
    A = ctx.lagrangian
    f = ctx.sextic_fixture
    checked = 0
    on_sextic = 0
    while checked < 500:
        x = [rng.randint(-3, 3) for _ in range(6)]
        if not any(x):
            continue
        val = f.evaluate(x)
        ell = epw.stratum(A, x)
        if (ell >= 1) != (val == 0):
            return FAIL, {"point": [frac_str(c) for c in x], "stratum": ell,
                          "value": frac_str(val)}
        checked += 1
        if ell:
            on_sextic += 1
    return PASS, {"points": checked, "on-sextic": on_sextic}


@check(
    "fixedpoints.sextic-counts",
    {"epw"},
    "fixed points on the sextic: 5 for order 11, 8 for order 5 (15, 7 for 3, 6 when slow)",
)
def _fixed_counts(ctx):
    A = ctx.lagrangian
    f = ctx.sextic_fixture
    plan = [("c", 11), ("a", 5)]
    if ctx.slow:
        plan += [("b2", 3), ("b", 6)]
    got = {}
    for lab, order in plan:
        g6 = group._v6_matrix(group.class_representative(ctx.generators, lab))
        count, _ = epw.sextic_fixed_point_count(g6, A, f)
        got[order] = count
        if count != fixtures.SEXTIC_FIXED_COUNTS[order]:
            return FAIL, {"order": order, "computed": count,
                          "expected": fixtures.SEXTIC_FIXED_COUNTS[order]}
    return PASS, {"counts": got, "slow-tier": ctx.slow}


# ---------------------------------------------------------------------------
# lattice checks
# ---------------------------------------------------------------------------


@check(
    "lattice.hperp-disc",
    {"lattice"},
    "the rank-22 polarization complement has discriminant (Z/2)^2, q = (-1/2, -1/2)",
)
def _hperp(ctx):
    L = lattices.parse_lattice_spec("U+U+E8(-1)+E8(-1)+(-2)+(-2)")
    D = lattices.disc_group(L)
    target = lattices.FiniteQuadraticForm(
        (2, 2), [[Fraction(-1, 2), 0], [0, Fraction(-1, 2)]]
    )
    ok = L.rank == 22 and D.orders == (2, 2) and D.is_isomorphic(target)
    return _bool(ok, {"orders": list(D.orders)}, {"orders": list(D.orders)})


@check(
    "lattice.eleven-squared-disc",
    {"lattice"},
    "the negative definite rank-20 assembly has discriminant (Z/11)^2 ~ (-2/11, -2/11)",
)
def _disc11(ctx):
    K = lattices.Lattice([[-2, -1], [-1, -6]])
    L = lattices.parse_lattice_spec("E8(-1)+E8(-1)+[[-2,-1],[-1,-6]]+[[-2,-1],[-1,-6]]")
    D = lattices.disc_group(L)
    target = lattices.FiniteQuadraticForm(
        (11, 11), [[Fraction(-2, 11), 0], [0, Fraction(-2, 11)]]
    )
    single = lattices.disc_group(K).is_isomorphic(
        lattices.FiniteQuadraticForm((11,), [[Fraction(-2, 11)]])
    )
    ok = sorted(D.orders) == [11, 11] and D.is_isomorphic(target) and single
    return _bool(ok, {"orders": sorted(D.orders)}, {"orders": sorted(D.orders)})


@check(
    "lattice.norm2-vectors",
    {"lattice"},
    "the invariant rank-3 lattice has exactly one pair of square-2 vectors, "
    "complement (22)+(22)",
)
def _norm2(ctx):
    M = lattices.parse_lattice_spec("[[2,1],[1,6]]+(22)")
    v2 = sorted(lattices.vectors_of_norm(M, 2))
    if v2 != [(-1, 0, 0), (1, 0, 0)]:
        return FAIL, {"vectors": [list(v) for v in v2]}
    comp, basis = lattices.orthogonal_complement(M, (1, 0, 0))
    D = lattices.disc_group(comp)
    ok = comp.det() == 484 and sorted(D.orders) == [22, 22]
    return _bool(ok, {"complement-gram": [list(r) for r in comp.gram]},
                 {"complement-gram": [list(r) for r in comp.gram]})


@check(
    "lattice.picard-no-isotropic",
    {"lattice"},
    "the rank-21 Picard assembly has no nontrivial isotropic discriminant elements",
)
def _picard(ctx):
    L = lattices.parse_lattice_spec("(2)+E8(-1)+E8(-1)+[[-2,-1],[-1,-6]]+[[-2,-1],[-1,-6]]")
    iso = lattices.disc_group(L).isotropic_elements()
    return _bool(
        L.rank == 21 and iso == [],
        {"rank": L.rank, "isotropic": 0},
        {"rank": L.rank, "isotropic": [list(x) for x in iso[:3]]},
    )


@check(
    "lattice.gluing-isometries",
    {"lattice"},
    "exactly two isometries glue the 2-torsion of Disc((22)^2) to Disc((-2)^2)",
)
def _gluing(ctx):
    tor = lattices.disc_group(lattices.parse_lattice_spec("(22)+(22)")).torsion_subform(2)
    target = lattices.disc_group(lattices.parse_lattice_spec("(-2)+(-2)"))
    isoms = tor.isometries(target)
    return _bool(len(isoms) == 2, {"count": len(isoms)}, {"count": len(isoms)})


@check(
    "lattice.hodge-rank22",
    {"lattice"},
    "the maximal Hodge assembly has rank 22 and signature (2, 20)",
)
def _hodge(ctx):
    L = lattices.parse_lattice_spec("(2)+(2)+E8(-1)+E8(-1)+[[-2,-1],[-1,-6]]+[[-2,-1],[-1,-6]]")
    sig = L.signature()
    return _bool(L.rank == 22 and sig == (2, 20),
                 {"rank": L.rank, "signature": list(sig)},
                 {"rank": L.rank, "signature": list(sig)})


@check(
    "lattice.e8-roots",
    {"lattice"},
    "the even unimodular rank-8 lattice has 240 vectors of square -2",
)
def _e8roots(ctx):
    roots = lattices.vectors_of_norm(lattices.e8(-1), -2)
    closed = {tuple(-c for c in v) for v in roots} == set(roots)
    return _bool(len(roots) == 240 and closed, {"count": len(roots)},
                 {"count": len(roots)})


@check(
    "lattice.representability",
    {"lattice"},
    "diag(-4,-4,-6,-8) represents every even value in [-200, -4] and not -2",
)
def _repr4(ctx):
    L = lattices.parse_lattice_spec("(-4)+(-4)+(-6)+(-8)")
    norms, _ = lattices.represented_norms(L, 200)
    if -2 in norms:
        return FAIL, {"unexpected": -2}
    missing = [v for v in range(-200, -3, 2) if v not in norms]
    return _bool(not missing, {"range": "[-200, -4]"}, {"missing": missing[:5]})


@check(
    "lattice.primitive-representability",
    {"lattice"},
    "diag(-4,-4,-4,-6,-8) primitively represents -d/4 for every 8 | d, 8 < d <= 400",
)
def _repr5(ctx):
    L = lattices.parse_lattice_spec("(-4)+(-4)+(-4)+(-6)+(-8)")
    _, prim = lattices.represented_norms(L, 100)
    missing = [d for d in range(16, 401, 8) if (-d) // 4 not in prim]
    return _bool(not missing, {"count": len(range(16, 401, 8))}, {"missing": missing[:5]})


# ---------------------------------------------------------------------------
# hermitian checks
# ---------------------------------------------------------------------------


@check(
    "hermitian.rank5-form",
    {"hermitian"},
    "the rank-5 Hermitian matrix is conjugate-symmetric, positive definite, det 1",
)
def _hprime(ctx):
    H = fixtures.hprime_matrix()
    det = hermitian.herm_det(H)
    definite = linalg.is_hermitian(H) and hermitian.is_positive_definite(H)
    return _bool(definite and det == 1, {"det": det}, {"det": det, "positive-definite": definite})


@check(
    "hermitian.wedge-square-match",
    {"hermitian"},
    "the induced rank-10 form matches the transcribed matrix in all 100 entries",
)
def _mat10(ctx):
    ok, witness = hermitian.matches_mat10(ctx.hermitian_wedge_square)
    if ok:
        return PASS, {}
    i, j, got, want = witness
    return FAIL, {"entry": [i, j], "computed": quadint_json(got), "expected": quadint_json(want)}


@check(
    "hermitian.wedge-square-principal",
    {"hermitian"},
    "the induced rank-10 form is positive definite with determinant 1",
)
def _mat10_principal(ctx):
    det = ctx.wedge_square_invariants[0]
    return _bool(det == 1, {"det": det}, {"det": det})


@check(
    "hermitian.binomial-invariants",
    {"hermitian"},
    "polarization invariants of the identity are the binomial coefficients",
)
def _binomials(ctx):
    ident = tuple(
        tuple(QuadInt(1 if i == j else 0) for j in range(10)) for i in range(10)
    )
    inv = hermitian.polarization_invariants(ident)
    want = hermitian.binomial_invariants(10)
    return _bool(inv == want, {"invariants": inv}, {"invariants": inv, "expected": want})


# ---------------------------------------------------------------------------
# groebner checks
# ---------------------------------------------------------------------------


def _at_primes(ctx, gate, budget_witness=None):
    """Run a finite-field gate at each of the context's primes.  gate(p) returns
    None when it passes at p, else the failure witness; a spent budget
    stops the check with its progress and any budget_witness entries."""
    verified = []
    for p in ctx.primes:
        try:
            failure = gate(p)
        except BudgetExhausted as e:
            witness = {"prime": p, "detail": str(e), "progress": e.progress()}
            return BUDGET, {**witness, **(budget_witness or {})}
        if failure is not None:
            return FAIL, failure
        verified.append(p)
    return PASS, {"verified-at-primes": verified}


def _smooth_at_primes(ctx, gens, codim, max_pairs, budget_witness=None):
    # the minors are expanded, checked and packed once, for every prime, and each
    # prime after the first replays the first one's trace
    minors, trace = jacobian_minors(gens, codim, ctx.budget_degree), []

    def gate(p):
        ok, info = smoothness_check(gens, codim, p, max_pairs=max_pairs,
                                    max_degree=ctx.budget_degree, minors=minors, trace=trace)
        return None if ok else {"prime": p, "info": info}

    return _at_primes(ctx, gate, budget_witness)


@check(
    "groebner.no-decomposable-vectors",
    {"groebner"},
    "the Lagrangian contains no decomposable vectors (empty pullback cone)",
)
def _decomposable(ctx):
    gens, trace = decomposable_pullback_ideal(), []

    def gate(p):
        empty, _ = projective_empty(distinct_mod(gens, p), max_pairs=ctx.budget_pairs,
                                    max_degree=ctx.budget_degree, trace=trace)
        return None if empty else {"prime": p}

    return _at_primes(ctx, gate)


@check(
    "groebner.threefold-smooth",
    {"groebner"},
    "the degree-10 Fano threefold section is smooth (codimension-4 Jacobian check)",
)
def _x3smooth(ctx):
    return _smooth_at_primes(ctx, gm_threefold_ideal(), 4, ctx.budget_pairs)


@check(
    "groebner.fivefold-smooth",
    {"groebner"},
    "slow tier: the fivefold section is smooth (codimension-4 Jacobian check)",
)
def _x5smooth(ctx):
    if not ctx.slow:
        return SKIP, {"reason": "slow tier; rerun with --slow"}
    return _smooth_at_primes(ctx, gm_fivefold_ideal(), 4, ctx.budget_pairs)


# explicit tier budget for the singular-surface check
SURFACE_BUDGET_PAIRS = 5000


@check(
    "groebner.singular-surface-smooth",
    {"groebner"},
    "slow tier: the singular locus of the sextic is a smooth surface",
)
def _sing_smooth(ctx):
    if not ctx.slow:
        return SKIP, {"reason": "slow tier; rerun with --slow"}
    return _smooth_at_primes(ctx, sextic_singular_locus_ideal(), 3, SURFACE_BUDGET_PAIRS,
                             {"tier-budget-pairs": SURFACE_BUDGET_PAIRS})


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

SUITES = ("fast", "group", "epw", "lattice", "hermitian", "groebner", "all")


def run_check(fn, ctx):
    """(verdict, witness) of one check; a spent budget or an exception too."""
    try:
        return fn(ctx)
    except BudgetExhausted as e:
        return BUDGET, {"detail": str(e)}
    except Exception as e:  # noqa: BLE001 - verdicts must not crash the driver
        return FAIL, {"error": f"{type(e).__name__}: {e}"}


def run_suite(suite, ctx=None):
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if ctx is None:
        ctx = VerifyContext()
    reports = []
    for check_id, suites, statement, fn in sorted(CHECKS, key=lambda c: c[0]):
        if suite != "all" and suite not in suites:
            continue
        start = time.monotonic()
        verdict, witness = run_check(fn, ctx)
        reports.append(VerificationReport(check_id, statement, verdict, witness,
                                          time.monotonic() - start))
    return reports


def exit_code(reports):
    return 0 if all(r.verdict in (PASS, SKIP) for r in reports) else 1
