"""Workload definitions and the seeded request generator.

Nothing here imports the package under test: expected answers come from
the construction of each input (a direct sum's rank and determinant, a
triangular ideal's empty zero set), not from the code being measured.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# -- verify suites -----------------------------------------------------

# Check ids each suite reports at the time the benchmark was written.  A
# listed check that is missing from a report counts as failed; a check
# not listed here is still required to pass.
SUITE_CHECKS = {
    "group": (
        "chartable.lambda-identities", "chartable.rows", "group.borel-55",
        "group.character-orthogonality", "group.class-sizes", "group.closure-660",
        "group.eigenvalue-exponents", "group.order-profile", "group.stabilizers",
        "group.wedge-character-identity", "group.weil-normalization",
        "invform.group-sum", "lefschetz.surface-counts", "quadric.invariance",
        "quadric.trivial-multiplicity",
    ),
    "groebner": (
        "groebner.fivefold-smooth", "groebner.no-decomposable-vectors",
        "groebner.singular-surface-smooth", "groebner.threefold-smooth",
    ),
    "epw": (
        "epw.dual-rebuild", "fixedpoints.sextic-counts", "gm.dimensions",
        "line2.squarefree", "line5.restriction", "quadric.invariance",
        "selfdual.check", "sextic.coefficient-examples", "sextic.fixture-match",
        "sextic.group-invariance", "sextic.route-agreement", "sextic.term-count",
        "stratum.coordinate-points", "stratum.random-consistency",
    ),
}

# Without --slow these two checks report "skipped"; every other check passes.
SLOW_ONLY = frozenset({"groebner.fivefold-smooth", "groebner.singular-surface-smooth"})

# VerifyContext properties each suite uses, in the order the traced run
# builds them, and the metric each build is reported under.
BUILD_METRICS = {
    "table": "verify.build.table_s",
    "labeled": "verify.build.labeled_s",
    "lagrangian": "verify.build.lagrangian_s",
    "sextic_derived": "verify.build.sextic_s",
    "sextic_interpolated": "verify.build.sextic_interp_s",
    "invariant_form": "verify.build.invform_s",
}

WORKLOADS = {
    "verify-group": {"suite": "group", "builds": ("table", "labeled", "invariant_form")},
    "verify-groebner": {"suite": "groebner", "builds": ()},
    "verify-epw": {
        "suite": "epw",
        "builds": ("lagrangian", "sextic_derived", "sextic_interpolated", "table", "labeled"),
    },
    "queries": {"suite": None, "builds": ()},
}


def expected_verdict(check_id):
    return "skipped" if check_id in SLOW_ONLY else "pass"


def verify_argv(suite, seed):
    return ["--json", "--seed", str(seed), "verify", suite]


# -- queries -----------------------------------------------------------

PRIME = 32003
ROUNDS_PER_UNIT = 9  # a multiple of 3, so each Hermitian check runs equally often
HERMITIAN_CHECKS = ("hprime", "mat10", "principal")

# Points of the transcribed sextic with small integer coordinates (found
# by exhaustive search over [-2, 2]^6); a seeded rational multiple of one
# of them is a rational point on the sextic.
SEXTIC_POINTS = (
    (0, 0, 2, -1, 2, 2), (0, 2, 0, 2, -1, 2), (1, -1, -1, 0, -1, 1),
    (1, 0, -1, 1, -1, -1), (1, 0, 1, 1, 1, 1), (1, 1, 0, 1, 1, 1),
    (2, -2, -2, -1, -1, 0), (2, -2, 2, -2, -2, 0), (2, 0, -2, -2, -1, -1),
    (2, 0, 0, 2, 2, -2), (2, 2, -2, -2, 0, -2), (2, 2, 0, 2, 2, 2),
)

# The E8 root lattice as the package documents it: a chain of seven nodes
# with an eighth node attached to the fifth.
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def e8_gram(sign):
    g = [[2 * sign if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        g[i][j] = g[j][i] = -sign
    return g


def det(matrix):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def block_sum(grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i, row in enumerate(g):
            out[off + i][off:off + len(row)] = row
        off += len(g)
    return out


def _json_gram(rng, sign=None, size=None):
    """A small nondegenerate symmetric Gram matrix; positive definite
    times `sign` when a sign is given."""
    size = size or rng.choice((2, 2, 3))
    while True:
        if sign is None:
            g = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
            if det(g) != 0:
                return g
        else:
            a, c = rng.randint(2, 6), rng.randint(2, 8)
            b = rng.randint(-2, 2)
            if a * c > b * b:
                return [[sign * a, sign * b], [sign * b, sign * c]]


def _summand(rng, kind, sign=None):
    """(spec text, Gram matrix) of one summand of the documented grammar;
    with a sign, a definite summand of that sign."""
    if kind == "U":
        return "U", [[0, 1], [1, 0]]
    if kind == "E8":
        s = sign if sign is not None else rng.choice((1, -1))
        text = "E8(-1)" if s < 0 else rng.choice(("E8", "E8(1)"))
        return text, e8_gram(s)
    if kind == "rank1":
        k = rng.randint(2, 12) * (sign if sign is not None else rng.choice((1, -1)))
        return f"({k})", [[k]]
    g = _json_gram(rng, sign)
    return json.dumps(g, separators=(",", ":")), g


# Summand kinds of each lattice request shape; "small" stands for U, a
# rank-1 form or a JSON Gram matrix (definite ones in the short shapes).
# The summands of the indefinite shapes come in seeded order; the short
# shapes keep this order, which the enumeration time depends on.
LATTICE_SHAPES = {
    "small": ("small", "small"),
    "large": ("E8", "small", "small"),
    "larger": ("E8", "E8", "small"),
    "short-e8-first": ("E8", "small"),
    "short-e8-last": ("small", "E8"),
    "short-small": ("small", "small", "small"),
}


def lattice_request(rng, shape, json_first=False):
    """A `lattice` request on a seeded direct sum of the given shape.  The
    short shapes are definite and enumerate short vectors up to a bound.
    With `json_first`, the spec starts with a JSON Gram summand; otherwise
    it does not."""
    short = shape.startswith("short")
    sign = rng.choice((1, -1)) if short else None
    kinds = []
    for kind in LATTICE_SHAPES[shape]:
        if kind == "small":
            kind = rng.choice(("rank1", "json") if short else ("U", "rank1", "json"))
        kinds.append(kind)
    if not short:
        rng.shuffle(kinds)
    if json_first:
        kinds.insert(0, "json")
    elif kinds[0] == "json":
        others = [i for i, k in enumerate(kinds) if k != "json"]
        if others:
            kinds.insert(0, kinds.pop(others[0]))
        else:
            kinds[0] = "rank1"
    parts = [_summand(rng, kind, sign) for kind in kinds]
    spec = "+".join(text for text, _ in parts)
    gram = block_sum([g for _, g in parts])
    argv = ["--json", "lattice", "--spec", spec]
    bound = None
    if short:
        bound = 2 if "E8" in LATTICE_SHAPES[shape] else rng.randint(4, 8)
        argv += ["--short-vectors", str(bound)]
    expect = {"rank": len(gram), "det": int(det(gram)), "gram": gram, "bound": bound,
              "json_first": json_first}
    return {"kind": "lattice", "argv": argv, "expect": expect}


def stratum_request(rng, base):
    """A `stratum` request at a seeded rational multiple of `base`, or of
    a small random integer vector when `base` is None."""
    while base is None or not any(base):
        base = [rng.randint(-3, 3) for _ in range(6)]
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
    point = [_frac_str(scale * c) for c in base]
    return {"kind": "stratum", "argv": ["--json", "stratum", "--point=" + ",".join(point)],
            "expect": {"point": point}}


def _stratum_bases(rng):
    """Five points a round: one on the sextic, one coordinate point, three
    random."""
    coordinate = [0] * 6
    coordinate[rng.randrange(6)] = 1
    return [list(rng.choice(SEXTIC_POINTS)), coordinate, None, None, None]


def _frac_str(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- small empty ideals ------------------------------------------------


def _pmul(a, b, p):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def _padd(a, b, p):
    out = dict(a)
    for e, c in b.items():
        out[e] = (out.get(e, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def _monomials(nvars, degree, first):
    """Exponent tuples of the given degree supported on variables >= first."""
    if first == nvars - 1:
        e = [0] * nvars
        e[first] = degree
        return [tuple(e)]
    out = []
    for k in range(degree, -1, -1):
        for tail in _monomials(nvars, degree - k, first + 1):
            e = list(tail)
            e[first] = k
            out.append(tuple(e))
    return out


def _invertible_mod(m, p):
    m = [[x % p for x in row] for row in m]
    n = len(m)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return False
        m[c], m[pivot] = m[pivot], m[c]
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            m[r] = [(a - f * b) % p for a, b in zip(m[r], m[c])]
    return True


def _poly_text(poly, p):
    def mono(e):
        return "*".join(f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k)

    out = []
    for e in sorted(poly, reverse=True):
        c = poly[e] if poly[e] <= p // 2 else poly[e] - p
        sign = "-" if c < 0 else "+"
        c = abs(c)
        body = mono(e) if c == 1 else f"{c}*{mono(e)}"
        out.append(f"{sign} {body}")
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# Degrees of the generators of each small ideal, one per variable; two
# groebner requests a round take the shapes in turn.
IDEAL_SHAPES = ((2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (3, 2, 2, 2), (3, 3, 2, 2),
                (2, 2, 2, 2, 2))


def empty_ideal(rng, degrees, p=PRIME):
    """Generators of a homogeneous ideal with empty projective zero set:
    the triangular system x_i^d_i + (a form in x_{i+1}, ...), whose only
    common zero is the origin, under a seeded coordinate change that is
    invertible mod p."""
    n = len(degrees)
    gens = []
    for i, d in enumerate(degrees):
        e = [0] * n
        e[i] = d
        f = {tuple(e): 1}
        if i < n - 1:
            tail = _monomials(n, d, i + 1)
            for mono in rng.sample(tail, min(len(tail), rng.randint(1, 3))):
                f[mono] = rng.randint(1, p - 1)
        gens.append(f)
    while True:
        change = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if _invertible_mod(change, p):
            break
    images = [{tuple(int(k == j) for k in range(n)): change[i][j] % p
               for j in range(n) if change[i][j] % p} for i in range(n)]
    out = []
    for f in gens:
        g = {}
        for e, c in f.items():
            term = {(0,) * n: c}
            for i, k in enumerate(e):
                for _ in range(k):
                    term = _pmul(term, images[i], p)
            g = _padd(g, term, p)
        out.append(_poly_text(g, p))
    return {"variables": n, "prime": p, "generators": out}


def queries_requests(seed, unit, workdir):
    """The seeded request list of one `queries` process: ROUNDS_PER_UNIT
    rounds of 14 requests in seeded order.  The shapes in a round are
    fixed, so every seed asks for the same amount of work; the seed picks
    the points, summands, bounds, coefficients and order.  A round holds
    five stratum requests, four lattice requests (a small one, one with E8
    summands, and two definite sums with E8 and short vectors), one more
    lattice request whose spec starts with a JSON Gram summand, one
    Hermitian check (the three take turns), one emit-sextic and two
    groebner requests."""
    rng = random.Random(f"queries/{seed}/{unit}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    requests = []
    for r in range(ROUNDS_PER_UNIT):
        batch = [stratum_request(rng, base) for base in _stratum_bases(rng)]
        shapes = ("small" if r % 2 == 0 else "short-small",
                  "larger" if r % 3 == 2 else "large", "short-e8-first", "short-e8-last")
        batch += [lattice_request(rng, shape) for shape in shapes]
        batch.append(lattice_request(rng, rng.choice(sorted(LATTICE_SHAPES)), json_first=True))
        check = HERMITIAN_CHECKS[r % 3]
        batch.append({"kind": "hermitian", "argv": ["--json", "hermitian", "--check", check],
                      "expect": {"check": check}})
        batch.append({"kind": "emit-sextic", "argv": ["emit-sextic"], "expect": {}})
        for slot in range(2):
            degrees = IDEAL_SHAPES[(2 * r + slot) % len(IDEAL_SHAPES)]
            path = workdir / f"ideal-{seed}-{unit}-{r}-{slot}.json"
            path.write_text(json.dumps(empty_ideal(rng, degrees)), encoding="utf-8")
            batch.append({"kind": "groebner", "argv": ["groebner", "--file", str(path)],
                          "expect": {}})
        rng.shuffle(batch)
        requests.extend(batch)
    return requests
