"""Command-line surface.

Subcommands: verify, emit-sextic, char-table, fixed-points, stratum,
lattice, hermitian, groebner.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error.  All exact values in JSON output are
strings (decimal integers or "num/den"), never floats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import epw, fixtures, group, hermitian, lattices, verify
from .groebner import (
    BudgetExhausted,
    FPoly,
    projective_empty_with_basis,
    smoothness_check,
)
from .textform import PolyParseError, emit_polynomial, parse_polynomial, poly_monomials_json
from .verify import cyclo_json, frac_str, quadint_json


def _is_prime(n):
    """Primality by trial division (the CLI's primes are small)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _int_arg(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _prime_arg(text):
    value = _int_arg(text)
    if not _is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not a prime")
    return value


def _budget_arg(text):
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="klein-epw",
        description="exact reconstruction and verification of the Klein EPW sextic "
        "and its order-660 symmetry group",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized property checks")
    parser.add_argument("--budget-pairs", type=_budget_arg, default=500000)
    parser.add_argument("--budget-degree", type=_budget_arg, default=48)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=verify.SUITES)
    p_verify.add_argument("--slow", action="store_true", help="include the slow tier")
    p_verify.add_argument(
        "--prime", type=_prime_arg, action="append", default=None,
        help="prime(s) for the finite-field checks (repeatable)",
    )

    p_sextic = sub.add_parser("emit-sextic", help="print the canonical sextic")
    p_sextic.add_argument("--format", choices=("text", "json"), default="text")

    sub.add_parser("char-table", help="emit the class and character data")

    p_fix = sub.add_parser("fixed-points", help="fixed-point report for one element order")
    p_fix.add_argument("--order", type=int, required=True, choices=(2, 3, 5, 6, 11))

    p_str = sub.add_parser("stratum", help="stratum of a rational point")
    p_str.add_argument("--point", required=True,
                       help="six comma-separated rationals, e.g. 1,0,0,0,0,0")

    p_lat = sub.add_parser("lattice", help="discriminant data of a lattice")
    p_lat.add_argument("--spec", required=True,
                       help='symbolic sum like "U+U+E8(-1)+(-2)" or a JSON Gram matrix')
    p_lat.add_argument("--short-vectors", type=int, default=None, metavar="BOUND",
                       help="also enumerate vectors with |norm| <= BOUND")

    p_herm = sub.add_parser("hermitian", help="checks for the Hermitian forms")
    p_herm.add_argument("--check", required=True, choices=("hprime", "mat10", "principal"))

    p_gb = sub.add_parser("groebner", help="finite-field ideal checks")
    p_gb.add_argument("--file", required=True, help="ideal description (JSON)")
    p_gb.add_argument("--prime", type=_prime_arg, default=None)
    p_gb.add_argument("--codim", type=int, default=None,
                      help="run the smoothness check at this codimension "
                      "(default: projective emptiness only)")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        raise SystemExit(2 if e.code not in (0, None) else 0)
    try:
        handler = {
            "verify": cmd_verify,
            "emit-sextic": cmd_emit_sextic,
            "char-table": cmd_char_table,
            "fixed-points": cmd_fixed_points,
            "stratum": cmd_stratum,
            "lattice": cmd_lattice,
            "hermitian": cmd_hermitian,
            "groebner": cmd_groebner,
        }[args.command]
    except KeyError:
        parser.error(f"unknown command {args.command}")
    try:
        return handler(args)
    except (PolyParseError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_verify(args):
    primes = tuple(args.prime) if args.prime else (32003, 65537)
    ctx = verify.VerifyContext(
        seed=args.seed,
        slow=args.slow,
        primes=primes,
        budget_pairs=args.budget_pairs,
        budget_degree=args.budget_degree,
    )
    reports = verify.run_suite(args.suite, ctx)
    if args.json:
        for r in reports:
            print(json.dumps(r.to_json(), ensure_ascii=False, sort_keys=True))
    else:
        width = max(len(r.check_id) for r in reports)
        for r in reports:
            line = f"{r.check_id:<{width}}  {r.verdict:<16} {r.elapsed:8.2f}s"
            if r.verdict == verify.FAIL and r.witness:
                line += f"  witness: {json.dumps(r.witness, ensure_ascii=False, sort_keys=True)}"
            print(line)
        passed = sum(1 for r in reports if r.verdict == verify.PASS)
        print(f"-- {passed}/{len(reports)} checks passed")
    return verify.exit_code(reports)


def cmd_emit_sextic(args):
    f = epw.sextic_equation()
    if args.format == "json" or args.json:
        payload = {
            "variables": [f"x{i}" for i in range(6)],
            "monomials": poly_monomials_json(f),
            "text": emit_polynomial(f),
        }
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    else:
        print(emit_polynomial(f))
    return 0


def cmd_char_table(args):
    ctx = verify.VerifyContext()
    table = ctx.table
    rows = verify.CHARACTER_ROWS
    classes = []
    for label, order, size in fixtures.CLASS_DATA:
        values = {name: cyclo_json(verify.character_value(ctx, name, label))
                  for name in rows}
        classes.append({"class": label, "order": order, "size": size, "values": values})
    payload = {"group-order": len(table), "classes": classes}
    text = [f"group order {len(table)}"]
    header = "class  order size " + " ".join(f"{n:>10}" for n in rows)
    text.append(header)
    for entry in classes:
        vals = " ".join(f"{entry['values'][n]['pretty']:>10}" for n in rows)
        text.append(
            f"{entry['class']:<6} {entry['order']:>5} {entry['size']:>4} {vals}"
        )
    _emit(args, payload, text)
    return 0


def cmd_fixed_points(args):
    ctx = verify.VerifyContext()
    label = {11: "c", 5: "a", 6: "b", 3: "b2", 2: "b3"}[args.order]
    g6 = group._v6_matrix(ctx.table.elements[ctx.labeled[label][0]])
    locus = epw.fixed_locus([list(r) for r in g6])
    components = []
    for ev, kb in locus:
        dim = len(kb[0])
        comp = {"eigenvalue": cyclo_json(ev), "dimension": dim}
        if dim == 1:
            point = [kb[i][0] for i in range(6)]
            comp["stratum"] = epw.stratum(ctx.lagrangian, point)
        elif dim == 2:
            p = [kb[i][0] for i in range(6)]
            q = [kb[i][1] for i in range(6)]
            pattern = epw.line_intersection_pattern(ctx.sextic_fixture, p, q)
            comp["line-pattern"] = pattern
        components.append(comp)
    count = None
    if args.order != 2:
        count, _ = epw.sextic_fixed_point_count([list(r) for r in g6],
                                                ctx.lagrangian, ctx.sextic_fixture)
    payload = {"order": args.order, "components": components,
               "points-on-sextic": count}
    text = [f"element order {args.order}"]
    for comp in components:
        text.append(f"  eigenvalue {comp['eigenvalue']['pretty']}: "
                    f"dimension {comp['dimension']}"
                    + (f", stratum {comp['stratum']}" if "stratum" in comp else "")
                    + (f", line pattern {comp['line-pattern']}" if "line-pattern" in comp else ""))
    if count is not None:
        text.append(f"  points on the sextic: {count}")
    _emit(args, payload, text)
    return 0


def cmd_stratum(args):
    try:
        coords = [Fraction(part) for part in args.point.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in --point {args.point}") from None
    if len(coords) != 6:
        raise ValueError("need exactly six coordinates")
    ell = epw.stratum(epw.build_A(), coords)
    value = fixtures.sextic_poly().evaluate(coords)
    payload = {
        "point": [frac_str(c) for c in coords],
        "stratum": ell,
        "sextic-value": frac_str(value),
    }
    _emit(args, payload, [f"stratum {ell}, sextic value {frac_str(value)}"])
    return 0


def cmd_lattice(args):
    lat = lattices.parse_lattice_spec(args.spec)
    disc = lattices.disc_group(lat)
    payload = {
        "rank": lat.rank,
        "determinant": str(lat.det()),
        "signature": list(lat.signature()),
        "discriminant-orders": list(disc.orders),
        "discriminant-form": [[frac_str(x) for x in row] for row in disc.gram],
    }
    text = [
        f"rank {lat.rank}, determinant {lat.det()}, signature {lat.signature()}",
        f"discriminant group orders {list(disc.orders)}",
        f"discriminant form {[[frac_str(x) for x in row] for row in disc.gram]}",
    ]
    if args.short_vectors is not None:
        vecs = lattices.short_vectors(lat, args.short_vectors)
        payload["short-vectors"] = [
            {"vector": list(v), "norm": n} for v, n in vecs
        ]
        text.append(f"{len(vecs)} vectors with |norm| <= {args.short_vectors}")
        by_norm = {}
        for _, n in vecs:
            by_norm[n] = by_norm.get(n, 0) + 1
        for n in sorted(by_norm):
            text.append(f"  norm {n}: {by_norm[n]}")
    _emit(args, payload, text)
    return 0


def cmd_hermitian(args):
    H = hermitian.build_Hprime()
    if args.check == "hprime":
        ok = (
            hermitian.is_hermitian_matrix(H)
            and hermitian.is_positive_definite(H)
            and hermitian.herm_det(H) == 1
        )
        payload = {"check": "hprime", "verdict": "pass" if ok else "fail",
                   "det": str(hermitian.herm_det(H))}
    elif args.check == "mat10":
        W = hermitian.induced_wedge2(H)
        ok, witness = hermitian.matches_mat10(W)
        payload = {"check": "mat10", "verdict": "pass" if ok else "fail"}
        if not ok:
            i, j, got, want = witness
            payload["witness"] = {"entry": [i, j], "computed": quadint_json(got),
                                  "expected": quadint_json(want)}
    else:
        W = hermitian.induced_wedge2(H)
        inv = hermitian.polarization_invariants(W)
        ok = hermitian.herm_det(W) == 1 and inv[0] == 1
        payload = {"check": "principal", "verdict": "pass" if ok else "fail",
                   "invariants": [str(v) for v in inv]}
    _emit(args, payload, [f"{payload['check']}: {payload['verdict']}"])
    return 0 if payload["verdict"] == "pass" else 1


def cmd_groebner(args):
    with open(args.file, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if not isinstance(spec, dict) or not {"variables", "generators"} <= spec.keys():
        raise ValueError(f"{args.file}: need a JSON object with 'variables' and 'generators'")
    prime = args.prime or spec.get("prime")
    if prime is None:
        raise ValueError("no prime given (--prime or the file's 'prime' field)")
    if type(prime) is not int or not _is_prime(prime):
        raise ValueError(f"{args.file}: 'prime' must be a prime, got {prime!r}")
    variables = spec["variables"]
    names = [f"x{i}" for i in range(variables)] if isinstance(variables, int) else list(variables)
    gens = []
    for src in spec["generators"]:
        poly = parse_polynomial(src, names)
        gens.append(FPoly.from_int_poly(poly, prime))
    codim = args.codim if args.codim is not None else spec.get("codim")
    import time as _time

    start = _time.monotonic()
    try:
        if codim:
            ok, info = smoothness_check(
                gens, codim,
                max_pairs=args.budget_pairs, max_degree=args.budget_degree,
                minor_sample=None,
            )
            verdict = "pass" if ok else "fail"
            payload = {"verdict": verdict, "primes": [prime], "mode": "smoothness",
                       "codim": codim, "basis_size": info.get("basis_size"),
                       "info": info}
        else:
            empty, basis = projective_empty_with_basis(
                gens, max_pairs=args.budget_pairs, max_degree=args.budget_degree
            )
            verdict = "pass" if empty else "fail"
            payload = {"verdict": verdict, "primes": [prime],
                       "mode": "projective-emptiness", "basis_size": len(basis)}
    except BudgetExhausted as e:
        payload = {"verdict": "budget-exhausted", "primes": [prime], "detail": str(e)}
    payload["elapsed_seconds"] = round(_time.monotonic() - start, 3)
    print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    return 0 if payload["verdict"] == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
