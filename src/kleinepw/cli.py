"""Command-line surface.

Subcommands: verify, emit-sextic, char-table, fixed-points, stratum,
lattice, hermitian, groebner.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error.  All exact values in JSON output are
strings (decimal integers or "num/den"), never floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from collections import Counter
from fractions import Fraction

from . import epw, fixtures, group, lattices, verify
from .groebner import (
    MAX_DEGREE,
    MAX_PAIRS,
    BudgetExhausted,
    FPoly,
    projective_empty,
    smoothness_check,
)
from .textform import emit_polynomial, parse_polynomial, poly_monomials_json
from .verify import cyclo_json, frac_str


# trial division would take minutes on primes from this bound on
PRIME_BOUND = 2 ** 31


def _is_prime(n):
    """Primality by trial division; callers refuse n >= PRIME_BOUND first."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _int_arg(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _prime_arg(text):
    value = _int_arg(text)
    if value >= PRIME_BOUND:
        raise argparse.ArgumentTypeError(f"{value} is too large: primes must be below 2^31")
    if not _is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not a prime")
    return value


# The shipped ideals do not reduce faithfully modulo these primes.
_BAD_VERIFY_PRIMES = {
    2: "divides coefficients of the transcribed sextic",
    3: "divides coefficients of the transcribed sextic",
    11: "is the conductor of the cyclotomic field",
}


def _verify_prime_arg(text):
    value = _prime_arg(text)
    if value in _BAD_VERIFY_PRIMES:
        raise argparse.ArgumentTypeError(
            f"{value} is a bad prime for verify: it {_BAD_VERIFY_PRIMES[value]}"
        )
    return value


def _budget_arg(text):
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _positive(value):
    return type(value) is int and value >= 1


def _codim_arg(text):
    value = _int_arg(text)
    if not _positive(value):
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def _usage_error(parser, message):
    """A usage error as one line, "error: <message>", with exit code 2, as
    a command's errors are: argparse's error hook."""
    parser.exit(2, f"error: {message}\n")


class _Parser(argparse.ArgumentParser):
    # subparsers are made of the parser's class, so they report alike
    error = _usage_error


@functools.cache
def build_parser():
    """The argparse tree, built once per process and shared by every main call:
    parse_args keeps no state between calls (--prime appends to a fresh list)."""
    parser = _Parser(
        prog="klein-epw",
        description="exact reconstruction and verification of the Klein EPW sextic "
        "and its order-660 symmetry group",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized property checks")
    parser.add_argument("--budget-pairs", type=_budget_arg, default=MAX_PAIRS)
    parser.add_argument("--budget-degree", type=_budget_arg, default=MAX_DEGREE)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=verify.SUITES)
    p_verify.add_argument("--slow", action="store_true", help="include the slow tier")
    p_verify.add_argument(
        "--prime", type=_verify_prime_arg, action="append", default=None,
        help="a prime below 2^31 for the finite-field checks; give it twice, with two "
        "distinct primes, or not at all (32003 and 65537); 2, 3 and 11 are refused: 2 "
        "and 3 divide coefficients of the transcribed sextic, 11 is the conductor",
    )

    sub.add_parser("emit-sextic", help="print the canonical sextic")

    sub.add_parser("char-table", help="emit the class and character data")

    p_fix = sub.add_parser("fixed-points", help="fixed-point report for one element order")
    p_fix.add_argument("--order", type=int, required=True, choices=(2, 3, 5, 6, 11))

    p_str = sub.add_parser("stratum", help="stratum of a rational point")
    p_str.add_argument("--point", required=True,
                       help="six comma-separated rationals, each an integer, a/b or a "
                       "decimal, e.g. 1,-2,1/3,0.5,0,0; exponent notation (1e5) is refused")

    p_lat = sub.add_parser("lattice", help="discriminant data of a lattice")
    p_lat.add_argument("--spec", required=True,
                       help='symbolic sum like "U+U+E8(-1)+(-2)" or a JSON Gram matrix')
    p_lat.add_argument("--short-vectors", type=_budget_arg, default=None, metavar="BOUND",
                       help="also enumerate vectors with |norm| <= BOUND")

    p_herm = sub.add_parser("hermitian", help="checks for the Hermitian forms")
    p_herm.add_argument("--check", required=True, choices=("hprime", "mat10", "principal"))

    p_gb = sub.add_parser("groebner", help="finite-field ideal checks")
    p_gb.add_argument("--file", required=True, help="ideal description (JSON)")
    p_gb.add_argument("--prime", type=_prime_arg, default=None,
                      help="a prime below 2^31 (default: the file's 'prime' field)")
    p_gb.add_argument("--codim", type=_codim_arg, default=None,
                      help="run the smoothness check at this codimension "
                      "(default: projective emptiness only)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # argparse requires the subcommand and restricts it to these names
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
    try:
        return handler(args)
    except (ValueError, OSError) as e:  # PolyParseError and JSONDecodeError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2


def _indented_json(x, indent="\n"):
    """json.dumps(x, ensure_ascii=False, sort_keys=True, indent=2) for x
    with str keys only.  Given an indent, json.dumps runs the stdlib's
    pure-Python encoder; this builds the same text, its strings quoted by
    the C function that json.dumps uses for them."""
    if type(x) is int:
        return str(x)
    if isinstance(x, str):
        return json.encoder.encode_basestring(x)
    inner = indent + "  "
    if isinstance(x, dict) and x:
        for key in x:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [f"{json.encoder.encode_basestring(key)}: {_indented_json(x[key], inner)}"
                 for key in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(x, (list, tuple)) and x:
        items = [str(v) if type(v) is int else _indented_json(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(x)


def _emit(args, payload, text_lines):
    if args.json:
        print(_indented_json(payload))
    else:
        for line in text_lines:
            print(line)


def cmd_verify(args):
    primes = tuple(args.prime) if args.prime else verify.PRIMES
    if len(primes) != 2 or primes[0] == primes[1]:
        raise ValueError(f"verify needs exactly two distinct --prime values, or none; "
                         f"got {', '.join(map(str, primes))}")
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
    if args.json:
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
    g6 = group._v6_matrix(group.class_representative(ctx.generators, label))
    count, found = epw.sextic_fixed_point_count(g6, ctx.lagrangian, ctx.sextic_fixture)
    components = []
    for ev, dim, value in found:
        comp = {"eigenvalue": cyclo_json(ev), "dimension": dim}
        if dim <= 2:
            comp["stratum" if dim == 1 else "line-pattern"] = value
        components.append(comp)
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
    # Fraction("1e200000") would build a 200,000-digit integer
    if "e" in args.point.lower():
        raise ValueError(f"exponent notation in --point {args.point}: "
                         "write each coordinate as an integer, a/b or a decimal")
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
    det, sig = lat.det(), lat.signature()
    form = [[frac_str(x) for x in row] for row in disc.gram]
    payload = {
        "rank": lat.rank,
        "determinant": str(det),
        "signature": list(sig),
        "discriminant-orders": list(disc.orders),
        "discriminant-form": form,
    }
    text = [
        f"rank {lat.rank}, determinant {det}, signature {sig}",
        f"discriminant group orders {list(disc.orders)}",
        f"discriminant form {form}",
    ]
    if args.short_vectors is not None:
        vecs = lattices.short_vectors(lat, args.short_vectors)
        payload["short-vectors"] = [
            {"vector": list(v), "norm": n} for v, n in vecs
        ]
        text.append(f"{len(vecs)} vectors with |norm| <= {args.short_vectors}")
        by_norm = Counter(n for _, n in vecs)
        text += [f"  norm {n}: {by_norm[n]}" for n in sorted(by_norm)]
    _emit(args, payload, text)
    return 0


def cmd_hermitian(args):
    ctx = verify.VerifyContext()
    cid = {"hprime": "hermitian.rank5-form", "mat10": "hermitian.wedge-square-match",
           "principal": "hermitian.wedge-square-principal"}[args.check]
    # verify's own check; run_check makes an exception a fail with an error witness
    check = next(fn for c, _, _, fn in verify.CHECKS if c == cid)
    verdict, witness = verify.run_check(check, ctx)
    payload = {"check": args.check, "verdict": verdict}
    if "error" in witness or args.check == "mat10" and verdict == verify.FAIL:
        payload["witness"] = witness
    elif args.check == "hprime":
        payload["det"] = str(witness["det"])
    elif args.check == "principal":
        payload["invariants"] = [str(v) for v in ctx.wedge_square_invariants]
    _emit(args, payload, [f"{args.check}: {payload['verdict']}"])
    return 0 if payload["verdict"] == verify.PASS else 1


def cmd_groebner(args):
    with open(args.file, "r", encoding="utf-8") as handle:
        try:
            spec = json.load(handle)
        except RecursionError:
            raise ValueError(f"{args.file}: JSON nested too deeply") from None
    if not isinstance(spec, dict) or not {"variables", "generators"} <= spec.keys():
        raise ValueError(f"{args.file}: need a JSON object with 'variables' and 'generators'")
    prime = args.prime or spec.get("prime")
    if prime is None:
        raise ValueError("no prime given (--prime or the file's 'prime' field)")
    if type(prime) is int and prime >= PRIME_BOUND:
        raise ValueError(f"{args.file}: 'prime' {prime} is too large: primes must be below 2^31")
    if type(prime) is not int or not _is_prime(prime):
        raise ValueError(f"{args.file}: 'prime' must be a prime, got {prime!r}")
    variables = spec["variables"]
    if not (_positive(variables) or (isinstance(variables, list) and variables
                                     and all(isinstance(name, str) for name in variables))):
        raise ValueError(f"{args.file}: 'variables' must be a positive int or a list of "
                         f"names, got {variables!r}")
    sources = spec["generators"]
    if not isinstance(sources, list) or not all(isinstance(src, str) for src in sources):
        raise ValueError(f"{args.file}: 'generators' must be a list of strings")
    codim = args.codim if args.codim is not None else spec.get("codim")
    if codim is not None and not _positive(codim):
        raise ValueError(f"{args.file}: 'codim' must be a positive int, got {codim!r}")
    polys = [parse_polynomial(src, variables) for src in sources]
    start = time.monotonic()
    try:
        if codim is not None:
            ok, info = smoothness_check(
                polys, codim, prime,
                max_pairs=args.budget_pairs, max_degree=args.budget_degree,
            )
            verdict = "pass" if ok else "fail"
            payload = {"verdict": verdict, "primes": [prime], "mode": "smoothness",
                       "codim": codim, "basis_size": info.get("basis_size"),
                       "info": info}
        else:
            empty, basis = projective_empty(
                [FPoly.from_int_poly(f, prime) for f in polys],
                max_pairs=args.budget_pairs, max_degree=args.budget_degree,
            )
            verdict = "pass" if empty else "fail"
            payload = {"verdict": verdict, "primes": [prime],
                       "mode": "projective-emptiness", "basis_size": len(basis)}
    except BudgetExhausted as e:
        payload = {"verdict": "budget-exhausted", "primes": [prime], "detail": str(e),
                   "progress": e.progress()}
    payload["elapsed_seconds"] = round(time.monotonic() - start, 3)
    print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    return 0 if payload["verdict"] == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
