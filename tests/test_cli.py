import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kleinepw import cli, epw, fixtures, hermitian
from kleinepw.cli import main
from kleinepw.textform import parse_polynomial

# the shipped ideal files
DATA = Path(__file__).resolve().parent.parent / "src" / "kleinepw" / "data"
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every command starts by importing the CLI; dataclasses would pull in
    # inspect, ast, dis and tokenize, some 6-7 ms of a fresh process
    code = "import sys, kleinepw.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(DATA.parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_emit_sextic_text_and_determinism(capsys):
    code, out1, _ = run(capsys, "emit-sextic")
    assert code == 0
    code, out2, _ = run(capsys, "emit-sextic")
    assert out1 == out2
    assert out1.startswith("x0^6")
    parsed = parse_polynomial(out1.strip(), 6)
    assert parsed == fixtures.sextic_poly()


def test_emit_sextic_json_round_trip(capsys):
    code, out, _ = run(capsys, "--json", "emit-sextic")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["monomials"]) == 37
    assert payload["monomials"][0]["exponents"] == [6, 0, 0, 0, 0, 0]
    assert all(isinstance(m["coefficient"], str) for m in payload["monomials"])
    again = parse_polynomial(payload["text"], payload["variables"])
    assert again == fixtures.sextic_poly()


def test_indented_json_takes_str_keys_only():
    # json.dumps would write 1 and None as "1" and "null"; no payload has them
    for key in (1, None, ("a",)):
        with pytest.raises(TypeError, match="keys must be str, not "):
            cli._indented_json({"a": [{key: 0}]})


def test_stratum_command(capsys):
    code, out, _ = run(capsys, "--json", "stratum", "--point", "0,1,0,0,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["stratum"] == 2
    assert payload["sextic-value"] == "0"
    code, out, _ = run(capsys, "stratum", "--point", "1,1,1,1,1,1")
    assert code == 0 and "stratum 0" in out


def test_stratum_usage_error(capsys):
    code, _, err = run(capsys, "stratum", "--point", "1,2,3")
    assert code == 2
    assert "six" in err


# deeper than the interpreter's recursion limit
NESTED = "[" * 3000 + "]" * 3000


@pytest.mark.parametrize(
    "argv, spec, phrase",
    [
        (["stratum", "--point", "1/0,0,0,0,0,0"], None, "zero denominator"),
        # refused before Fraction builds a 200,000-digit integer
        (["stratum", "--point", "1,1,1,1,1,1e200000"], None,
         "exponent notation in --point 1,1,1,1,1,1e200000"),
        (["groebner", "--prime", "101", "--file"], {"variables": 3}, "generators"),
        (["groebner", "--file"], {"variables": 1, "prime": 4, "generators": ["x0"]},
         "'prime' must be a prime, got 4"),
        (["groebner", "--file"], {"variables": 1, "prime": "7", "generators": ["x0"]},
         "'prime' must be a prime, got '7'"),
        # refused before trial division up to its square root
        (["groebner", "--file"],
         {"variables": 1, "prime": 1000000000000000003, "generators": ["x0"]},
         "'prime' 1000000000000000003 is too large: primes must be below 2^31"),
        (["groebner", "--file"],
         {"variables": 1, "prime": 7, "codim": "1", "generators": ["x0"]},
         "'codim' must be a positive int, got '1'"),
        (["groebner", "--file"], {"variables": 2, "prime": 7, "generators": [5, "x1^2"]},
         "'generators' must be a list of strings"),
        (["groebner", "--file"], {"variables": "ab", "prime": 7, "generators": ["a", "b"]},
         "'variables' must be a positive int or a list of names, got 'ab'"),
        # refused before any exponent tuple of that length is built
        (["groebner", "--file"], {"variables": 10**8, "prime": 7, "generators": ["x0"]},
         "100000000 variables, more than the 64 allowed"),
        # the second x would win, and index 0 could never be written
        (["groebner", "--file"],
         {"variables": ["x", "y", "x"], "prime": 7, "generators": ["x^2", "y^2"]},
         "variable names must be distinct and match [A-Za-z_][A-Za-z_0-9]*, got 'x'"),
        (["groebner", "--file"],
         {"variables": ["x", "y", ""], "prime": 7, "generators": ["x^2", "y^2"]},
         "variable names must be distinct and match [A-Za-z_][A-Za-z_0-9]*, got ''"),
        (["groebner", "--file"],
         {"variables": ["x", "y", "1z"], "prime": 7, "generators": ["x^2", "y^2"]},
         "variable names must be distinct and match [A-Za-z_][A-Za-z_0-9]*, got '1z'"),
        (["lattice", "--spec", "[[2.5,1],[1,2]]"], None,
         "Gram matrix entries must be integers, got 2.5"),
        (["lattice", "--spec", '[["2",1],[1,2]]'], None,
         "Gram matrix entries must be integers, got '2'"),
        (["lattice", "--spec", "[[true,1],[1,2]]"], None,
         "Gram matrix entries must be integers, got True"),
        (["lattice", "--spec", "U+[[2.7,1],[1,2]]"], None,
         "Gram matrix entries must be integers, got 2.7"),
        (["verify", "groebner", "--prime", "32003"], None,
         "verify needs exactly two distinct --prime values, or none; got 32003"),
        (["verify", "groebner", "--prime", "32003", "--prime", "32003"], None,
         "got 32003, 32003"),
        (["verify", "groebner", "--prime", "32003", "--prime", "65537", "--prime", "101"],
         None, "got 32003, 65537, 101"),
        (["lattice", "--spec", NESTED], None, "Gram matrix JSON nested too deeply"),
        (["lattice", "--spec", "U+" + NESTED], None, "Gram matrix JSON nested too deeply"),
        (["lattice", "--spec", "[[2,1],[1,2]+E8(1)"], None,
         "unbalanced brackets in lattice spec '[[2,1],[1,2]+E8(1)'"),
        # written as it stands: json.dumps of it would recurse too
        (["groebner", "--file"], NESTED, "JSON nested too deeply"),
        # refused before any Buchberger run: with no pair to spend, a run
        # would report budget-exhausted first
        (["--budget-pairs", "0", "groebner", "--codim", "1", "--file"],
         {"variables": 3, "prime": 101, "generators": ["x0^2 + x1", "x0*x1 + x2"]},
         "projective emptiness needs homogeneous generators"),
        (["--budget-pairs", "0", "groebner", "--file"],
         {"variables": 3, "prime": 101, "generators": ["x0^2 + x1", "x0*x1 + x2"]},
         "projective emptiness needs homogeneous generators"),
    ],
    ids=["stratum-zero-denominator", "stratum-exponent-notation", "groebner-no-generators", "groebner-file-prime-4",
         "groebner-file-prime-string", "groebner-file-prime-too-large", "groebner-file-codim-string",
         "groebner-generator-not-string", "groebner-variables-string",
         "groebner-too-many-variables", "groebner-repeated-variable",
         "groebner-empty-variable", "groebner-unspellable-variable",
         "lattice-float-entry", "lattice-string-entry", "lattice-bool-entry",
         "lattice-float-summand", "verify-one-prime", "verify-repeated-prime",
         "verify-three-primes", "lattice-nested-json", "lattice-nested-json-summand",
         "lattice-unbalanced-json", "groebner-nested-json",
         "groebner-smoothness-not-homogeneous", "groebner-emptiness-not-homogeneous"],
)
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, argv, spec, phrase):
    if spec is not None:
        path = tmp_path / "ideal.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and phrase in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, phrase",
    [
        (["verify", "groebner", "--prime", "4"], "argument --prime: 4 is not a prime"),
        (["verify", "groebner", "--prime", "x"], "argument --prime: invalid int value: 'x'"),
        (["verify", "groebner", "--prime", "2305843009213693951", "--prime", "32003"],
         "argument --prime: 2305843009213693951 is too large: primes must be below 2^31"),
        (["groebner", "--file", "ideal.json", "--prime", "1"],
         "argument --prime: 1 is not a prime"),
        (["--budget-pairs", "-1", "verify", "groebner"], "argument --budget-pairs: -1 is negative"),
        (["--budget-degree", "-2", "verify", "groebner"],
         "argument --budget-degree: -2 is negative"),
        (["verify", "groebner", "--prime", "2"],
         "argument --prime: 2 is a bad prime for verify: it divides coefficients"),
        (["verify", "groebner", "--prime", "32003", "--prime", "3"],
         "argument --prime: 3 is a bad prime for verify: it divides coefficients"),
        (["verify", "all", "--prime", "11"],
         "argument --prime: 11 is a bad prime for verify: it is the conductor"),
        (["groebner", "--file", "ideal.json", "--codim", "0"],
         "argument --codim: 0 is not positive"),
        (["verify", "groebner", "--prime", "2305843009213693951"],
         "argument --prime: 2305843009213693951 is too large: primes must be below 2^31"),
        (["lattice", "--spec", "E8", "--short-vectors", "-1"],
         "argument --short-vectors: -1 is negative"),
        (["lattice", "--spec", "E8(1)", "--short-vectors", "x"],
         "argument --short-vectors: invalid int value: 'x'"),
        # the global --json is the one JSON switch
        (["emit-sextic", "--format", "json"], "unrecognized arguments: --format json"),
    ],
    ids=["verify-prime-4", "verify-prime-not-int", "verify-prime-too-large", "groebner-prime-1", "budget-pairs-negative",
         "budget-degree-negative", "verify-prime-2", "verify-prime-3", "verify-prime-11",
         "groebner-codim-0", "verify-prime-too-large-alone", "short-vectors-negative",
         "short-vectors-not-int", "emit-sextic-format"],
)
def test_bad_number_flag_is_a_usage_error(capsys, argv, phrase):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    # one line, as a command's own errors: no usage block before it
    assert out.err.startswith("error: ") and phrase in out.err
    assert out.err.count("\n") == 1


def test_lattice_command(capsys):
    code, out, _ = run(
        capsys, "--json", "lattice", "--spec", "U+U+E8(-1)+E8(-1)+(-2)+(-2)"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 22
    assert payload["discriminant-orders"] == [2, 2]
    code, out, _ = run(
        capsys, "--json", "lattice", "--spec", "[[2,1],[1,6]]", "--short-vectors", "2"
    )
    payload = json.loads(out)
    assert payload["short-vectors"] == [
        {"vector": [-1, 0], "norm": 2},
        {"vector": [1, 0], "norm": 2},
    ]


def test_readme_examples_run(capsys):
    # every klein-epw line of the README's command blocks, but verify and
    # groebner, which the acceptance gate runs
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("klein-epw ")]
    examples = [argv for argv in commands if argv[0] not in ("verify", "groebner")]
    assert len(examples) >= 6
    for argv in examples:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_hermitian_command(capsys):
    for check in ("hprime", "mat10", "principal"):
        code, out, _ = run(capsys, "hermitian", "--check", check)
        assert code == 0
        assert "pass" in out


def test_hermitian_mat10_failure_prints_the_entry(capsys, monkeypatch):
    # the transcription with entry (3, 8), -1 - w, one off
    off = [list(row) for row in fixtures.mat10_matrix()]
    off[3][8] = off[3][8] + 1
    monkeypatch.setattr(fixtures, "mat10_matrix", lambda: off)
    code, out, _ = run(capsys, "--json", "hermitian", "--check", "mat10")
    assert code == 1
    assert json.loads(out) == {
        "check": "mat10", "verdict": "fail",
        "witness": {"entry": [3, 8], "computed": [-1, -1], "expected": [0, -1]},
    }
    code, out, _ = run(capsys, "hermitian", "--check", "mat10")
    assert (code, out) == (1, "mat10: fail\n")


def test_hermitian_hprime_failure_prints_the_determinant(capsys, monkeypatch):
    monkeypatch.setattr(hermitian, "herm_det", lambda m: 2)
    code, out, _ = run(capsys, "--json", "hermitian", "--check", "hprime")
    assert code == 1
    assert json.loads(out) == {"check": "hprime", "verdict": "fail", "det": "2"}
    code, out, _ = run(capsys, "hermitian", "--check", "hprime")
    assert (code, out) == (1, "hprime: fail\n")


@pytest.mark.parametrize("function", ["herm_det", "polarization_invariants"])
def test_hermitian_arithmetic_error_is_a_fail_verdict(capsys, monkeypatch, function):
    # a disagreement of two determinant routes raises ArithmeticError; the
    # command reports it as verify hermitian does, a fail with an error
    # witness and exit 1, and a check that does not call the function passes
    def disagree(m):
        raise ArithmeticError("ring and field determinants disagree")

    monkeypatch.setattr(hermitian, function, disagree)
    calls = {"hprime": "herm_det", "principal": "polarization_invariants", "mat10": None}
    for check, called in calls.items():
        code, out, err = run(capsys, "--json", "hermitian", "--check", check)
        payload = json.loads(out)
        if called == function:
            assert (code, err) == (1, "")
            assert payload == {"check": check, "verdict": "fail", "witness": {
                "error": "ArithmeticError: ring and field determinants disagree"}}
            assert run(capsys, "hermitian", "--check", check)[:2] == (1, f"{check}: fail\n")
        else:
            assert code == 0 and payload["verdict"] == "pass"


def test_fixed_points_command(capsys):
    code, out, _ = run(capsys, "--json", "fixed-points", "--order", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["points-on-sextic"] == 5
    assert len(payload["components"]) == 6
    strata = sorted(c["stratum"] for c in payload["components"])
    assert strata == [0, 2, 2, 2, 2, 2]
    code, out, _ = run(capsys, "--json", "fixed-points", "--order", "2")
    payload = json.loads(out)
    assert payload["points-on-sextic"] is None
    dims = sorted(c["dimension"] for c in payload["components"])
    assert dims == [2, 4]
    line = next(c for c in payload["components"] if c["dimension"] == 2)
    assert line["line-pattern"] == [1, 1, 1, 1, 1, 1]


def test_groebner_file_and_negative_control(tmp_path, capsys):
    # the shipped threefold ideal verifies smooth
    code, out, _ = run(
        capsys, "groebner", "--file", str(DATA / "gm_threefold.json")
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["mode"] == "smoothness"

    # corrupting the fixture (dropping one quadric term) must be caught
    with open(DATA / "gm_threefold.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    spec["generators"][-1] = "x01*x02 - x13*x14"
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "groebner", "--file", str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"


def test_shipped_sixfold_file_passes_validation(capsys):
    # the double cover is a variety, so the emptiness verdict is fail (exit
    # 1); a field the command rejects would exit 2 with a usage line
    code, out, _ = run(capsys, "groebner", "--file", str(DATA / "gm_sixfold.json"))
    assert code == 1
    payload = json.loads(out)
    assert payload["mode"] == "projective-emptiness"
    assert payload["primes"] == [32003] and payload["verdict"] == "fail"


def test_groebner_emptiness_mode(tmp_path, capsys):
    spec = {
        "prime": 101,
        "variables": 3,
        "generators": ["x0", "x1", "x2"],
    }
    path = tmp_path / "point.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "groebner", "--file", str(path))
    assert code == 0
    assert json.loads(out)["mode"] == "projective-emptiness"


@pytest.mark.parametrize("prime", [7, 32003])
@pytest.mark.parametrize("codim", [None, 1])
def test_groebner_unit_ideal_is_empty(tmp_path, capsys, prime, codim):
    # a nonzero constant is an emptiness certificate on its own
    spec = {"variables": 2, "prime": prime, "generators": ["1", "x0*x1"]}
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(spec))
    flags = () if codim is None else ("--codim", str(codim))
    code, out, _ = run(capsys, "groebner", "--file", str(path), *flags)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass" and payload["primes"] == [prime]
    assert payload["basis_size"] == 1


# exponents past 255, which a base-256 packed order key would misorder
HIGH_POWERS = "x1^258 - x0^257*x2"


def _groebner_on(tmp_path, capsys, generators, *flags):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"variables": 3, "prime": 32003, "generators": generators}))
    code, out, _ = run(capsys, *flags, "groebner", "--file", str(path))
    return code, json.loads(out)


def test_repeated_generator_keeps_the_reduced_basis(tmp_path, capsys):
    # the reduced basis of an ideal is unique, however often a generator
    # is listed
    code, once = _groebner_on(tmp_path, capsys, [HIGH_POWERS])
    assert code == 1 and once["verdict"] == "fail" and once["basis_size"] == 1
    code, twice = _groebner_on(tmp_path, capsys, [HIGH_POWERS, HIGH_POWERS])
    assert code == 1 and twice["verdict"] == "fail" and twice["basis_size"] == 1


def test_high_powers_are_not_certified_empty(tmp_path, capsys):
    # [1:1:1] is a zero of both ideals, repeated generator or not
    flags = ("--budget-degree", "400")
    for generators in ([HIGH_POWERS, "x0 - x2"], [HIGH_POWERS, HIGH_POWERS, "x0 - x2"]):
        code, payload = _groebner_on(tmp_path, capsys, generators, *flags)
        assert code == 1 and payload["verdict"] == "fail"
        assert payload["basis_size"] == 2


def test_groebner_budget_verdict(tmp_path, capsys):
    spec = {
        "prime": 7,
        "variables": 2,
        "generators": ["x0^2 + x1^2", "x0*x1"],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "--budget-pairs", "1", "groebner", "--file", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "budget-exhausted"
    # one S-pair gave x1^3; the next pair ran over the budget
    assert payload["progress"] == {"pairs": 1, "basis": 3, "degree": 3}


def test_verify_groebner_at_budget_degree_200_gives_the_default_report(capsys):
    # a degree budget of 200 widens the packed fields from 8 to 10 bits:
    # the minors are expanded and read at that width, to the same report
    def reports(*flags):
        code, out, _ = run(capsys, "--json", *flags, "verify", "groebner")
        return code, [{k: v for k, v in json.loads(line).items() if k != "elapsed_seconds"}
                      for line in out.splitlines()]

    default = reports()
    assert default[0] == 0 and reports("--budget-degree", "200") == default


def test_verify_budget_reports_progress(capsys):
    code, out, _ = run(capsys, "--json", "--budget-pairs", "1", "verify", "groebner")
    assert code == 1
    reports = {r["check"]: r for r in map(json.loads, out.splitlines())}
    for check in ("groebner.no-decomposable-vectors", "groebner.threefold-smooth"):
        assert reports[check]["verdict"] == "budget-exhausted"
        witness = reports[check]["witness"]
        assert witness["prime"] == 32003 and witness["detail"] == "pair budget 1 exhausted"
        assert witness["progress"].keys() == {"pairs", "basis", "degree"}
        assert witness["progress"]["pairs"] == 1


def test_shipped_ideal_matches_builder():
    from kleinepw.groebner import FPoly, gm_fivefold_ideal, gm_threefold_ideal

    # generator by generator and term for term, reduced at the file's own prime
    for name, build in (("gm_threefold", gm_threefold_ideal),
                        ("gm_fivefold", gm_fivefold_ideal)):
        with open(DATA / f"{name}.json", "r", encoding="utf-8") as handle:
            spec = json.load(handle)
        p = spec["prime"]
        parsed = [FPoly.from_int_poly(parse_polynomial(s, spec["variables"]), p).terms
                  for s in spec["generators"]]
        assert parsed == [FPoly.from_int_poly(g, p).terms for g in build()], name


def test_verify_hermitian_json(capsys):
    code, out, _ = run(capsys, "--json", "verify", "hermitian")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(entry["verdict"] == "pass" for entry in lines)
    ids = [entry["check"] for entry in lines]
    assert ids == sorted(ids)
    code, out2, _ = run(capsys, "--json", "verify", "hermitian")
    strip = lambda s: [
        {k: v for k, v in json.loads(line).items() if k != "elapsed_seconds"}
        for line in s.strip().splitlines()
    ]
    assert strip(out) == strip(out2)


def test_verify_lattice_text(capsys):
    code, out, _ = run(capsys, "verify", "lattice")
    assert code == 0
    assert "9/9 checks passed" in out


def test_cli_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_reused_parser_keeps_no_state_between_calls():
    parser = cli.build_parser()
    assert parser is cli.build_parser()
    args = parser.parse_args(["--json", "--seed", "7", "verify", "groebner",
                              "--prime", "5", "--prime", "7"])
    assert args.prime == [5, 7] and args.json and args.seed == 7
    args = parser.parse_args(["verify", "groebner"])
    assert args.prime is None and not args.json and args.seed == 0


def test_usage_error_leaves_the_parser_as_fresh(capsys):
    argv = ["--json", "lattice", "--spec", "(2)+[[2,1],[1,6]]", "--short-vectors", "2"]
    with pytest.raises(SystemExit) as err:
        main(["--seed", "3", "lattice", "--spec", "(2)", "--short-vectors", "x"])
    assert err.value.code == 2
    assert capsys.readouterr().err.count("\n") == 1
    fresh = cli.build_parser.__wrapped__().parse_args(argv)
    assert vars(cli.build_parser().parse_args(argv)) == vars(fresh)
    assert cli.cmd_lattice(fresh) == 0
    want = capsys.readouterr().out
    assert run(capsys, *argv) == (0, want, "")


def test_shared_sextic_survives_repeated_calls(capsys):
    golden = (Path(__file__).resolve().parent / "golden" / "emit-sextic.txt").read_text(
        encoding="utf-8")
    outputs = [run(capsys, "emit-sextic")[1] for _ in range(2)]
    code, _, _ = run(capsys, "--json", "verify", "epw")
    assert code == 0
    assert epw.sextic_equation() is epw.sextic_equation()
    assert epw.sextic_equation() == fixtures.sextic_poly()
    assert outputs == [golden, golden]
