import json

import pytest

from kleinepw import fixtures
from kleinepw.cli import main
from kleinepw.textform import parse_polynomial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_emit_sextic_text_and_determinism(capsys):
    code, out1, _ = run(capsys, "emit-sextic")
    assert code == 0
    code, out2, _ = run(capsys, "emit-sextic")
    assert out1 == out2
    assert out1.startswith("x0^6")
    parsed = parse_polynomial(out1.strip(), 6)
    assert parsed == fixtures.sextic_poly()


def test_emit_sextic_json_round_trip(capsys):
    code, out, _ = run(capsys, "--json", "emit-sextic", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["monomials"]) == 37
    assert payload["monomials"][0]["exponents"] == [6, 0, 0, 0, 0, 0]
    assert all(isinstance(m["coefficient"], str) for m in payload["monomials"])
    again = parse_polynomial(payload["text"], payload["variables"])
    assert again == fixtures.sextic_poly()


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


@pytest.mark.parametrize(
    "argv, spec, phrase",
    [
        (["stratum", "--point", "1/0,0,0,0,0,0"], None, "zero denominator"),
        (["groebner", "--prime", "101", "--file"], {"variables": 3}, "generators"),
        (["groebner", "--file"], {"variables": 1, "prime": 4, "generators": ["x0"]},
         "'prime' must be a prime, got 4"),
        (["groebner", "--file"], {"variables": 1, "prime": "7", "generators": ["x0"]},
         "'prime' must be a prime, got '7'"),
    ],
    ids=["stratum-zero-denominator", "groebner-no-generators", "groebner-file-prime-4",
         "groebner-file-prime-string"],
)
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, argv, spec, phrase):
    if spec is not None:
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(spec))
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
        (["groebner", "--file", "ideal.json", "--prime", "1"],
         "argument --prime: 1 is not a prime"),
        (["--budget-pairs", "-1", "verify", "groebner"], "argument --budget-pairs: -1 is negative"),
        (["--budget-degree", "-2", "verify", "groebner"],
         "argument --budget-degree: -2 is negative"),
    ],
    ids=["verify-prime-4", "verify-prime-not-int", "groebner-prime-1", "budget-pairs-negative",
         "budget-degree-negative"],
)
def test_bad_number_flag_is_a_usage_error(capsys, argv, phrase):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert phrase in out.err and "Traceback" not in out.err


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


def test_hermitian_command(capsys):
    for check in ("hprime", "mat10", "principal"):
        code, out, _ = run(capsys, "hermitian", "--check", check)
        assert code == 0
        assert "pass" in out


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
        capsys, "groebner", "--file", str(fixtures.ideal_file("gm_threefold"))
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["mode"] == "smoothness"

    # corrupting the fixture (dropping one quadric term) must be caught
    with open(fixtures.ideal_file("gm_threefold"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    spec["generators"][-1] = "x01*x02 - x13*x14"
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "groebner", "--file", str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"


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
    assert json.loads(out)["verdict"] == "budget-exhausted"


def test_shipped_ideal_matches_builder():
    from kleinepw.groebner import FPoly, gm_threefold_ideal

    with open(fixtures.ideal_file("gm_threefold"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    parsed = {
        frozenset(FPoly.from_int_poly(parse_polynomial(s, spec["variables"]), 32003).terms.items())
        for s in spec["generators"]
    }
    built = {frozenset(g.terms.items()) for g in gm_threefold_ideal(32003)}
    assert parsed == built


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
