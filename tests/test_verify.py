import ast
import json
from pathlib import Path

import pytest

from kleinepw import cli, group, hermitian, verify

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_registry_integrity():
    ids = [cid for cid, _, _, _ in verify.CHECKS]
    assert len(ids) == len(set(ids)), "duplicate check ids"
    for cid, suites, statement, _ in verify.CHECKS:
        assert suites <= set(verify.SUITES) - {"all"}
        assert statement and len(statement) < 120
    # every suite selects at least one check
    for suite in verify.SUITES:
        if suite == "all":
            continue
        assert any(suite in suites for _, suites, _, _ in verify.CHECKS), suite


def test_reports_are_ordered_and_serializable():
    ctx = verify.VerifyContext()
    reports = verify.run_suite("hermitian", ctx)
    ids = [r.check_id for r in reports]
    assert ids == sorted(ids)
    for r in reports:
        payload = json.dumps(r.to_json())
        assert "verdict" in payload
    assert verify.exit_code(reports) == 0


def test_skipped_checks_do_not_fail_exit_code():
    ctx = verify.VerifyContext(slow=False, primes=(101,))
    skipped = verify.VerificationReport("x", "s", verify.SKIP)
    passed = verify.VerificationReport("y", "s", verify.PASS)
    failed = verify.VerificationReport("z", "s", verify.FAIL)
    assert verify.exit_code([skipped, passed]) == 0
    assert verify.exit_code([skipped, passed, failed]) == 1
    assert verify.exit_code([verify.VerificationReport("w", "s", verify.BUDGET)]) == 1


def test_frac_and_cyclo_serialization():
    from fractions import Fraction

    from kleinepw.cyclo import CycloNum, lambda_embed

    assert verify.frac_str(Fraction(3, 2)) == "3/2"
    assert verify.frac_str(Fraction(4, 2)) == "2"
    lam = lambda_embed()
    blob = verify.cyclo_json(lam)
    assert blob["pretty"] == "λ"
    assert blob["coefficients"][1] == "1"
    blob = verify.cyclo_json(lam.conj())
    assert blob["pretty"] == "λ̄"
    blob = verify.cyclo_json(CycloNum.from_rational(Fraction(-1, 2), 11))
    assert blob["pretty"] == "-1/2"


def _run_check(check_id, ctx):
    fn = next(fn for cid, _, _, fn in verify.CHECKS if cid == check_id)
    return fn(ctx)


def _failure_witness(call):
    if len(call.args) > 2:
        return call.args[2]
    return next((k.value for k in call.keywords if k.arg == "witness_fail"), None)


def test_every_bool_verdict_carries_a_failure_witness():
    # "Failing verdicts always carry a witness" (the module docstring)
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_bool"]
    assert len(calls) > 20
    bare = [call.lineno for call in calls for w in (_failure_witness(call),)
            if w is None or (isinstance(w, ast.Dict) and not w.keys)
            or (isinstance(w, ast.Constant) and not w.value)]
    assert not bare, f"_bool without a failure witness at lines {bare}"


def test_rank5_form_failure_carries_the_determinant(monkeypatch):
    monkeypatch.setattr(hermitian, "herm_det", lambda m: 2)
    assert _run_check("hermitian.rank5-form", verify.VerifyContext()) == (
        verify.FAIL, {"det": 2, "positive-definite": True})


def test_eigenvalue_exponents_failure_carries_a_witness(generators):
    a, c, s = generators
    swapped = [list(row) for row in c]
    swapped[0][0], swapped[1][1] = c[1][1], c[0][0]
    ctx = verify.VerifyContext()
    ctx.generators = (a, swapped, s)
    assert _run_check("group.eigenvalue-exponents", ctx) == (verify.FAIL, {
        "exponents": [1, 4, 5, 9, 3], "squares": [1, 3, 4, 5, 9], "diagonal-match": False})


def test_quadric_invariance_names_the_generator_that_moves_the_quadric(monkeypatch, generators):
    from kleinepw import fixtures
    from kleinepw.fixtures import PAIR_VARS, QUADRIC_TEXT
    from kleinepw.textform import parse_polynomial

    ctx = verify.VerifyContext()
    ctx.generators = generators
    assert _run_check("quadric.invariance", ctx) == (verify.PASS, {})
    # dropping the term x15*x25 leaves a quadric that c still fixes (c
    # fixes each term) but a does not
    broken = parse_polynomial(QUADRIC_TEXT.replace(" + x15*x25", ""), PAIR_VARS)
    monkeypatch.setattr(fixtures, "invariant_quadric", lambda: broken)
    assert _run_check("quadric.invariance", ctx) == (verify.FAIL, {"generator": "a"})
    # with a left out, the first generator the check meets that moves it is
    # s; a new context, since each builds its generators' images once
    ctx = verify.VerifyContext()
    ctx.generators = (generators[1], generators[1], generators[2])
    assert _run_check("quadric.invariance", ctx) == (verify.FAIL, {"generator": "s"})


def test_surface_gate_checks_every_minor(monkeypatch):
    # the real surface run takes minutes; this checks only what the gate
    # hands smoothness_check: all 400 nonzero 3 x 3 minors, at each prime
    # and one trace, which the second prime replays
    used, traces = [], []

    def record(gens, codim, p, minors, trace, **budgets):
        used.append((p, len(minors[0])))
        traces.append(trace)
        return True, {}

    monkeypatch.setattr(verify, "smoothness_check", record)
    verdict, witness = verify._sing_smooth(verify.VerifyContext(slow=True))
    assert used == [(32003, 400), (65537, 400)]
    assert traces[0] is traces[1] == []
    assert (verdict, witness) == (verify.PASS, {"verified-at-primes": [32003, 65537]})


def test_fivefold_slow_report():
    # the slow tier's codimension-4 Jacobian check, at both primes
    assert verify._x5smooth(verify.VerifyContext(slow=True)) == (
        verify.PASS, {"verified-at-primes": [32003, 65537]})


@pytest.fixture
def no_closure(monkeypatch):
    def refuse(gens):
        raise AssertionError("the 660-element closure was built")

    monkeypatch.setattr(group, "generate_group", refuse)


def test_epw_suite_builds_no_closure(no_closure):
    ctx = verify.VerifyContext()
    reports = verify.run_suite("epw", ctx)
    assert {r.check_id for r in reports} >= {"fixedpoints.sextic-counts",
                                              "stratum.random-consistency"}
    assert all(r.verdict == verify.PASS for r in reports), [
        (r.check_id, r.witness) for r in reports if r.verdict != verify.PASS]
    assert "table" not in vars(ctx) and "labeled" not in vars(ctx)


@pytest.mark.parametrize("order", [2, 3, 5, 6, 11])
def test_fixed_points_builds_no_closure(no_closure, capsys, order):
    assert cli.main(["--json", "fixed-points", "--order", str(order)]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"fixed-points-{order}.json").read_text(encoding="utf-8")


def test_class_words_are_the_closure_words(generators, table660, labeled_classes):
    assert set(group.CLASS_WORDS) == set(labeled_classes)
    for label, cls in labeled_classes.items():
        rep = cls[0]
        assert group.CLASS_WORDS[label] == table660.words[rep], label
        got = group.class_representative(generators, label)
        assert group.mat_key(got) == group.mat_key(table660.elements[rep]), label
