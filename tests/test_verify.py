import json
from pathlib import Path

import pytest

from kleinepw import cli, group, verify

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
    used = []

    def record(gens, codim, p, minors, **budgets):
        used.append((p, len(minors[0])))
        return True, {}

    monkeypatch.setattr(verify, "smoothness_check", record)
    verdict, witness = verify._sing_smooth(verify.VerifyContext(slow=True))
    assert used == [(32003, 400), (65537, 400)]
    assert (verdict, witness) == (verify.PASS, {"verified-at-primes": [32003, 65537]})


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
