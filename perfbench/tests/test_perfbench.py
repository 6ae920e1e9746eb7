"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _files(directory):
    return {p.name: p.read_text() for p in sorted(Path(directory).iterdir())}


def test_same_seed_gives_identical_queries(tmp_path):
    a = workloads.queries_requests(7, 0, tmp_path / "a")
    b = workloads.queries_requests(7, 0, tmp_path / "b")
    strip = [json.dumps(r["argv"][:-1] if r["kind"] == "groebner" else r) for r in a]
    assert strip == [json.dumps(r["argv"][:-1] if r["kind"] == "groebner" else r) for r in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    c = workloads.queries_requests(8, 0, tmp_path / "c")
    assert [r["argv"] for r in c] != [r["argv"] for r in a]


def test_queries_mix_and_json_first_share(tmp_path):
    reqs = workloads.queries_requests(3, 1, tmp_path)
    kinds = [r["kind"] for r in reqs]
    rounds = workloads.ROUNDS_PER_UNIT
    assert len(reqs) == 14 * rounds
    assert kinds.count("stratum") == 5 * rounds
    assert kinds.count("groebner") == 2 * rounds
    lattice = [r for r in reqs if r["kind"] == "lattice"]
    json_first = [r for r in lattice if r["expect"]["json_first"]]
    assert len(lattice) == 5 * rounds and len(json_first) == rounds
    assert all(r["argv"][3].startswith("[[") for r in json_first)
    assert all(not r["argv"][3].startswith("[[") for r in lattice if r not in json_first)
    assert all(r["argv"][2].startswith("--point=") for r in reqs if r["kind"] == "stratum")


def test_empty_ideal_generators_are_homogeneous():
    import random

    from kleinepw.textform import parse_polynomial

    for degrees in workloads.IDEAL_SHAPES:
        spec = workloads.empty_ideal(random.Random(1), degrees)
        polys = [parse_polynomial(g, spec["variables"]) for g in spec["generators"]]
        assert len(polys) == spec["variables"] == len(degrees)
        assert all(p.is_homogeneous() for p in polys)
        assert sorted(p.total_degree() for p in polys) == sorted(degrees)


def _reports(suite):
    return [{"check": c, "verdict": workloads.expected_verdict(c), "witness": {}}
            for c in workloads.SUITE_CHECKS[suite]]


def test_planted_wrong_verdict_is_counted():
    good = checks.check_suite("groebner", _reports("groebner"), 0)
    assert (good.attempted, good.failed) == (4, 0)
    planted = _reports("groebner")
    planted[1]["verdict"] = "fail"
    # verify exits 1 on a failing verdict: only that check is counted
    bad = checks.check_suite("groebner", planted, 1)
    assert (bad.attempted, bad.failed, bad.wrong) == (4, 1, 1)
    missing = checks.check_suite("groebner", _reports("groebner")[:-1], 0)
    assert missing.failed == 1
    # an exit code the verdicts do not explain, or no reports, fails every check
    assert checks.check_suite("groebner", _reports("groebner"), 1).failed == 4
    assert checks.check_suite("groebner", planted, 0).failed == 4
    assert checks.check_suite("groebner", [], 1).failed == 4


@pytest.fixture(scope="module")
def checker():
    from kleinepw import fixtures
    from kleinepw.textform import parse_polynomial

    return checks.AnswerChecker(fixtures.sextic_poly(), parse_polynomial)


def _ok(stdout):
    return {"code": 0, "stdout": stdout, "stderr": ""}


def test_planted_wrong_answers_are_counted(checker):
    on_sextic = {"kind": "stratum", "expect": {"point": ["1", "0", "1", "1", "1", "1"]},
                 "argv": []}
    right = {"point": on_sextic["expect"]["point"], "stratum": 1, "sextic-value": "0"}
    wrong = dict(right, stratum=0)
    lat = {"kind": "lattice", "argv": [],
           "expect": {"rank": 2, "det": 3, "gram": [[2, 1], [1, 2]], "bound": 2,
                      "json_first": False}}
    answer = {"rank": 2, "determinant": "3", "discriminant-orders": [3],
              "short-vectors": [{"vector": [1, 0], "norm": 2}]}
    json_first = {"kind": "lattice", "expect": {"json_first": True},
                  "argv": ["--json", "lattice", "--spec", "[[2,1],[1,2]]+E8(1)"]}
    requests = [on_sextic, on_sextic, lat,
                {"kind": "groebner", "expect": {}, "argv": []},
                json_first, on_sextic, lat]
    results = [_ok(json.dumps(right)), _ok(json.dumps(wrong)), _ok(json.dumps(answer)),
               _ok(json.dumps({"verdict": "fail"})),
               {"code": 2, "stdout": "", "stderr": "error: Extra data"},
               {"code": 1, "stdout": "", "stderr": "Traceback (most recent call last):"},
               {"code": 2, "stdout": "", "stderr": "error: bad spec"}]
    outcome = checks.check_queries(checker, requests, results)
    # wrong stratum, unpaired short vector, failed ideal, a crash and an
    # error exit outside the known defect are wrong; the JSON-first lattice
    # spec's error exit fails without making the run incorrect
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (7, 6, 5)
    assert "negation" in outcome.notes[1]


def test_digest_ignores_elapsed_seconds():
    a = [{"code": 0, "stdout": '{"elapsed_seconds": 0.12, "verdict": "pass"}'}]
    b = [{"code": 0, "stdout": '{"elapsed_seconds": 3.5, "verdict": "pass"}'}]
    c = [{"code": 0, "stdout": '{"elapsed_seconds": 3.5, "verdict": "fail"}'}]
    da, db, dc = (checks.digest(checks.query_digest_items(x)) for x in (a, b, c))
    assert da == db != dc


def test_self_time_is_duration_minus_child_cover():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has its own child [2, 3]
    tree = [
        [0, None, "root", "cli", 0.0, 10.0],
        [1, 0, "a", "group", 1.0, 4.0],
        [2, 1, "a1", "cyclo", 2.0, 3.0],
        [3, 0, "b", "group", 3.0, 6.0],
        [4, 0, "c", "epw", 8.0, 9.0],
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 10 - 5 - 1, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0})
    layers = spans.layer_self_times(tree)
    assert layers == pytest.approx({"cli": 4.0, "group": 5.0, "cyclo": 1.0, "epw": 1.0})
    assert spans.top_level_seconds(tree) == 10.0


def test_install_wraps_and_restores():
    import kleinepw.cli  # noqa: F401 - loads every module
    from kleinepw import cli, epw, groebner, linalg, verify

    orig_rank, orig_span_rank = linalg.rank, epw.span_rank
    orig_check = groebner.smoothness_check
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert linalg.rank is not orig_rank
        # names imported from the module are wrapped too
        assert verify.smoothness_check is groebner.smoothness_check is cli.smoothness_check
        assert groebner.smoothness_check is not orig_check
        assert epw.stratum(epw.build_A(), [1, 0, 0, 0, 0, 0]) == 0
    finally:
        spans.uninstall(undo)
    assert linalg.rank is orig_rank and epw.span_rank is orig_span_rank
    assert verify.smoothness_check is orig_check is cli.smoothness_check
    names = {s[2] for s in tracer.spans}
    assert {"epw.stratum", "linalg.rank"} <= names
    parents = {s[0]: s for s in tracer.spans}
    rank_spans = [s for s in tracer.spans if s[2] == "linalg.rank"]
    assert all(parents[s[1]][2] == "epw.stratum" for s in rank_spans)
    assert tracer.counts["epw.stratum"][0] == 1


def test_benchmark_json_declares_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import drive

    produced = set(drive.layer_metrics(spans.Tracer())) | {
        "cyclo.mul_ns", "group.mat_mul_us", "groebner.fpoly_mul_ns",
        "cli.cpu_s", "trace.wall_s", "trace.overhead_s", "trace.uncovered_share",
        "failed_share"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
