"""Output checks, failure accounting and the behaviour digest.

Each verify report must carry its expected verdict.  Each `queries`
answer is checked by an identity that the code under test does not
supply: the transcribed sextic, the construction of the direct sum, the
definition of a short vector, or the construction of an empty ideal.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from workloads import SUITE_CHECKS, expected_verdict


class Outcome:
    """Tally of one run: operations attempted, operations failed, and the
    subset of failures that make the run incorrect (every failure but an
    error exit on the known lattice-spec defect)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def record(self, label, ok, wrong=True, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong)
            if len(self.notes) < 20:
                self.notes.append(f"{label}: {why}")

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes.extend(other.notes[: 20 - len(self.notes)])


def _strip_elapsed(text):
    return re.sub(r'"elapsed_seconds": [0-9.eE+-]+', '"elapsed_seconds": null', text)


def digest(items):
    """sha256 over the canonical JSON of the given items."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, ensure_ascii=False).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- verify suites -----------------------------------------------------


def parse_reports(stdout):
    """Reports of `klein-epw --json verify`, one JSON object per line,
    reduced to check id, verdict and witness."""
    out = []
    for line in stdout.splitlines():
        line = line.strip()
        if line:
            r = json.loads(line)
            out.append({"check": r["check"], "verdict": r["verdict"], "witness": r["witness"]})
    return out


def check_suite(suite, reports, exit_code):
    """One operation per check.  A check fails when its verdict is not the
    expected one or is missing.  Every check fails when there are no
    reports, or when the exit code contradicts them: `klein-epw verify`
    exits 0 exactly when every verdict is pass or skipped, so any other
    exit means the process did not finish as its reports say."""
    outcome = Outcome()
    seen = {r["check"]: r["verdict"] for r in reports}
    ids = sorted(set(SUITE_CHECKS[suite]) | set(seen))
    clean = all(v in ("pass", "skipped") for v in seen.values())
    exit_explained = bool(seen) and (exit_code == 0) == clean
    for check_id in ids:
        want = expected_verdict(check_id)
        got = seen.get(check_id)
        if not exit_explained:
            outcome.record(check_id, False, why=f"exit code {exit_code}")
        elif got != want:
            outcome.record(check_id, False, why=f"verdict {got!r}, expected {want!r}")
        else:
            outcome.record(check_id, True)
    return outcome


# -- queries -----------------------------------------------------------


class AnswerChecker:
    """Checks `queries` answers.  `sextic` is the transcribed fixture
    polynomial and `parse` the text-format parser, both from the
    package's fixture and text layers."""

    def __init__(self, sextic, parse):
        self.sextic = sextic
        self.parse = parse

    def check(self, request, result):
        """(ok, wrong, why).  An error exit is a failed request; it is also a
        wrong answer unless the request hits the known defect (a lattice
        spec that starts with a JSON Gram summand)."""
        code, stdout = result["code"], result["stdout"]
        if code != 0:
            known = bool(request["expect"].get("json_first"))
            return False, not known, f"exit code {code}: {result['stderr'].strip()[:120]}"
        try:
            why = getattr(self, "_" + request["kind"].replace("-", "_"))(request["expect"], stdout)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            why = f"unreadable answer ({type(e).__name__}: {e})"
        return why is None, True, why

    def _stratum(self, expect, stdout):
        payload = json.loads(stdout)
        point = [Fraction(c) for c in expect["point"]]
        value = self.sextic.evaluate(point)
        if payload["point"] != expect["point"]:
            return "point echoed wrongly"
        if Fraction(payload["sextic-value"]) != value:
            return f"sextic value {payload['sextic-value']}, fixture gives {value}"
        if (payload["stratum"] >= 1) != (value == 0):
            return f"stratum {payload['stratum']} but sextic value {value}"
        return None

    def _lattice(self, expect, stdout):
        payload = json.loads(stdout)
        orders = payload["discriminant-orders"]
        d = int(payload["determinant"])
        if payload["rank"] != expect["rank"] or d != expect["det"]:
            return f"rank {payload['rank']} det {d}, expected {expect['rank']} {expect['det']}"
        prod = 1
        for o in orders:
            prod *= o
        if abs(d) != prod:
            return f"|det| {abs(d)} != product of discriminant orders {prod}"
        if expect["bound"] is not None:
            return _short_vectors(expect["gram"], expect["bound"], payload.get("short-vectors"))
        return None

    def _hermitian(self, expect, stdout):
        payload = json.loads(stdout)
        if payload.get("check") != expect["check"] or payload.get("verdict") != "pass":
            return f"verdict {payload.get('verdict')!r}"
        if expect["check"] == "hprime" and payload.get("det") != "1":
            return f"det {payload.get('det')!r}"
        if expect["check"] == "principal" and payload.get("invariants", [None])[0] != "1":
            return "leading invariant is not 1"
        return None

    def _emit_sextic(self, expect, stdout):
        back = self.parse(stdout.strip(), 6)
        if len(back.terms) != 37 or back != self.sextic:
            return "emitted sextic does not parse back to the 37-term fixture"
        return None

    def _groebner(self, expect, stdout):
        payload = json.loads(stdout)
        if payload.get("verdict") != "pass":
            return f"verdict {payload.get('verdict')!r} on an empty ideal"
        return None


def _short_vectors(gram, bound, vectors):
    if vectors is None:
        return "no short vectors in the answer"
    seen = set()
    for item in vectors:
        v = tuple(item["vector"])
        norm = sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))
        if not any(v) or norm != item["norm"] or abs(norm) > bound or v in seen:
            return f"bad short vector {list(v)} (norm {item['norm']}, recomputed {norm})"
        seen.add(v)
    if any(tuple(-c for c in v) not in seen for v in seen):
        return "short vectors not closed under negation"
    return None


def check_queries(checker, requests, results):
    outcome = Outcome()
    for i, (req, res) in enumerate(zip(requests, results)):
        ok, wrong, why = checker.check(req, res)
        outcome.record(f"request {i} ({' '.join(req['argv'][:4])})", ok, wrong, why)
    for i in range(len(results), len(requests)):
        outcome.record(f"request {i}", False, why="no result")
    return outcome


def query_digest_items(results):
    """What a `queries` run answered, with `elapsed_seconds` blanked."""
    return [{"code": r["code"], "stdout": _strip_elapsed(r["stdout"])} for r in results]
