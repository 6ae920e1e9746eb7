"""Benchmark of the kleinepw verification surface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: verify-group,
verify-groebner, verify-epw (one `klein-epw --json verify SUITE` process
per unit) and queries (one process sending a seeded batch of CLI
requests through kleinepw.cli.main, one after another).  Each is a closed
loop with a single client: units run back to back until their wall
times add up to S seconds, at least one.  Times are in reference seconds
(see speed.py), so the number of units does not depend on how busy the
machine is.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
untraced and once with spans installed, and prints the per-layer metrics.
Every verdict and answer is checked.  The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}; the line before
it carries run metadata and a digest of all verdicts and answers, which
no bound applies to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_SPAWNS = 9
# Start the interpreter, import the CLI and build its parser; then report
# when that was done, on the monotonic clock the parent also reads, and
# the mean of six speed samples taken afterwards.
SETUP_CODE = f"""import time, kleinepw.cli as c
c.build_parser()
ready = time.monotonic()
import statistics, sys
sys.path.insert(0, {str(HERE)!r})
import speed
print(ready, statistics.fmean(speed.calibrate() for _ in range(6)))
"""

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, stdout_path):
    """Run a child to completion; (start on the monotonic clock, wall
    seconds, exit code, rusage)."""
    with open(stdout_path, "w", encoding="utf-8") as out, \
            open(stdout_path.with_suffix(".err"), "w", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, proc.returncode, usage


def setup_seconds():
    """Median over fresh processes, after one warm-up, of the time from
    spawn until kleinepw.cli is imported and its parser built, each in
    reference seconds by the speed samples the process takes right after.
    Returns (reference seconds, raw seconds)."""
    argv = [sys.executable, "-c", SETUP_CODE]
    ref, raw = [], []
    for i in range(SETUP_SPAWNS + 1):
        start, _, code, _ = spawn(argv, WORK / "setup.out")
        if code != 0:
            fail("setup process failed: " + (WORK / "setup.err").read_text()[-400:])
        ready, calibration = map(float, (WORK / "setup.out").read_text().split())
        if i:
            raw.append(ready - start)
            ref.append((ready - start) * speed.REFERENCE_S / calibration)
    return statistics.median(ref), statistics.median(raw)


def run_drive(job, tag):
    """drive.py in a fresh process; (wall, rusage, its JSON output)."""
    job_path, out_path = WORK / f"{tag}.job.json", WORK / f"{tag}.out.json"
    job = dict(job, root=str(ROOT))
    job_path.write_text(json.dumps(job), encoding="utf-8")
    if out_path.exists():
        out_path.unlink()
    _, wall, code, usage = spawn([sys.executable, str(HERE / "drive.py"), str(job_path),
                                  str(out_path)], WORK / f"{tag}.log")
    if code != 0 or not out_path.exists():
        fail(f"{tag} exited with {code}: " + (WORK / f"{tag}.err").read_text()[-800:])
    return wall, usage, json.loads(out_path.read_text(encoding="utf-8"))


def reference_seconds(raw, out):
    """A drive.py process's raw seconds, less its calibration time, in
    reference seconds."""
    return (raw - out["calibration_s"]) * speed.factor(out["speed"])


def checker():
    from kleinepw import fixtures
    from kleinepw.textform import parse_polynomial

    return checks.AnswerChecker(fixtures.sextic_poly(), parse_polynomial)


class Unit:
    """One workload process: wall time (reference and raw), peak memory,
    request latencies in reference ms, outcome and digest items; also the
    time of the work inside the process and the process's CPU time, in
    reference seconds, which a traced run is compared with."""

    def __init__(self, raw, usage, out, latencies_ms, outcome, items):
        slowness = speed.factor(out["speed"])
        self.wall, self.raw_wall = reference_seconds(raw, out), raw
        self.rss_mb = out["peak_rss_mb"]
        self.drive_s, self.raw_drive_s = out["drive_s"] * slowness, out["drive_s"]
        self.cpu_s = (usage.ru_utime + usage.ru_stime - out["calibration_s"]) * slowness
        self.latencies_ms, self.outcome, self.items = latencies_ms, outcome, items


def verify_unit(suite, seed, index):
    tag = f"verify-{suite}-{index}"
    raw, usage, out = run_drive({"mode": "cli", "argv": workloads.verify_argv(suite, seed)},
                                tag)
    try:
        reports = checks.parse_reports((WORK / f"{tag}.log").read_text(encoding="utf-8"))
    except (ValueError, KeyError):
        reports = []
    wall = reference_seconds(raw, out)
    return Unit(raw, usage, out, [wall * 1e3],
                checks.check_suite(suite, reports, out["code"]), reports)


def queries_unit(seed, index, check):
    requests = workloads.queries_requests(seed, index, WORK / "ideals")
    raw, usage, out = run_drive({"mode": "queries", "requests": requests}, f"queries-{index}")
    results = out["results"]
    latencies = [r["s"] * speed.local_factor(out["speed"], r["start"], r["end"]) * 1e3
                 for r in results if r["code"] == 0]
    return Unit(raw, usage, out, latencies, checks.check_queries(check, requests, results),
                checks.query_digest_items(results))


def end_to_end(name, seed, seconds):
    suite = workloads.WORKLOADS[name]["suite"]
    setup, raw_setup = setup_seconds()
    check = checker() if suite is None else None
    units = []
    while sum(u.wall for u in units) < seconds:
        index = len(units)
        if suite is None:
            units.append(queries_unit(seed, index, check))
        else:
            units.append(verify_unit(suite, seed + index, index))
    latencies = sorted(ms for u in units for ms in u.latencies_ms)
    if not latencies:
        fail("no request succeeded: " + "; ".join(units[0].outcome.notes[:3]))
    metrics = {
        "wall_s": statistics.median(u.wall for u in units),
        "setup_s": setup,
        "peak_rss_mb": max(u.rss_mb for u in units),
        "request_p50_ms": statistics.median(latencies),
        "request_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8]
        if len(latencies) > 1 else latencies[0],
    }
    info = {"units": len(units), "requests": len(latencies), "raw_setup_s": raw_setup,
            "unit_walls_s": [u.wall for u in units],
            "raw_unit_walls_s": [u.raw_wall for u in units]}
    return units, metrics, info


def traced(name, seed):
    """The workload's first unit, untraced as in --trace 0, then the same
    work in one process with spans installed."""
    spec = workloads.WORKLOADS[name]
    job = {"mode": "traced", "suite": spec["suite"], "builds": list(spec["builds"]),
           "seed": seed, "spans_path": str(WORK / f"spans-{name}-{seed}.jsonl")}
    if spec["suite"] is None:
        check = checker()
        untraced = queries_unit(seed, 0, check)
        job["requests"] = workloads.queries_requests(seed, 0, WORK / "ideals")
        _, _, tr = run_drive(job, f"traced-{name}")
        outcome = checks.check_queries(check, job["requests"], tr["results"])
        digest = checks.digest(checks.query_digest_items(tr["results"]))
    else:
        untraced = verify_unit(spec["suite"], seed, 0)
        _, _, tr = run_drive(job, f"traced-{name}")
        outcome = checks.check_suite(spec["suite"], tr["reports"], tr["code"])
        digest = checks.digest(tr["reports"])
    traced_factor = speed.factor(tr["speed"])
    metrics = {k: v * traced_factor if k.endswith(("_s", "_ms")) else v
               for k, v in tr["layers"].items()}
    metrics.update(tr["kernels"])
    metrics["cli.cpu_s"] = untraced.cpu_s
    metrics["trace.wall_s"] = tr["drive_s"] * traced_factor
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced.drive_s
    metrics["trace.uncovered_share"] = tr["uncovered_share"]
    metrics["failed_share"] = outcome.failed / outcome.attempted
    untraced_digest = checks.digest(untraced.items)
    info = {"untraced_drive_s": untraced.drive_s, "raw_untraced_drive_s": untraced.raw_drive_s,
            "raw_trace_wall_s": tr["drive_s"], "digest_untraced": untraced_digest,
            "untraced_failed": untraced.outcome.failed, "untraced_wrong": untraced.outcome.wrong}
    consistent = untraced_digest == digest and untraced.outcome.wrong == 0
    return outcome, digest, metrics, info, consistent


def metadata():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "commit": commit,
            "src_lines": lines}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kleinepw" / "cli.py").is_file():
        fail(f"no package source at {SRC / 'kleinepw'}; run from a full checkout")
    declared = declared_metrics(args.trace)
    WORK.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))

    if args.trace:
        outcome, digest, values, info, consistent = traced(args.workload, args.seed)
    else:
        units, values, info = end_to_end(args.workload, args.seed, args.seconds)
        outcome = checks.Outcome()
        for u in units:
            outcome.merge(u.outcome)
        digest = checks.digest([item for u in units for item in u.items])
        consistent = True
    if set(values) != set(declared):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    info.update(metadata(), workload=args.workload, seed=args.seed, digest=digest,
                failed_share=outcome.failed / outcome.attempted, notes=outcome.notes)
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": outcome.wrong == 0 and consistent,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": values[k], "unit": declared[k]} for k in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
