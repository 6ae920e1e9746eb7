"""Record one change's benchmark numbers in BENCH_<N>.json.

    python3 tools/bench_record.py --number N

Run from anywhere in a full checkout; it needs only the standard library.
It runs one fresh `klein-epw --json verify groebner --slow` process, then
perfbench/run.py with --trace 0 on each workload that BENCHMARK.json
declares (seed 1, BENCHMARK.json's run_seconds) and with --trace 1 on
verify-groebner, times three fresh `klein-epw --json verify all`
processes, and writes BENCH_<N>.json at the root of the checkout with:

* for each workload, its end-to-end metrics (perfbench reports the median
  over the run's units), whether it was correct and how many requests
  failed;
* the median and the runs of the fresh-process `verify all` wall time, in
  raw seconds;
* the Python version, the CPU count and the commit (with "dirty" when the
  tree has changes);
* the line count of src/kleinepw/*.py;
* the traced groebner.* layer numbers of verify-groebner;
* the slow tier: the `verify groebner --slow` process's raw wall seconds,
  exit code and peak RSS, and the verdict and witness of its
  groebner.singular-surface-smooth report.

A CHANGES.md entry quotes the file of its change against its parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
VERIFY_ALL_RUNS = 3


def perfbench(workload, seconds, trace):
    """The result line of one perfbench run: correct, failed and metrics."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def verify_groebner_slow():
    """One fresh `klein-epw --json verify groebner --slow` process: raw wall
    seconds, exit code, peak RSS and the singular surface's report.  The
    peak RSS is RUSAGE_CHILDREN's, the largest of the children waited for
    so far, so this must run before any other child."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys; from kleinepw.cli import main; "
            "sys.exit(main(['--json', 'verify', 'groebner', '--slow']))")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    wall = round(time.perf_counter() - start, 3)
    # ru_maxrss is in KiB on Linux
    rss_mb = round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1)
    reports = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    surface = next((r for r in reports if r["check"] == "groebner.singular-surface-smooth"), {})
    return {"wall_s": wall, "exit_code": proc.returncode, "peak_rss_mb": rss_mb,
            "surface_verdict": surface.get("verdict"),
            "surface_witness": surface.get("witness")}


def verify_all_walls():
    """Raw wall seconds of fresh `klein-epw --json verify all` processes."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys; from kleinepw.cli import main; sys.exit(main(['--json', 'verify', 'all']))"
    walls = []
    for _ in range(VERIFY_ALL_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        walls.append(round(time.perf_counter() - start, 3))
    return walls


def commit():
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout
    head = git("rev-parse", "--short", "HEAD").strip() or None
    return f"{head} dirty" if head and git("status", "--porcelain", "--", "src") else head


def record(number):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    slow = verify_groebner_slow()
    workloads = {}
    for w in spec["workloads"]:
        result = perfbench(w["name"], seconds, 0)
        workloads[w["name"]] = {
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    traced = perfbench("verify-groebner", seconds, 1)["metrics"]
    walls = verify_all_walls()
    return {
        "number": number,
        "commit": commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "run_seconds": seconds,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src" / "kleinepw").glob("*.py"))),
        "workloads": workloads,
        "verify_all_wall_s": {"median": statistics.median(walls), "runs": walls},
        "groebner_layers": {k: v["value"] for k, v in traced.items()
                            if k.startswith("groebner.")},
        "verify_groebner_slow": slow,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="N of BENCH_<N>.json")
    args = parser.parse_args(argv)
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record(args.number), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(path)


if __name__ == "__main__":
    main()
