"""Record one change's benchmark numbers in BENCH_<N>.json.

    python3 tools/bench_record.py --number N

Run from anywhere in a full checkout; it needs only the standard library.
It runs three fresh `klein-epw --json verify groebner --slow` processes, then
perfbench/run.py with --trace 0 on each workload that BENCHMARK.json
declares (seed 1, BENCHMARK.json's run_seconds) and with --trace 1 on
verify-groebner and on queries, times three fresh `klein-epw --json verify
all` processes, and writes BENCH_<N>.json at the root of the checkout with:

* for each workload, its end-to-end metrics (perfbench reports the median
  over the run's units), whether it was correct and how many requests
  failed;
* the median and the runs of the fresh-process `verify all` wall time, in
  raw seconds;
* the Python version, the CPU count and the commit (with "dirty" when the
  tree has changes);
* the line count of src/kleinepw/*.py;
* the traced groebner.* layer numbers of verify-groebner;
* the traced layer numbers of queries named in QUERIES_LAYERS: the text
  handling, the lattice kernels, the small groebner requests, the
  polynomial products and the CLI's self time;
* the slow tier: the median raw wall seconds and peak RSS of the three
  `verify groebner --slow` processes, each process's own, the first
  nonzero exit code (0 when all pass), and the verdict and witness of the
  last one's groebner.singular-surface-smooth report.

A CHANGES.md entry quotes the file of its change against its parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SLOW_RUNS = 3
VERIFY_ALL_RUNS = 3
QUERIES_LAYERS = ("textform.parse_polynomial_ms", "textform.emit_polynomial_ms",
                  "lattices.short_vectors_ms", "lattices.disc_group_ms",
                  "groebner.small_ideal_ms", "poly.mul_calls", "cli.self_s")


def perfbench(workload, seconds, trace):
    """The result line of one perfbench run: correct, failed and metrics."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def verify_groebner_slow():
    """SLOW_RUNS fresh `klein-epw --json verify groebner --slow` processes:
    the medians of their raw wall seconds and peak RSS, each run's, and the
    singular surface's report.  Each peak RSS is the child's own, from the
    rusage that os.wait4 returns for it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys; from kleinepw.cli import main; "
            "sys.exit(main(['--json', 'verify', 'groebner', '--slow']))")
    runs = []
    for _ in range(SLOW_RUNS):
        with tempfile.TemporaryFile("w+", encoding="utf-8") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env, stdout=out)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = round(time.perf_counter() - start, 3)
            out.seek(0)
            reports = [json.loads(line) for line in out if line.strip()]
        # ru_maxrss is in KiB on Linux
        runs.append({"wall_s": wall, "exit_code": os.waitstatus_to_exitcode(status),
                     "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)})
    surface = next((r for r in reports if r["check"] == "groebner.singular-surface-smooth"), {})
    return {"wall_s": statistics.median(r["wall_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "exit_code": next((r["exit_code"] for r in runs if r["exit_code"]), 0),
            "runs": runs,
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
    queries = perfbench("queries", seconds, 1)["metrics"]
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
        "queries_layers": {k: queries[k]["value"] for k in QUERIES_LAYERS},
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
