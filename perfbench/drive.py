"""Child process of the benchmark: runs one workload in-process.

    python3 perfbench/drive.py JOB.json OUT.json

JOB["mode"] is one of
  cli      one kleinepw.cli.main(argv) call, output to this process's stdout;
  queries  send each request through kleinepw.cli.main, untraced;
  traced   time the kernels, then run the workload with spans installed.
A traced run's untraced reference is a `cli` or `queries` run of the
same work.
Every mode samples the machine's speed while it works (see speed.py).
The package is imported from the checkout's src/ (PYTHONPATH), never from
an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import speed
from workloads import BUILD_METRICS

PRIME = 32003


def call_main(main, argv):
    """Exit code of one CLI call; a traceback counts as exit code 1, as it
    would for the installed command."""
    try:
        return main(argv) or 0
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception:  # noqa: BLE001 - the request fails, the run goes on
        traceback.print_exc()
        return 1


def run_request(main, argv, sampler):
    """One CLI request with stdout and stderr captured.  Its time excludes
    the speed samples the timer takes during it."""
    out, err = io.StringIO(), io.StringIO()
    spent = sampler.spent
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call_main(main, argv)
    end = perf_counter()
    return {"start": start, "end": end, "s": end - start - (sampler.spent - spent),
            "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def report_json(check_id, verdict, witness):
    witness = json.loads(json.dumps(witness, ensure_ascii=False, sort_keys=True))
    return {"check": check_id, "verdict": verdict, "witness": witness}


def run_queries(job, sampler, tracer=None):
    """The requests one after another.  In the `queries` mode each gets a
    speed sample just before and just after it, for its own latency."""
    from kleinepw import cli

    bracket = job["mode"] == "queries"
    results = []
    for req in job["requests"]:
        if bracket:
            sampler.sample()
        if tracer is None:
            results.append(run_request(cli.main, req["argv"], sampler))
        else:
            with tracer.span("cli.main." + req["kind"], "cli"):
                results.append(run_request(cli.main, req["argv"], sampler))
        if bracket:
            sampler.sample()
    return results


def run_suite_traced(job, tracer):
    """Each shared build in its own span, then verify.run_suite with the
    function of every registered check wrapped in a span of its own.
    Returns the reports and the exit code `klein-epw verify` would give."""
    from kleinepw import verify

    ctx = verify.VerifyContext(seed=job["seed"])
    for prop in job["builds"]:
        with tracer.span("verify.build." + prop, "verify"):
            getattr(ctx, prop)
    registered = list(verify.CHECKS)
    verify.CHECKS[:] = [(check_id, suites, statement,
                         spans.span_wrapper(tracer, "verify.check." + check_id, "verify", fn))
                        for check_id, suites, statement, fn in registered]
    try:
        reports = verify.run_suite(job["suite"], ctx)
    finally:
        verify.CHECKS[:] = registered
    return ([report_json(r.check_id, r.verdict, r.witness) for r in reports],
            verify.exit_code(reports))


# -- kernel micro-timings ------------------------------------------------


def _per_op(fn, ops, repeats=7):
    """Median over repeats of the time per operation of one batch, each
    scaled by calibrations taken just before it."""
    times = []
    for _ in range(repeats):
        slowness = speed.REFERENCE_S / statistics.fmean(speed.calibrate() for _ in range(3))
        start = perf_counter()
        fn()
        times.append((perf_counter() - start) / ops * slowness)
    return statistics.median(times)


def kernel_timings():
    """Fixed seeded batches, the same for every run: conductor-11
    products of group-matrix entries, 5x5 products of group elements,
    and products of two 12-term forms in 8 variables mod 32003."""
    from kleinepw import group
    from kleinepw.groebner import FPoly

    rng = random.Random("kernels")
    gens = [group.gen_a(), group.gen_c(), group.weil_outside_borel()]
    elems = []
    for _ in range(8):
        m = gens[rng.randrange(3)]
        for _ in range(5):
            m = group.mat_mul(m, gens[rng.randrange(3)])
        elems.append(m)
    mat_pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(12)]
    entries = [e for m in elems for row in m for e in row if not e.is_zero()]
    num_pairs = [(rng.choice(entries), rng.choice(entries)) for _ in range(400)]

    def form():
        terms = {}
        while len(terms) < 12:
            e = [0] * 8
            for _ in range(rng.choice((2, 3))):
                e[rng.randrange(8)] += 1
            terms[tuple(e)] = rng.randrange(1, PRIME)
        return FPoly(PRIME, 8, terms)

    poly_pairs = [(form(), form()) for _ in range(60)]
    return {
        "cyclo.mul_ns": _per_op(lambda: [a * b for a, b in num_pairs], len(num_pairs)) * 1e9,
        "group.mat_mul_us": _per_op(lambda: [group.mat_mul(a, b) for a, b in mat_pairs],
                                    len(mat_pairs)) * 1e6,
        "groebner.fpoly_mul_ns": _per_op(lambda: [a * b for a, b in poly_pairs],
                                         len(poly_pairs)) * 1e9,
    }


# -- per-layer metrics ---------------------------------------------------


def layer_metrics(tracer):
    spans_ = tracer.spans
    durations = spans.by_name(spans_)
    counts = {k: v[0] for k, v in tracer.counts.items()}
    tallies = tracer.tallies

    def total(name):
        return sum(durations.get(name, ()))

    def med_ms(name):
        return spans.median_or_zero(durations.get(name, [])) * 1e3

    m = {metric: total("verify.build." + prop) for prop, metric in BUILD_METRICS.items()}
    m["verify.checks_s"] = sum(d for name, ds in durations.items()
                               if name.startswith("verify.check.") for d in ds)
    for name in ("generate_group", "conjugacy_classes", "invariant_hermitian",
                 "stabilizer", "character"):
        m[f"group.{name}_s"] = total(f"group.{name}")
    m["group.mat_mul_calls"] = counts.get("group.mat_mul", 0)
    m["cyclo.mul_calls"] = counts.get("cyclo.__mul__", 0)
    m["cyclo.inverse_calls"] = counts.get("cyclo.inverse", 0)
    for name in ("sextic_equation", "sextic_via_interpolation", "fixed_locus",
                 "sextic_fixed_point_count"):
        m[f"epw.{name}_s"] = total(f"epw.{name}")
    m["epw.stratum_calls"] = counts.get("epw.stratum", 0)
    m["epw.stratum_ms"] = med_ms("epw.stratum")
    m["poly.mul_calls"] = counts.get("poly.__mul__", 0)
    m["poly.evaluate_calls"] = counts.get("poly.evaluate", 0)
    m["linalg.rank_calls"] = counts.get("linalg.rank", 0)
    m["linalg.rank_s"] = total("linalg.rank")
    m["linalg.smith_normal_form_ms"] = med_ms("linalg.smith_normal_form")
    m["lattices.disc_group_ms"] = med_ms("lattices.disc_group")
    m["lattices.short_vectors_ms"] = med_ms("lattices.short_vectors")
    m["lattices.short_vectors_found"] = tallies.get("lattices.short_vectors_found", 0)
    m["hermitian.herm_det_ms"] = med_ms("hermitian.herm_det")
    m["hermitian.polarization_invariants_ms"] = med_ms("hermitian.polarization_invariants")
    nf = counts.get("groebner.normal_form", 0)
    m["groebner.buchberger_s"] = total("groebner.buchberger")
    m["groebner.buchberger_calls"] = counts.get("groebner.buchberger", 0)
    m["groebner.normal_form_calls"] = nf
    m["groebner.useful_reduction_share"] = (
        tallies.get("groebner.normal_form_nonzero", 0) / nf if nf else 0.0)
    m["groebner.jacobian_minors_s"] = total("groebner.jacobian_minors")
    m["groebner.minors_used"] = tallies.get("groebner.minors_used", 0)
    m["groebner.basis_size"] = tallies.get("groebner.basis_size", 0)
    m["groebner.small_ideal_ms"] = med_ms("cli.main.groebner")
    m["textform.parse_polynomial_ms"] = med_ms("textform.parse_polynomial")
    m["textform.emit_polynomial_ms"] = med_ms("textform.emit_polynomial")
    selfs = spans.layer_self_times(spans_)
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return m


def peak_rss_mb():
    """This process's peak resident set size since it started the
    interpreter.  (getrusage's figure would also count the memory of the
    parent it was forked from, which the kernel carries over the exec.)"""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def main(job_path, out_path):
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    root = Path(job["root"]).resolve()
    import kleinepw

    if root / "src" not in Path(kleinepw.__file__).resolve().parents:
        raise SystemExit(f"kleinepw imported from {kleinepw.__file__}, not from {root / 'src'}")
    import kleinepw.cli  # noqa: F401 - every module loaded before wrapping

    out = {}
    mode = job["mode"]
    tracer = None
    with speed.Sampler() as sampler:
        if mode == "traced":
            out["kernels"] = kernel_timings()
            tracer = spans.Tracer()
            undo = spans.install(tracer)
        start, spent = perf_counter(), sampler.spent
        try:
            if mode == "cli":
                out["code"] = call_main(kleinepw.cli.main, job["argv"])
            elif job.get("requests") is not None:
                out["results"] = run_queries(job, sampler, tracer)
            else:
                out["reports"], out["code"] = run_suite_traced(job, tracer)
        finally:
            wall = perf_counter() - start
            out["drive_s"] = wall - (sampler.spent - spent)
            if tracer is not None:
                spans.uninstall(undo)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        out["uncovered_share"] = 1 - spans.top_level_seconds(tracer.spans) / wall
        tracer.write(job["spans_path"])
    out["speed"] = sampler.samples
    out["calibration_s"] = sampler.spent
    out["peak_rss_mb"] = peak_rss_mb()
    Path(out_path).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:3])
