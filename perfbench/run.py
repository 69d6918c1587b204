#!/usr/bin/env python3
"""logtorus benchmark: run one workload as a closed loop with one client.

    python3 perfbench/run.py --workload critical --seed 1 --seconds 20 --trace 0

Each job is sent only after the previous one returned, in a single
process.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it print every metric with its unit, the
failing job classes and the environment.  See perfbench/README.md.
"""

import math
import os
import sys
import time

T_PROCESS = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

SETUP_REPS = 3          # set-up is repeated and its median reported
TRACE_ROUNDS = 2        # the traced run covers a fixed job list


def cap_threads():
    """Cap the BLAS/OpenMP pools at the CPUs this process may use; must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            have = int(os.environ.get(var, ""))
        except ValueError:
            have = 0
        os.environ[var] = str(min(have, nproc) if have > 0 else nproc)
    return nproc


def parse_args(argv, workloads):
    import argparse
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(nproc):
    import platform
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:       # the config layout differs across numpy builds
        pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "omp_threads": int(os.environ["OMP_NUM_THREADS"])}


# ----------------------------------------------------------------------
# running jobs
# ----------------------------------------------------------------------

def run_job(bj, job, inp, tracer=None):
    """Execute and check one job.  Returns (seconds, error over
    tolerance, error message, output); the message is None when the
    answer passed its reference check, the output None when the call
    raised."""
    t = time.perf_counter()
    ratio, error, out = None, None, None
    try:
        if tracer is None:
            out = bj.execute(job, inp)
            ratio = bj.check(job, inp, out)
        else:
            tracer.job = job["id"]
            tracer.armed = True
            try:
                out = bj.execute(job, inp)
                ratio = tracer.span("bench.check", bj.check, job, inp, out)
            finally:
                tracer.armed = False
        if not ratio < 1.0:
            error = f"error/tolerance {ratio:.3g} >= 1"
    except bj.CheckFailed as exc:
        error = f"check: {exc}"
    except Exception as exc:  # a raising job is a failed job, not a crash
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t
    return dt, ratio, error, out


def setup_once(bj, workload, seed, smoke):
    """Input generation and a warm-up round at smoke size (untimed by
    the closed loop; fills lazy imports and allocator caches)."""
    t = time.perf_counter()
    for job in bj.warmup_round(workload, seed):
        run_job(bj, job, bj.prepare(job))
    bj.make_round(workload, seed, 0, smoke=smoke)
    return time.perf_counter() - t


def tail(times):
    """Highest percentile with at least 10 jobs beyond it, and that
    percentile; the maximum (100) when there are fewer than 11 jobs."""
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


class Record:
    def __init__(self):
        self.times, self.ratios, self.failures = [], [], []
        self.attempted = 0

    def add(self, label, job_id, dt, ratio, error):
        self.attempted += 1
        self.times.append(dt)
        if ratio is not None and math.isfinite(ratio):
            self.ratios.append(ratio)
        if error is not None:
            self.failures.append((label, job_id, error))

    def failing_classes(self):
        out = {}
        for cls, _, _ in self.failures:
            out[cls] = out.get(cls, 0) + 1
        return out


def timed_loop(bj, args):
    """SAMPLE_ROUNDS whole rounds, then more until --seconds of job time
    have elapsed.  Returns the record of every job, the job times of the
    first SAMPLE_ROUNDS rounds (the same job list on every commit, so
    that p50 and tail keep their rank), the elapsed time, the rounds run
    and the throughput."""
    rec = Record()
    sample = bj.SAMPLE_ROUNDS[args.workload]
    elapsed, rnd = 0.0, 0
    while rnd < sample or elapsed < args.seconds:
        jobs = bj.make_round(args.workload, args.seed, rnd, smoke=args.smoke)
        inputs = [bj.prepare(j) for j in jobs]
        t = time.perf_counter()
        for job, inp in zip(jobs, inputs):
            rec.add(bj.label(job), job["id"], *run_job(bj, job, inp)[:3])
        elapsed += time.perf_counter() - t
        rnd += 1
    sample_times = rec.times[:sample * len(bj.ROUNDS[args.workload])]
    return rec, sample_times, elapsed, rnd, rec.attempted / elapsed


def traced_loop(bj, bt, args):
    """Fixed job list, each job run untraced and traced (order
    alternating), so counters repeat exactly and the overhead is paired."""
    rec = Record()
    public = {}         # job id -> counts from its request and output
    plain_s = traced_s = 0.0
    jobs = [j for r in range(TRACE_ROUNDS)
            for j in bj.make_round(args.workload, args.seed, r, smoke=args.smoke)]
    with bt.Tracer().install(extra_modules=[bj]) as tracer:
        for pos, job in enumerate(jobs):
            inp = bj.prepare(job)
            for with_tracer in ((False, True) if pos % 2 else (True, False)):
                dt, ratio, error, out = run_job(bj, job, inp,
                                                tracer if with_tracer else None)
                if not with_tracer:
                    plain_s += dt
                    continue
                traced_s += dt
                rec.add(bj.label(job), job["id"], dt, ratio, error)
                if out is not None:
                    public[job["id"]] = bj.public_counts(job, out)
    metrics = bt.layer_metrics(tracer.spans)
    metrics["bench.trace_overhead_frac"] = 1.0 - plain_s / traced_s if traced_s else 0.0
    return rec, tracer, metrics, bt.cross_checks(tracer.spans, public)


def unit_of(name):
    if name.endswith(("_s", ".busy_s", ".self_s")):
        return "s"
    if name.endswith(("_per_rho_min", "_per_returned", "_per_step", "_frac")):
        return "ratio"
    return "count"


def main(argv=None):
    nproc = cap_threads()
    if not os.path.isfile(os.path.join(SRC, "logtorus", "__init__.py")):
        print(f"error: no logtorus sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import json
    import resource
    import statistics

    import logtorus
    if not os.path.abspath(logtorus.__file__).startswith(SRC + os.sep):
        print(f"error: imported logtorus from {logtorus.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench_jobs as bj
    import bench_trace as bt

    args = parse_args(argv, bj.WORKLOADS)
    import_s = time.perf_counter() - T_PROCESS
    passes = [setup_once(bj, args.workload, args.seed, args.smoke)
              for _ in range(SETUP_REPS)]
    setup_s = import_s + statistics.median(passes)
    env = environment(nproc)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    ok = True
    if args.trace:
        rec, tracer, layer, fails = traced_loop(bj, bt, args)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layer.items())}
        for msg in fails:
            print(f"cross-check FAILED: {msg}")
        ok = not fails
    else:
        first_job_s = time.perf_counter() - T_PROCESS
        rec, sample, elapsed, rounds, jobs_per_s = timed_loop(bj, args)
        t_tail, pct = tail(sample)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_s.p50": {"value": statistics.median(sample), "unit": "s"},
            "job_s.tail": {"value": t_tail, "unit": "s"},
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "err_over_tol.max": {"value": max(rec.ratios, default=0.0),
                                 "unit": "ratio"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
        print(f"timed phase {elapsed:.2f} s, {rounds} rounds, "
              f"{rec.attempted} jobs; set-up {setup_s:.3f} s (imports "
              f"{import_s:.3f} s plus the median of {SETUP_REPS} passes "
              f"{', '.join(f'{t:.3f}' for t in passes)}); process start to "
              f"first timed job {first_job_s:.3f} s")
        print(f"job_s.p50 and job_s.tail (p{pct:.1f}) over the {len(sample)} "
              f"jobs of the first {bj.SAMPLE_ROUNDS[args.workload]} rounds")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    failed = len(rec.failures)
    classes = rec.failing_classes()
    print(f"failed_frac {failed / rec.attempted:.4f} ({failed}/{rec.attempted}); "
          f"failing classes: "
          + (", ".join(f"{c} x{n}" for c, n in sorted(classes.items())) or "none"))
    for cls, jid, err in rec.failures:
        print(f"  job {jid} [{cls}]: {err}")
    print(json.dumps({"correct": ok and failed == 0, "attempted": rec.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
