"""Tests of the benchmark itself: seeded inputs, repeatable traced
counters, tracer cross-checks, workload separation and the smoke mode.

    python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench_jobs as bj  # noqa: E402
import bench_trace as bt  # noqa: E402


def run_bench(workload, *extra, seed=3, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_same_jobs_different_seed_different_inputs():
    for w in bj.WORKLOADS:
        for smoke in (False, True):
            a = [bj.make_round(w, 5, r, smoke) for r in range(3)]
            b = [bj.make_round(w, 5, r, smoke) for r in range(3)]
            assert json.dumps(a) == json.dumps(b)
            c = [bj.make_round(w, 6, r, smoke) for r in range(3)]
            assert json.dumps([[j["params"] for j in rnd] for rnd in a]) != \
                json.dumps([[j["params"] for j in rnd] for rnd in c])


def test_tracer_binds_every_importing_module_and_restores():
    from logtorus import fundsol, operators, pencil, subfunc, subminorant
    originals = (pencil.rho_min, subminorant.rho_min, operators.assemble,
                 subfunc.assemble, operators.LinearSystem.__init__,
                 fundsol._weier_term)
    with bt.Tracer().install(extra_modules=[bj]):
        assert subminorant.rho_min is pencil.rho_min is not originals[0]
        assert subfunc.assemble is operators.assemble is not originals[2]
        assert bj.pencil.rho_min is pencil.rho_min
        assert fundsol._weier_term is not originals[5]
    assert (pencil.rho_min, subminorant.rho_min, operators.assemble,
            subfunc.assemble, operators.LinearSystem.__init__,
            fundsol._weier_term) == originals


def test_cross_checks_compare_observed_counts_with_public_ones():
    jobs = [j for j in bj.make_round("potentials", 0, 0, smoke=True)
            if j["cls"] in ("kernels", "green")]
    public = {}
    with bt.Tracer().install(extra_modules=[bj]) as tracer:
        tracer.armed = True
        for job in jobs:
            tracer.job = job["id"]
            public[job["id"]] = bj.public_counts(job, bj.execute(job, bj.prepare(job)))
        tracer.armed = False
    assert bt.cross_checks(tracer.spans, public) == []
    seen = bt.observed_counts(tracer.spans)
    assert sum(c["weierstrass_shifts"] for c in seen.values()) > 0
    assert sum(c["green_columns"] for c in seen.values()) > 0
    for job in jobs:
        for key in ("weierstrass_shifts", "green_columns"):
            off = {j: dict(c) for j, c in public.items()}
            off[job["id"]][key] += 1
            assert len(bt.cross_checks(tracer.spans, off)) == 1


@pytest.mark.parametrize("workload", bj.WORKLOADS)
def test_traced_smoke_counters_repeat_and_cross_checks_hold(workload):
    runs = [run_bench(workload, "--trace", "1") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "cross-check FAILED" not in proc.stdout
    a, b = (result(p) for p in runs)
    assert a["correct"] and a["failed"] == 0
    assert set(a["metrics"]) == set(b["metrics"])
    for name, m in a["metrics"].items():
        if m["unit"] in ("count", "ratio") and name != "bench.trace_overhead_frac":
            assert m["value"] == b["metrics"][name]["value"], name
    calls = {k: m["value"] for k, m in a["metrics"].items() if k.endswith(".calls")}
    if workload != "critical":
        assert all(v == 0 for k, v in calls.items() if k.startswith("pencil."))
    if workload != "potentials":
        assert all(v == 0 for k, v in calls.items() if k.startswith("fundsol."))
    if workload != "obstacles":
        assert calls["subminorant.maximal_subminorant.calls"] == 0
    else:
        assert a["metrics"]["subminorant.active_set_steps"]["value"] > 0


def test_smoke_run_prints_end_to_end_metrics():
    proc = run_bench("growth")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {
        "setup_s": "s", "job_s.p50": "s", "job_s.tail": "s", "jobs_per_s": "1/s",
        "err_over_tol.max": "ratio", "peak_rss_mb": "MB"}
    assert "failed_frac 0.0000" in proc.stdout


def test_known_failures_still_fail():
    """The classes kept out of the rounds fail at smoke size, so they
    would count as failed jobs."""
    tube, = bj.known_failure_jobs("critical", 0, smoke=True)
    with pytest.raises(bj.CheckFailed, match="bare None"):
        bj.check(tube, None, bj.execute(tube, None))
    obstacle, = bj.known_failure_jobs("obstacles", 0, smoke=True)
    assert bj.label(obstacle) == "obstacle/sign_changing"
    inp = bj.prepare(obstacle)
    with pytest.raises(Exception):
        bj.check(obstacle, inp, bj.execute(obstacle, inp))


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("growth", cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
