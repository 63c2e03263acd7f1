"""Tests of the benchmark's own machinery: tracing, checks and jitter."""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import iga_asp.bench as bench  # noqa: E402
import run  # noqa: E402
from run import TIMED, metric_units  # noqa: E402
from tracing import (  # noqa: E402
    COARSE_POINTS,
    TRACE_POINTS,
    Point,
    Tracer,
    _resolve,
    layer_metrics,
)
from worker import pace_sample_s  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    JITTER_DECADES,
    WORKLOADS,
    check_rows,
    jitter_taus,
    load_reference,
    specs_for,
    tags,
)

# every program path the benchmark wraps, at sizes that run in a second
TINY = [
    dict(problem="curl", dim=2, p_values=(1, 2), n_values=(4,),
         tau_values=(1e-2, 1e2), precond="asp",
         report=("iters", "cond", "errors"), cond_mode="dense"),
    dict(problem="curl", dim=2, p_values=(2,), n_values=(4,),
         tau_values=(1e-2,), precond="asp-glt", max_iter=200),
    dict(problem="div", dim=3, p_values=(1,), n_values=(3,),
         tau_values=(1e-2,), precond="asp-glt", nu2_rule="pcube",
         curl_smoother="sgs"),
]


def _run(run_experiment) -> list[dict]:
    rows = [r for kw in TINY
            for r in run_experiment(bench.ExperimentSpec(**kw))]
    for r in rows:
        r.pop("wall_ms")
    return rows


def _traced_run():
    with Tracer(TRACE_POINTS) as tr:
        t0 = time.perf_counter()
        rows = _run(tr.span(Tracer.ROOT, bench.run_experiment))
        wall = time.perf_counter() - t0
    return tr, rows, wall


def test_traced_rows_match_untraced_bit_for_bit():
    originals = [_resolve(t)[2] for p in TRACE_POINTS for t in p.targets]
    plain = _run(bench.run_experiment)
    tr, traced, _ = _traced_run()
    assert json.dumps(traced) == json.dumps(plain)
    assert tr.problems(tags(TINY)) == []
    assert [_resolve(t)[2] for p in TRACE_POINTS for t in p.targets] == originals


def test_self_times_are_non_negative_and_within_wall():
    tr, _, wall = _traced_run()
    own = tr.self_times()
    assert len(own) > 100
    assert min(own) >= -1e-9
    assert sum(own) <= wall
    roots = [s for s in tr.spans if s[3] == -1]
    assert {s[0] for s in roots} == {Tracer.ROOT}
    assert math.isclose(sum(own), sum(s[2] - s[1] for s in roots),
                        rel_tol=1e-9)


def test_metric_names_match_benchmark_json():
    assert set(metric_units(trace=False)) <= set(TIMED)
    tr, _, _ = _traced_run()
    assert set(metric_units(trace=True)) == (set(layer_metrics(tr))
                                             | {"trace.overhead_s"})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # highp2d is defined but left out of BENCHMARK.json (see README)
    names = [w["name"] for w in spec["workloads"]]
    assert names == [name for name in WORKLOADS if name in names]
    assert "sweep2d" in names and "cube3d" in names


def _reference_rows(workload: str) -> list[list[dict]]:
    cells = load_reference()["workloads"][workload]["cells"]
    return [[dict(c, converged=True, res_err=5e-7) for c in spec]
            for spec in cells]


def test_check_accepts_reference_and_rejects_doctored_rows():
    rows = _reference_rows("sweep2d")
    assert check_rows("sweep2d", DEFAULT_SEED, rows) == (0, [])

    bad = copy.deepcopy(rows)
    bad[0][3]["converged"] = False
    assert check_rows("sweep2d", DEFAULT_SEED, bad)[0] == 1

    bad = copy.deepcopy(rows)
    bad[0][5]["iters"] += 2
    failed, msgs = check_rows("sweep2d", DEFAULT_SEED, bad)
    assert failed == 1
    want = rows[0][5]["iters"]
    assert f"iters: expected {want}, got {want + 2}" in msgs[0]

    bad = copy.deepcopy(rows)
    small_tau = next(j for j, r in enumerate(bad[0]) if r["tau"] <= 1.0)
    bad[0][small_tau]["kappa2"] = 31.0
    # off the default seed only the kappa bound can catch it
    failed, msgs = check_rows("sweep2d", DEFAULT_SEED + 1, bad)
    assert failed == 1 and "kappa2 31 > 30" in msgs[0]

    failed, msgs = check_rows("sweep2d", DEFAULT_SEED,
                              ["RuntimeError: boom"])
    assert failed == 54 and "boom" in msgs[0]


def test_check_rejects_glt_and_smoother_swap_regressions():
    rows = _reference_rows("highp2d")
    assert check_rows("highp2d", DEFAULT_SEED + 1, rows) == (0, [])
    rows[0][0]["iters"] = 11
    assert check_rows("highp2d", DEFAULT_SEED + 1, rows)[0] == 1

    rows = _reference_rows("cube3d")
    assert check_rows("cube3d", DEFAULT_SEED, rows) == (0, [])
    rows[2][0]["iters"] = rows[1][0]["iters"] + 1      # sgs above diag
    failed, msgs = check_rows("cube3d", DEFAULT_SEED + 1, rows)
    assert failed == 1 and "sgs takes" in msgs[0]


def test_times_are_divided_by_each_repetitions_pace(monkeypatch):
    reps = iter([(10.0, 1.0), (30.0, 2.0), (12.0, 1.2)])
    clock = [0.0]       # each repetition takes 10 s: three fit in 35 s

    def fake_worker(workload, seed, traced, timeout):
        clock[0] += 10.0
        wall, pace = next(reps)
        return dict(wall_s=wall, setup_s=wall / 2, solve_s=1.0, cond_s=0.0,
                    peak_rss_mb=100.0, iters_total=723, pace=pace,
                    results=_reference_rows("sweep2d"), problems=[], env={})

    monkeypatch.setattr(run, "run_worker", fake_worker)
    monkeypatch.setattr(run, "time", SimpleNamespace(
        perf_counter=lambda: clock[0]))
    res = run.measure("sweep2d", DEFAULT_SEED, 35.0, False, math.inf)
    assert res["untraced_runs"] == 3 and res["failed"] == 0
    assert res["shown"]["wall_s"] == 10.0           # median of 10, 15, 10
    assert res["shown"]["setup_s"] == 5.0
    assert res["shown"]["peak_rss_mb"] == 100.0     # not paced
    assert res["raw"]["wall_s"] == 12.0 and res["raw"]["pace"] == 1.2


def test_pace_sample_leaves_peak_rss_alone():
    import resource

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert 0.0 < pace_sample_s() < 60.0
    # the kernel's sparse matrix alone is about 20 MB
    grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    assert grown_kb < 4096


def test_tau_jitter_is_deterministic_and_exact_at_default_seed():
    for name, specs in WORKLOADS.items():
        exact = jitter_taus(name, DEFAULT_SEED)
        assert all(k == v for k, v in exact.items())
        assert specs_for(name, DEFAULT_SEED) == list(specs)
        a, b = jitter_taus(name, 7), jitter_taus(name, 7)
        assert a == b and a != jitter_taus(name, 8)
        for base, tau in a.items():
            shift = math.log10(tau / base)
            assert 0.0 < abs(shift) <= JITTER_DECADES


def test_guard_names_missing_and_idle_wrappers():
    gone = Point("bench.gone", "leaf", "cells",
                 ("iga_asp.bench:no_such_function",))
    with Tracer(COARSE_POINTS + (gone,)) as tr:
        pass
    problems = tr.problems({"cells"})
    assert "wrapped function iga_asp.bench:no_such_function not found" in problems
    assert any(p.startswith("krylov.pcg saw no calls") for p in problems)
    # wrappers whose path the workload does not take may stay idle
    assert not any(p.startswith("krylov.cond") for p in problems)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep2d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
