"""Layered benchmark of iga-asp.

Each repetition runs one workload's specs through
``iga_asp.bench.run_experiment`` in a fresh worker process, one cell
after another, with BLAS pinned to one thread and every process pinned to
one vCPU.  Repetitions follow each other until ``--seconds`` is used up; the
figures are their medians.  Times are divided by the pace the worker
measured around the workload (see ``PACED``).  The last line printed is the
JSON result.

    python3 perfbench/run.py --workload sweep2d --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --record-reference    # rewrite reference.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    REFERENCE_FILE,
    WORKLOADS,
    cell_count,
    check_rows,
    specs_for,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# what a timed repetition measures; BENCHMARK.json picks the reported metrics
TIMED = ("wall_s", "setup_s", "solve_s", "cond_s", "peak_rss_mb", "iters_total")
TIME_CAP_S = 170.0
# Times reported at a reference pace.  On a shared host other tenants slow a
# vCPU by up to 1.7x in phases that outlast a whole run, so a median over one
# run's repetitions follows the host.  Each worker times a fixed kernel before
# the workload and after each spec (worker.pace_kernel_s); a repetition's
# times are divided by the kernel's mean time over its quiet-host value.  Raw medians are
# printed beside them.
PACED = ("wall_s", "setup_s", "solve_s", "cond_s")


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--trace-out", str(HERE / "out" / f"trace-{workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker for {workload} exited with "
                          f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    """Repeat the workload (untraced, or untraced and traced in turn)
    while the next repetition, allowing 10% for noise, still fits in
    ``seconds``."""
    start = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    step = 0.0
    while True:
        t = time.perf_counter()
        untraced.append(run_worker(workload, seed, False,
                                   deadline - time.perf_counter()))
        if trace:
            traced.append(run_worker(workload, seed, True,
                                     deadline - time.perf_counter()))
        step = max(step, time.perf_counter() - t)
        if time.perf_counter() - start + 1.1 * step > seconds:
            break

    n_cells = sum(cell_count(s) for s in specs_for(workload, seed))
    attempted = failed = 0
    messages: list[str] = []
    for rep in untraced + traced:
        bad, msgs = check_rows(workload, seed, rep["results"])
        if rep["problems"]:
            bad = n_cells
            msgs = [f"FAIL {workload}: {p}" for p in rep["problems"]] + msgs
        attempted += n_cells
        failed += bad
        messages += [m for m in msgs if m not in messages]

    shown = {name: statistics.median(
        r[name] / r["pace"] if name in PACED else r[name] for r in untraced)
        for name in TIMED}
    raw = {name: statistics.median(r[name] for r in untraced)
           for name in PACED}
    raw["pace"] = statistics.median(r["pace"] for r in untraced)
    shown["failed_frac"] = failed / attempted
    out = {"workload": workload, "seed": seed, "untraced_runs": len(untraced),
           "traced_runs": len(traced), "attempted": attempted,
           "failed": failed, "messages": messages, "shown": shown,
           "raw": raw,
           "env": untraced[-1]["env"]}
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(
            r["wall_s"] / r["pace"] for r in traced) - shown["wall_s"]
        out["layers"] = layers
        out["self_by_label"] = traced[-1]["self_by_label"]
    return out


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json asks for."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def contract_line(res: dict, trace: bool, units: dict[str, str]) -> dict:
    values = res["layers"] if trace else res["shown"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def report(res: dict, trace: bool, units: dict[str, str]) -> None:
    print(f"{res['workload']}  seed={res['seed']}  "
          f"untraced runs={res['untraced_runs']}  "
          f"traced runs={res['traced_runs']}  (medians)")
    timed_units = dict.fromkeys(TIMED, "s") | {"peak_rss_mb": "MB",
                                               "iters_total": "count",
                                               "failed_frac": "1"}
    for name, unit in timed_units.items():
        print(f"  {name:<14} {res['shown'][name]:>12.6g} {unit}")
    print("  unpaced: " + "  ".join(f"{name} {value:.6g}"
                                    for name, value in res["raw"].items()))
    if trace:
        for name, unit in units.items():
            print(f"  {name:<36} {res['layers'][name]:>14.6g} {unit}")
        top = sorted(res["self_by_label"].items(), key=lambda kv: -kv[1])[:5]
        print("  largest self times: " + ", ".join(
            f"{label} {secs:.3f} s" for label, secs in top))
    for msg in res["messages"]:
        print("  " + msg)
    print("env " + json.dumps(res["env"]))


def record_reference() -> None:
    """Run every workload once at the default seed and store its cells
    and timings as the reference."""
    deadline = time.perf_counter() + 3 * TIME_CAP_S
    ref = {"workloads": {}}
    for name in WORKLOADS:
        rep = run_worker(name, DEFAULT_SEED, False,
                         deadline - time.perf_counter())
        if rep["problems"] or any(isinstance(r, str) for r in rep["results"]):
            raise WorkerError(f"{name}: {rep['problems'] or rep['results']}")
        cells = [[{k: r[k] for k in ("problem", "dim", "p", "n", "tau",
                                     "precond", "curl_smoother", "iters",
                                     "kappa2", "l2_err")}
                  for r in rows] for rows in rep["results"]]
        ref["workloads"][name] = {
            "cells": cells,
            "timings": {k: rep[k] for k in ("wall_s", "setup_s", "solve_s",
                                            "cond_s", "peak_rss_mb")},
        }
        ref["env"] = rep["env"]
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    # this process and its workers share one vCPU, so each worker's pace
    # kernel runs on the core that runs its workload
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "iga_asp" / "__init__.py").is_file():
        print(f"no iga_asp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
            return 0
        trace = bool(args.trace)
        units = metric_units(trace)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            deadline = time.perf_counter() + TIME_CAP_S
            res = measure(name, args.seed, args.seconds, trace, deadline)
            report(res, trace, units)
            results[name] = contract_line(res, trace, units)
    except WorkerError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    line = results[names[0]] if len(names) == 1 else results
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
