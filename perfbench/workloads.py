"""Workloads of the benchmark, their tau jitter, and the correctness
checks every run is held to.

Specs are plain keyword dictionaries for ``iga_asp.bench.ExperimentSpec``
so that the orchestrating process never imports the program; only the
worker process does.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 0
JITTER_DECADES = 0.25
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Robustness bounds.  KAPPA_MAX is the paper's kappa_2 <= 30 bound for the
# Jacobi-smoothed ASP.  It is applied up to the top of the tau = 1e2 decade:
# above that the mass term dominates A and the Jacobi smoother's degree
# dependence shows (kappa_2 = 30.3, 53.3 and 61.3 at p = 3, tau >= 1e3 on the
# unmodified program), which is what the composite cycle exists to fix.
KAPPA_MAX = 30.0
KAPPA_TAU_MAX = 10.0 ** (2 + JITTER_DECADES)
GLT_2D_MAX_ITERS = 10

# Reference tolerances at the default seed.  An l2 error below
# L2_ERR_FLOOR is at the round-off level of a solve stopped at a 1e-6
# residual, so only its absolute change beyond the floor counts.
ITERS_SLACK = 1
REL_SLACK = 0.01
L2_ERR_FLOOR = 1e-8

DECADES = tuple(10.0 ** k for k in range(-4, 5))


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[dict, ...]] = {
    "sweep2d": (
        dict(problem="curl", dim=2, p_values=(1, 2, 3), n_values=(8, 16),
             tau_values=DECADES, precond="asp", smoother="jacobi",
             report=("iters", "cond", "errors"), cond_mode="dense"),
    ),
    "highp2d": (
        dict(problem="curl", dim=2, p_values=(6,), n_values=(64,),
             tau_values=(1e-4,), precond="asp-glt", smoother="jacobi",
             nu1=1, nu2_rule="psq", nu_asp=3, max_iter=200),
    ),
    "cube3d": (
        dict(problem="curl", dim=3, p_values=(2,), n_values=(16,),
             tau_values=(1e-4,), precond="asp", smoother="jacobi"),
        dict(problem="div", dim=3, p_values=(3,), n_values=(8,),
             tau_values=(1e-4,), precond="asp-glt", smoother="jacobi",
             nu2_rule="pcube", curl_smoother="diag"),
        dict(problem="div", dim=3, p_values=(3,), n_values=(8,),
             tau_values=(1e-4,), precond="asp-glt", smoother="jacobi",
             nu2_rule="pcube", curl_smoother="sgs"),
    ),
}


def jitter_taus(workload: str, seed: int) -> dict[float, float]:
    """Map each base tau of a workload to its value for ``seed``.

    The default seed keeps exact decades.  Any other seed moves each
    distinct base value log-uniformly within +-JITTER_DECADES; cells
    that share a base tau share the jittered value.
    """
    bases = sorted({t for spec in WORKLOADS[workload]
                    for t in spec["tau_values"]})
    if seed == DEFAULT_SEED:
        return {t: t for t in bases}
    rng = random.Random(f"{workload}:{seed}")
    return {t: t * 10.0 ** rng.uniform(-JITTER_DECADES, JITTER_DECADES)
            for t in bases}


def specs_for(workload: str, seed: int) -> list[dict]:
    """ExperimentSpec keyword sets of ``workload`` at ``seed``."""
    taus = jitter_taus(workload, seed)
    return [dict(spec, tau_values=tuple(taus[t] for t in spec["tau_values"]))
            for spec in WORKLOADS[workload]]


def cell_count(spec: dict) -> int:
    return (len(spec["p_values"]) * len(spec["n_values"])
            * len(spec["tau_values"]))


def tags(specs: list[dict]) -> set[str]:
    """Program paths the specs exercise; a wrapper tagged with one of
    these must see calls."""
    out = {"cells"}
    for s in specs:
        precond = s.get("precond", "none")
        report = s.get("report", ("iters",))
        if precond != "none":
            out.add("precond")
        if precond == "asp":
            out.add("asp")
        elif precond == "asp-glt":
            out.add("glt")
        if "cond" in report and precond != "asp-glt":
            out.add("cond")
        if "errors" in report and s["dim"] == 2:
            out.add("errors")
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def _cell_name(workload: str, spec_index: int, row: dict) -> str:
    return (f"{workload}[{spec_index}] {row['problem']} {row['dim']}-d "
            f"{row['precond']}/{row.get('curl_smoother', '')} p={row['p']} "
            f"n={row['n']} tau={row['tau']:.4g}")


def _differs(got, want, rel: float, floor: float = 0.0) -> bool:
    if want is None or got is None:
        return want is not got
    return abs(got - want) > rel * abs(want) + floor


def check_rows(workload: str, seed: int,
               results: list) -> tuple[int, list[str]]:
    """Check one run of ``workload``.

    ``results`` holds one entry per spec: its list of rows, or an error
    string if ``run_experiment`` raised.  Returns the number of failed
    cells and one message per failure.
    """
    specs = WORKLOADS[workload]
    if len(results) != len(specs):
        raise ValueError("one result per spec expected")
    bad: set[tuple[int, int]] = set()
    msgs: list[str] = []

    def fail(i: int, j: int, row: dict, why: str) -> None:
        bad.add((i, j))
        msgs.append(f"FAIL {_cell_name(workload, i, row)}: {why}")

    raised = 0
    for i, (spec, rows) in enumerate(zip(specs, results)):
        if isinstance(rows, str):
            raised += cell_count(spec)
            msgs.append(f"FAIL {workload}[{i}] raised: {rows}")
            continue
        if len(rows) != cell_count(spec):
            raised += cell_count(spec)
            msgs.append(f"FAIL {workload}[{i}]: {len(rows)} rows, "
                        f"expected {cell_count(spec)}")
            continue
        tol = spec.get("tol", 1e-6)
        for j, r in enumerate(rows):
            if not r["converged"]:
                fail(i, j, r, "did not converge")
            elif not r["res_err"] <= tol:
                fail(i, j, r, f"final true residual {r['res_err']:.3e} > {tol}")
            if (r["precond"] == "asp" and r["kappa2"] is not None
                    and r["tau"] <= KAPPA_TAU_MAX and r["kappa2"] > KAPPA_MAX):
                fail(i, j, r, f"kappa2 {r['kappa2']:.4g} > {KAPPA_MAX}")
            if (r["precond"] == "asp-glt" and r["dim"] == 2
                    and r["iters"] > GLT_2D_MAX_ITERS):
                fail(i, j, r, f"{r['iters']} iterations > {GLT_2D_MAX_ITERS}")

    # 3-D div: the sgs curl smoother may not need more iterations than diag
    div3 = {}
    for i, rows in enumerate(results):
        if isinstance(rows, str) or len(rows) != cell_count(specs[i]):
            continue
        for j, r in enumerate(rows):
            if r["problem"] == "div" and r["dim"] == 3:
                div3[(r["p"], r["n"], r["tau"], r["curl_smoother"])] = (i, j, r)
    for (p, n, tau, cs), (i, j, r) in div3.items():
        diag = div3.get((p, n, tau, "diag"))
        if cs == "sgs" and diag and r["iters"] > diag[2]["iters"]:
            fail(i, j, r, f"sgs takes {r['iters']} iterations, "
                          f"diag {diag[2]['iters']}")

    if seed == DEFAULT_SEED:
        ref = load_reference()["workloads"][workload]["cells"]
        for i, rows in enumerate(results):
            if isinstance(rows, str) or len(rows) != cell_count(specs[i]):
                continue
            for j, (r, want) in enumerate(zip(rows, ref[i])):
                for key in ("p", "n", "tau"):
                    if r[key] != want[key]:
                        fail(i, j, r, f"{key}: expected {want[key]}, "
                                      f"got {r[key]}")
                if abs(r["iters"] - want["iters"]) > ITERS_SLACK:
                    fail(i, j, r, f"iters: expected {want['iters']}, "
                                  f"got {r['iters']}")
                if _differs(r["kappa2"], want["kappa2"], REL_SLACK):
                    fail(i, j, r, f"kappa2: expected {want['kappa2']}, "
                                  f"got {r['kappa2']}")
                if _differs(r["l2_err"], want["l2_err"], REL_SLACK,
                            L2_ERR_FLOOR):
                    fail(i, j, r, f"l2_err: expected {want['l2_err']}, "
                                  f"got {r['l2_err']}")
    return raised + len(bad), msgs
