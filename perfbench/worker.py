"""Run one workload once, in a fresh process, and print what it measured
as one JSON line.  ``run.py`` starts one of these per repetition.

    python3 perfbench/worker.py --workload sweep2d --seed 0 --trace 0
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracing import COARSE_POINTS, TRACE_POINTS, Tracer, layer_metrics
from workloads import specs_for, tags

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library reports."""
    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) >= 6 and "openblas" in fields[-1].lower():
                libs.add(fields[-1])
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(path).name] = fn()
                break
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "iga_asp").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# Seconds the pace kernel takes on a quiet 2-vCPU Xeon VM (3.11, numpy 2,
# OpenBLAS, one thread); run.py divides program times by the measured pace.
PACE_REF_S = 0.2


def pace_kernel_s() -> float:
    """Time a fixed mix of the work the program does: interpreted loops,
    a small dense eigensolve and sparse matrix-vector products.  It never
    touches the program, so a change to the program cannot move it."""
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    d = rng.random((200, 200))
    d = d + d.T
    n = 200_000
    offsets = (0, 1, 2, 60, 61, 3600, 3601, 3602)   # ~20 MB, past L2
    a = sp.diags([rng.random(n - k) for k in offsets], offsets, format="csr")
    x = rng.random(n)
    t = time.perf_counter()
    acc = 0
    for i in range(1_200_000):
        acc += i * i
    for _ in range(20):
        np.linalg.eigvalsh(d)
    for _ in range(30):
        x = a @ x
        x /= np.abs(x).max()
    return time.perf_counter() - t


def pace_sample_s() -> float:
    """``pace_kernel_s`` in a forked child, so that the kernel's memory stays
    out of this process's peak RSS."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            os.write(w, repr(pace_kernel_s()).encode())
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as f:
        data = f.read()
    os.waitpid(pid, 0)
    return float(data)


def _write_trace(path: Path, tracer, header: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    own = tracer.self_times()
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for i, (s, self_s) in enumerate(zip(tracer.spans, own)):
            f.write(json.dumps({"id": i, "name": s[0], "start": s[1] - t0,
                                "end": s[2] - t0, "parent": s[3],
                                "cell": s[4], "self": self_s}) + "\n")
        for label, (calls, secs) in tracer.leaves.items():
            f.write(json.dumps({"leaf": label, "calls": calls,
                                "seconds": secs}) + "\n")


def run(workload: str, seed: int, traced: bool,
        trace_out: Path | None = None) -> dict:
    # numpy and scipy load before the clock starts; the package's own
    # import time is part of setup_s
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    paces = [pace_sample_s()]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import iga_asp.bench as bench
    import_s = time.perf_counter() - t0

    spec_kw = specs_for(workload, seed)
    tracer = Tracer(TRACE_POINTS if traced else COARSE_POINTS)
    results: list = []
    wall = 0.0
    problems: list[str] = []
    run_experiment = getattr(bench, "run_experiment", None)
    if run_experiment is None:
        problems.append("wrapped function iga_asp.bench:run_experiment "
                        "not found")
        results = ["run_experiment not found"] * len(spec_kw)
    else:
        with tracer:
            if traced:
                run_experiment = tracer.span(Tracer.ROOT, run_experiment)
            for i, kw in enumerate(spec_kw):
                t = time.perf_counter()
                try:
                    rows = run_experiment(bench.ExperimentSpec(**kw))
                except Exception as exc:  # a failing spec fails its cells only
                    results.append(f"{type(exc).__name__}: {exc}")
                else:
                    results.append([dict(r, spec=i, curl_smoother=kw.get(
                        "curl_smoother", "diag")) for r in rows])
                wall += time.perf_counter() - t
                paces.append(pace_sample_s())
    problems += tracer.problems(tags(spec_kw))

    pace = sum(paces) / (len(paces) * PACE_REF_S)
    solve_s = tracer.seconds("krylov.pcg")
    cond_s = tracer.seconds("krylov.cond")
    errors_s = tracer.seconds("bench.errors")
    out = {
        "workload": workload,
        "traced": traced,
        "wall_s": wall,
        "setup_s": import_s + wall - solve_s - cond_s - errors_s,
        "solve_s": solve_s,
        "cond_s": cond_s,
        "errors_s": errors_s,
        "import_s": import_s,
        "pace": pace,
        "iters_total": sum(r["iters"] for rows in results
                           if not isinstance(rows, str) for r in rows),
        "results": results,
        "problems": problems,
    }
    if traced:
        out["layers"] = layer_metrics(tracer)
        own = tracer.self_times()
        by_label: dict[str, float] = {}
        for s, t in zip(tracer.spans, own):
            by_label[s[0]] = by_label.get(s[0], 0.0) + t
        out["self_by_label"] = by_label
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["env"] = environment(seed)
    if traced and trace_out is not None:
        _write_trace(trace_out, tracer, {"workload": workload,
                                         "env": out["env"]})
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)
    # single-threaded baseline: pinned before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    out = run(args.workload, args.seed, bool(args.trace), args.trace_out)
    print(json.dumps(out, default=lambda o: o.item()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
