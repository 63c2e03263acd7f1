"""Timers and spans wrapped around the program's public functions.

A ``Point`` names a layer label and the attributes its callers look the
function up by (``module:attr`` or ``module:Class.attr``).  ``Tracer``
replaces each attribute with a wrapper while it is entered and restores
the originals on exit.  Span wrappers record name, start, end, parent
span and cell id in memory; leaf wrappers, for hot or cheap calls, keep
only a call count and a total time.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Point:
    label: str
    kind: str                    # "span" or "leaf"
    needs: str                   # workload tag under which calls are mandatory
    targets: tuple[str, ...]     # empty: the leaf is created by a hook


# The only timers of an untraced run: the calls bench makes per cell.
COARSE_POINTS = (
    Point("krylov.pcg", "leaf", "cells", ("iga_asp.bench:pcg",)),
    Point("krylov.cond", "leaf", "cond",
          ("iga_asp.bench:estimate_condition_number",)),
    Point("bench.errors", "leaf", "errors",
          ("iga_asp.bench:l2_coefficient_error",)),
)

TRACE_POINTS = (
    Point("assembly.system_matrix", "span", "cells",
          ("iga_asp.bench:system_matrix",)),
    Point("precond.setup", "span", "precond",
          ("iga_asp.bench:AspPreconditioner",)),
    Point("krylov.glt_setup", "span", "glt",
          ("iga_asp.bench:GltPreconditioner",)),
    Point("krylov.pcg", "span", "cells", ("iga_asp.bench:pcg",)),
    Point("krylov.cond", "span", "cond",
          ("iga_asp.bench:estimate_condition_number",)),
    Point("bench.errors", "span", "errors",
          ("iga_asp.bench:l2_coefficient_error",)),
    Point("transfer.function_projection_1d", "span", "errors",
          ("iga_asp.bench:function_projection_1d",)),
    Point("transfer.build_transfer_set", "span", "precond",
          ("iga_asp.precond:build_transfer_set",)),
    Point("assembly.aux", "span", "precond",
          ("iga_asp.precond:h1_vector_matrix", "iga_asp.precond:mass_matrix",
           "iga_asp.precond:scalar_laplacian_matrix",
           "iga_asp.precond:curl_stiffness_matrix")),
    Point("precond.factorize", "span", "precond",
          ("iga_asp.precond:InnerSolver.make",)),
    Point("precond.apply", "span", "asp",
          ("iga_asp.precond:AspPreconditioner.apply",)),
    Point("precond.correction", "span", "precond",
          ("iga_asp.precond:AspPreconditioner.correction",)),
    Point("krylov.glt_apply", "span", "glt",
          ("iga_asp.krylov:GltPreconditioner.apply",)),
    Point("splines1d.basis_values", "span", "cells",
          ("iga_asp.splines1d:basis_values", "iga_asp.assembly:basis_values")),
    Point("splines1d.factor_matrices", "span", "cells",
          ("iga_asp.assembly:mass_matrix_1d",
           "iga_asp.assembly:stiffness_matrix_1d",
           "iga_asp.transfer:histopolation_matrix_1d",
           "iga_asp.transfer:interpolation_matrix_1d",
           "iga_asp.splines1d:interpolation_matrix_1d")),
    Point("derham.differential", "span", "cells",
          ("iga_asp.assembly:differential_matrix",
           "iga_asp.derham:gradient_matrix", "iga_asp.derham:curl_matrix",
           "iga_asp.derham:divergence_matrix",
           "iga_asp.derham:scalar_curl_matrix",
           "iga_asp.derham:vector_curl_matrix")),
    Point("derham.build_space", "leaf", "cells",
          ("iga_asp.assembly:build_space", "iga_asp.precond:build_space",
           "iga_asp.transfer:build_space")),
    Point("splines1d.eval_nonzero_row", "leaf", "cells",
          ("iga_asp.splines1d:eval_nonzero_row",)),
    Point("precond.smoother", "leaf", "precond",
          ("iga_asp.precond:Smoother.apply",)),
    Point("precond.inner_solve", "leaf", "precond", ()),
)

_MISSING = object()


def _resolve(target: str):
    """(owner, attr, original, owned) of ``module:path.attr``."""
    module, path = target.split(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        original = owner.__dict__.get(attr, _MISSING)
        owned = original is not _MISSING
        if not owned:
            original = getattr(owner, attr)
    else:
        original = getattr(owner, attr)
        owned = True
    return owner, attr, original, owned


class Tracer:
    """Installs the wrappers of ``points`` while entered."""

    ROOT = "bench.run_experiment"

    def __init__(self, points) -> None:
        self.points = tuple(points)
        self.spans: list[list] = []     # [label, start, end, parent, cell, outer]
        self.leaves: dict[str, list] = {p.label: [0, 0.0] for p in self.points
                                        if p.kind == "leaf"}
        self.missing: list[str] = []
        self.cell = -1
        self.pcg_iters = 0
        self.nnz_P = 0
        self.largest_A = None
        self.largest_asp = None
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------
    def __enter__(self) -> "Tracer":
        for point in self.points:
            for target in point.targets:
                try:
                    owner, attr, original, owned = _resolve(target)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                wrapped = (self.span(point.label, original)
                           if point.kind == "span"
                           else self.leaf(point.label, original))
                self._saved.append((owner, attr, original, owned))
                setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, owned in reversed(self._saved):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    # -- wrappers -----------------------------------------------------
    def leaf(self, label: str, fn):
        acc = self.leaves.setdefault(label, [0, 0.0])

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += 1
                acc[1] += perf_counter() - t0
        return wrapped

    def span(self, label: str, fn):
        spans, stack, opened = self.spans, self._stack, self._open
        before, after = self._hooks().get(label, (None, None))

        def wrapped(*args, **kwargs):
            if before is not None:
                before()
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.cell,
                   not opened.get(label)]
            stack.append(len(spans))
            spans.append(rec)
            opened[label] = opened.get(label, 0) + 1
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                opened[label] -= 1
            return after(out) if after is not None else out
        return wrapped

    # -- hooks that read what the wrapped calls return -----------------
    def _hooks(self) -> dict:
        return {
            "assembly.system_matrix": (self._next_cell, self._system),
            "transfer.build_transfer_set": (None, self._transfers),
            "precond.setup": (None, self._asp),
            "precond.factorize": (None, self._inner_solve),
            "krylov.pcg": (None, self._pcg),
        }

    def _next_cell(self) -> None:
        self.cell += 1

    def _system(self, system):
        if self.largest_A is None or system.A.nnz > self.largest_A.nnz:
            self.largest_A = system.A
        return system

    def _transfers(self, ts):
        self.nnz_P += ts.P_main.nnz + (ts.P_curl.nnz if ts.P_curl is not None
                                       else 0)
        return ts

    def _asp(self, asp):
        if self.largest_asp is None or asp.shape[0] > self.largest_asp.shape[0]:
            self.largest_asp = asp
        return asp

    def _inner_solve(self, solve):
        return self.leaf("precond.inner_solve", solve)

    def _pcg(self, out):
        self.pcg_iters += out[1].iterations
        return out

    # -- readings -----------------------------------------------------
    def calls(self, label: str) -> int:
        if label in self.leaves:
            return self.leaves[label][0]
        return sum(1 for s in self.spans if s[0] == label)

    def seconds(self, label: str) -> float:
        """Total time in ``label``; nested calls of a label count once."""
        if label in self.leaves:
            return self.leaves[label][1]
        return sum(s[2] - s[1] for s in self.spans if s[0] == label and s[5])

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def self_seconds(self, label: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times())
                   if s[0] == label)

    def problems(self, tags: set[str]) -> list[str]:
        """Wrapper guard: targets that no longer exist, and mandatory
        wrappers that saw no calls."""
        out = [f"wrapped function {t} not found" for t in self.missing]
        for point in self.points:
            if point.needs in tags and self.calls(point.label) == 0:
                names = ", ".join(point.targets) or point.label
                out.append(f"{point.label} saw no calls ({names})")
        return out


def time_per_call(fn, min_batch_s: float = 0.02, batches: int = 5) -> float:
    """Median seconds per call of ``fn()`` after warm-up."""
    for _ in range(3):
        fn()
    k, t = 1, 0.0
    while True:
        t0 = perf_counter()
        for _ in range(k):
            fn()
        t = perf_counter() - t0
        if t >= min_batch_s or k >= 1 << 16:
            break
        k *= 2
    samples = [t / k]
    for _ in range(batches - 1):
        t0 = perf_counter()
        for _ in range(k):
            fn()
        samples.append((perf_counter() - t0) / k)
    return statistics.median(samples)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (the tracing overhead is
    added by the caller, which also has the untraced runs)."""
    import numpy as np

    pcg_s = tr.seconds("krylov.pcg")
    m = {
        "splines1d.basis_values.s": tr.seconds("splines1d.basis_values"),
        "splines1d.eval_nonzero_row.calls": tr.calls("splines1d.eval_nonzero_row"),
        "splines1d.factor_matrices.s": tr.seconds("splines1d.factor_matrices"),
        "derham.build_space.calls": tr.calls("derham.build_space"),
        "derham.differential.s": tr.seconds("derham.differential"),
        "assembly.system_matrix.s": tr.seconds("assembly.system_matrix"),
        "assembly.aux.s": tr.seconds("assembly.aux"),
        "transfer.build_transfer_set.s": tr.seconds("transfer.build_transfer_set"),
        "transfer.build_transfer_set.calls": tr.calls("transfer.build_transfer_set"),
        "transfer.nnz_P": tr.nnz_P,
        "transfer.function_projection_1d.s":
            tr.seconds("transfer.function_projection_1d"),
        "precond.setup.s": tr.seconds("precond.setup"),
        "precond.setup.self_s": tr.self_seconds("precond.setup"),
        "precond.factorize.s": tr.seconds("precond.factorize"),
        "precond.factorize.calls": tr.calls("precond.factorize"),
        "precond.inner_solve.s": tr.seconds("precond.inner_solve"),
        "precond.inner_solve.calls": tr.calls("precond.inner_solve"),
        "precond.apply.calls": tr.calls("precond.apply"),
        "precond.correction.s": tr.seconds("precond.correction"),
        "precond.smoother.s": tr.seconds("precond.smoother"),
        "krylov.pcg.s": pcg_s,
        "krylov.pcg.iters": tr.pcg_iters,
        "krylov.iteration_ms": 1e3 * pcg_s / max(tr.pcg_iters, 1),
        "krylov.glt_setup.s": tr.seconds("krylov.glt_setup"),
        "krylov.glt_apply.s": tr.seconds("krylov.glt_apply"),
        "krylov.glt_apply.self_s": tr.self_seconds("krylov.glt_apply"),
        "krylov.cond.s": tr.seconds("krylov.cond"),
        "krylov.cond.B_applies": sum(
            1 for s in tr.spans
            if s[0] == "precond.apply" and s[3] >= 0
            and tr.spans[s[3]][0] == "krylov.cond"),
        "bench.errors.s": tr.seconds("bench.errors"),
        "bench.self_s": tr.self_seconds(Tracer.ROOT),
    }
    m.update(dict.fromkeys(("assembly.nnz_A", "assembly.A_bytes_computed",
                             "assembly.A_matvec_us",
                             "assembly.A_matvec_gbps_computed",
                             "precond.apply_us"), 0))
    A = tr.largest_A
    if A is not None:
        x = np.ones(A.shape[0])
        matvec_s = time_per_call(lambda: A @ x)
        nbytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + 16 * A.shape[0]
        m["assembly.nnz_A"] = int(A.nnz)
        m["assembly.A_bytes_computed"] = int(A.data.nbytes + A.indices.nbytes
                                             + A.indptr.nbytes)
        m["assembly.A_matvec_us"] = 1e6 * matvec_s
        m["assembly.A_matvec_gbps_computed"] = nbytes / matvec_s / 1e9
    if tr.largest_asp is not None:
        r = np.random.default_rng(0).standard_normal(tr.largest_asp.shape[0])
        m["precond.apply_us"] = 1e6 * time_per_call(
            lambda: tr.largest_asp.apply(r))
    return m
