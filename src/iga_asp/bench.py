"""Experiment harness: manufactured solutions, parameter sweeps, error
metrics, and table emission.

The 2-D model problems have closed-form solutions built from a boundary
layer profile around the dominant null-space of the differential
operator; their right-hand sides are independent of tau, which is what
makes residual-based stopping misleading for small tau.  The 3-D runs
use simple polynomial right-hand sides and report iteration counts
only.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .assembly import (
    SystemSetup,
    field_coefficients,
    system_matrix,
    system_setup,
)
from .derham import TensorSpace, build_space
from .krylov import (
    DENSE_MAX_DIM,
    GltPreconditioner,
    estimate_condition_number,
    pcg,
)
from .precond import AspPreconditioner, AspSetup
from .transfer import function_projection_1d

__all__ = [
    "ManufacturedCase",
    "ExperimentSpec",
    "manufactured_2d",
    "rhs_3d",
    "layer_constant",
    "quasi_interpolant_coefficients",
    "l2_coefficient_error",
    "run_experiment",
    "emit",
    "COLUMNS",
]

FieldFuncs = Sequence[Callable[..., np.ndarray]]


def layer_constant(tau: float) -> float:
    """C1 = -tau^{-1} / (e^{-sqrt(tau)/2} + e^{sqrt(tau)/2}): amplitude
    of the exponential boundary-layer profile that zeroes the trace."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    s = math.sqrt(tau)
    return -1.0 / (tau * (math.exp(-s / 2.0) + math.exp(s / 2.0)))


def _layer_profile(tau: float):
    """g with -g'' + tau g = 1, g(0) = g(1) = 0 (1-D boundary layer)."""
    c1 = layer_constant(tau)
    s = math.sqrt(tau)

    def g(t):
        t = np.asarray(t, dtype=float)
        return c1 * (np.exp(-s * t + s / 2.0) + np.exp(s * t - s / 2.0)) + 1.0 / tau

    return g


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution/right-hand-side pair for one model problem."""

    problem: str
    dim: int
    tau: float
    variant: str
    rhs: FieldFuncs = field(repr=False)
    solution: FieldFuncs | None = field(repr=False, default=None)


def manufactured_2d(problem: str, variant: str, tau: float) -> ManufacturedCase:
    """2-D closed-form cases.

    ``pure``: the boundary-layer solution of f = (1, 1).  ``perturbed``:
    tau^{-1} times a field in the operator's null space plus 1e-2 times
    the pure solution; the right-hand side stays independent of tau.
    """
    if problem not in ("curl", "div"):
        raise ValueError("problem must be 'curl' or 'div'")
    if variant not in ("pure", "perturbed"):
        raise ValueError("variant must be 'pure' or 'perturbed'")
    g = _layer_profile(tau)
    if problem == "curl":
        # tangential trace: u1 vanishes at x2 = 0,1 and u2 at x1 = 0,1
        pure = (lambda x1, x2: g(x2) + 0.0 * x1,
                lambda x1, x2: g(x1) + 0.0 * x2)
        null = (lambda x1, x2: x2 * (x2 - 1.0) * (2.0 * x1 - 1.0),
                lambda x1, x2: x1 * (x1 - 1.0) * (2.0 * x2 - 1.0))
    else:
        # normal trace: u1 vanishes at x1 = 0,1 and u2 at x2 = 0,1;
        # the null field is the rotated gradient of x1(x1-1)x2(x2-1)
        pure = (lambda x1, x2: g(x1) + 0.0 * x2,
                lambda x1, x2: g(x2) + 0.0 * x1)
        null = (lambda x1, x2: x1 * (x1 - 1.0) * (2.0 * x2 - 1.0),
                lambda x1, x2: -x2 * (x2 - 1.0) * (2.0 * x1 - 1.0))
    if variant == "pure":
        rhs = (lambda x1, x2: 1.0 + 0.0 * x1 * x2,
               lambda x1, x2: 1.0 + 0.0 * x1 * x2)
        return ManufacturedCase(problem, 2, tau, variant, rhs, pure)
    sol = tuple(
        (lambda x1, x2, n=n, v=v: n(x1, x2) / tau + 1e-2 * v(x1, x2))
        for n, v in zip(null, pure))
    rhs = tuple(
        (lambda x1, x2, n=n: n(x1, x2) + 1e-2)
        for n in null)
    return ManufacturedCase(problem, 2, tau, variant, rhs, sol)


def rhs_3d(problem: str, tau: float) -> ManufacturedCase:
    """3-D polynomial right-hand sides (no closed-form solution)."""
    if problem == "curl":
        rhs = (lambda x1, x2, x3: x1 + 0.0 * x2,
               lambda x1, x2, x3: x2 + 0.0 * x3,
               lambda x1, x2, x3: x3 + 0.0 * x1)
    elif problem == "div":
        rhs = (lambda x1, x2, x3: x2 * x3 + 0.0 * x1,
               lambda x1, x2, x3: x1 * x3 + 0.0 * x2,
               lambda x1, x2, x3: x1 * x2 + 0.0 * x3)
    else:
        raise ValueError("problem must be 'curl' or 'div'")
    return ManufacturedCase(problem, 3, tau, "rhs-only", rhs, None)


def quasi_interpolant_coefficients(space: TensorSpace, funcs: FieldFuncs,
                                   projections: dict | None = None) -> np.ndarray:
    """Coefficients of the commuting quasi-interpolant of an analytic
    vector field: tensor products of the 1-D Greville interpolation and
    histopolation operators applied componentwise.  ``projections`` maps
    each 1-D factor to its :func:`function_projection_1d` pair; missing
    factors are computed into it, so one dict shared by the calls on one
    mesh computes each pair once."""
    if projections is None:
        projections = {}

    def pairs(comp):
        for f in comp:
            if f not in projections:
                projections[f] = function_projection_1d(f)
        return [projections[f] for f in comp]
    return field_coefficients(space, funcs, pairs)


def l2_coefficient_error(u_computed: np.ndarray, exact: ManufacturedCase,
                         space: TensorSpace,
                         projections: dict | None = None) -> float:
    """Relative l2 error of the coefficient vector against the
    commuting quasi-interpolant of the exact solution (``projections``
    as in :func:`quasi_interpolant_coefficients`)."""
    if exact.solution is None:
        raise ValueError("the case has no closed-form solution")
    ref = quasi_interpolant_coefficients(space, exact.solution, projections)
    nref = np.linalg.norm(ref)
    if nref == 0.0:
        raise ZeroDivisionError("exact-solution coefficients have zero norm")
    return float(np.linalg.norm(np.asarray(u_computed, dtype=float) - ref) / nref)


_CHOICES = {"precond": ("none", "asp", "asp-glt"), "smoother": ("jacobi", "gs"),
            "curl_smoother": ("diag", "sgs"), "variant": ("pure", "perturbed"),
            "cond_mode": ("auto", "dense", "lanczos")}


@dataclass(frozen=True)
class ExperimentSpec:
    """One parameter sweep: the cross product of p, n, and tau values."""

    problem: str
    dim: int
    p_values: tuple[int, ...]
    n_values: tuple[int, ...]
    tau_values: tuple[float, ...]
    precond: str = "none"                  # none | asp | asp-glt
    smoother: str = "jacobi"               # jacobi | gs
    curl_smoother: str = "diag"            # diag | sgs (3-D div only)
    nu1: int = 1
    nu2_rule: str | int = "psq"            # psq | pcube | fixed integer
    nu_asp: int = 3
    tol: float = 1e-6
    max_iter: int = 3000
    report: tuple[str, ...] = ("iters",)   # iters, cond, errors
    variant: str = "perturbed"             # pure | perturbed (2-D)
    cond_mode: str = "auto"                # auto | dense | lanczos

    def __post_init__(self) -> None:
        if not (self.p_values and self.n_values and self.tau_values):
            raise ValueError("p, n, and tau ranges must be non-empty")
        for name in ("p", "n", "tau"):
            values = getattr(self, f"{name}_values")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} values must be distinct;"
                                 f" {repeated[0]!r} is repeated")
        if self.problem not in ("curl", "div"):
            raise ValueError("problem must be 'curl' or 'div'")
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}")
        if self.curl_smoother == "sgs" and (self.problem, self.dim) != ("div", 3):
            raise ValueError("curl_smoother must be 'diag' outside 3-D div")
        if min(*self.p_values, *self.n_values, self.nu1, self.nu_asp,
               self.max_iter) < 1:
            raise ValueError("p, n, nu1, nu_asp and max_iter must be >= 1")
        if self.nu2_rule not in ("psq", "pcube") and not (
                type(self.nu2_rule) is int and self.nu2_rule >= 1):
            raise ValueError("nu2 must be psq, pcube or an integer >= 1")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not all(0.0 < t < math.inf for t in self.tau_values):
            raise ValueError("tau values must be positive and finite")
        bad = set(self.report) - {"iters", "cond", "errors"}
        if bad:
            raise ValueError(f"unknown report fields {sorted(bad)}")
        # the cycle has no kappa; no preconditioner exists yet to ask
        dense = (self.cond_mode == "dense" and "cond" in self.report
                 and self.precond != "asp-glt")
        for p in self.p_values:
            for n in self.n_values:
                N = build_space(self.problem, p, n, dim=self.dim,
                                bc="essential").total_dim
                if N == 0:
                    raise ValueError(f"the problem space must be non-empty;"
                                     f" p={p} n={n} has N=0 unknowns")
                if dense and N > DENSE_MAX_DIM:
                    raise ValueError(
                        f"dense kappa is limited to N <= {DENSE_MAX_DIM}"
                        f" unknowns; p={p} n={n} has N={N}")

    def nu2(self, p: int) -> int:
        if self.nu2_rule == "psq":
            return p * p
        if self.nu2_rule == "pcube":
            return p ** 3
        return int(self.nu2_rule)


COLUMNS = ["problem", "dim", "p", "n", "tau", "precond", "smoother",
           "iters", "converged", "kappa2", "res_err", "l2_err", "wall_ms"]


def _make_case(spec: ExperimentSpec, tau: float) -> ManufacturedCase:
    if spec.dim == 2:
        return manufactured_2d(spec.problem, spec.variant, tau)
    return rhs_3d(spec.problem, tau)


class _SharedSetup:
    """The tau-independent setups of one (p, n) of a sweep (the system's,
    with K and the composite cycle's mass basis, and the ASP's): its
    first cell builds each piece it needs; the other tau cells reuse
    them."""

    def __init__(self, spec: ExperimentSpec, p: int, n: int) -> None:
        self.spec, self.p, self.n = spec, p, n
        self.projections: dict = {}     # see quasi_interpolant_coefficients

    @cached_property
    def system(self) -> SystemSetup:
        return system_setup(self.spec.problem, self.spec.dim, self.p, self.n)

    @cached_property
    def asp(self) -> AspSetup:
        return AspSetup(self.system, self.spec.curl_smoother)


def _cell(spec: ExperimentSpec, shared: _SharedSetup, tau: float) -> dict:
    """One row: CG and kappa both read the system and the
    preconditioner; dense kappa also gets the space, for its
    symmetry-adapted bases.  A nonlinear preconditioner (the composite cycle) has no
    kappa, so its row leaves ``kappa2`` empty."""
    t0 = time.perf_counter()
    p, n = shared.p, shared.n
    case = _make_case(spec, tau)
    system = system_matrix(shared.system, tau, case.rhs)
    precond = None
    if spec.precond != "none":
        precond = AspPreconditioner(shared.asp, system, spec.smoother)
    if spec.precond == "asp-glt":
        precond = GltPreconditioner(precond, spec.nu1, spec.nu2(p), spec.nu_asp)
    x, rep = pcg(system, system.b, precond, tol=spec.tol,
                 max_iter=spec.max_iter)
    glt = spec.precond == "asp-glt"
    row = {
        "problem": spec.problem, "dim": spec.dim, "p": p, "n": n, "tau": tau,
        "precond": spec.precond, "smoother": spec.smoother,
        "curl_smoother": spec.curl_smoother if precond is not None
        and (spec.problem, spec.dim) == ("div", 3) else None,
        "nu1": spec.nu1 if glt else None, "nu2": spec.nu2(p) if glt else None,
        "nu_asp": spec.nu_asp if glt else None,
        "iters": rep.iterations, "converged": rep.converged,
        "kappa2": None, "res_err": min(rep.residuals), "l2_err": None,
    }
    if "cond" in spec.report and not getattr(precond, "nonlinear", False):
        _, _, kappa = estimate_condition_number(system, precond,
                                                mode=spec.cond_mode)
        row["kappa2"] = kappa
    if "errors" in spec.report and case.solution is not None:
        row["l2_err"] = l2_coefficient_error(x, case, shared.system.space,
                                             shared.projections)
    row["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return row


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """All sweep cells, ordered p-major, then n, then tau.  The tau
    cells of one (p, n) share one :class:`_SharedSetup`, whose pieces
    are charged to the ``wall_ms`` of the cell that builds them."""
    rows = []
    for p in spec.p_values:
        for n in spec.n_values:
            shared = _SharedSetup(spec, p, n)
            rows += [_cell(spec, shared, tau) for tau in spec.tau_values]
    return rows


def _fmt(value, column: str) -> str:
    if value is None:
        return ""
    if column == "converged":
        return "true" if value else "false"
    if column in ("kappa2", "res_err", "l2_err", "tau"):
        return f"{value:.2e}"
    if column == "wall_ms":
        return f"{value:.1f}"
    return str(value)


def _row_cells(row: dict) -> list[str]:
    cells = []
    for col in COLUMNS:
        if col == "iters" and not row.get("converged", True):
            cells.append("-")          # the non-convergence marker
            continue
        cells.append(_fmt(row.get(col), col))
    return cells


def emit(rows: list[dict], fmt: str = "csv") -> str:
    """Render a result table as CSV, JSON, or an aligned text table."""
    if fmt == "csv":
        lines = [",".join(COLUMNS)]
        lines += [",".join(_row_cells(r)) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        # JSON rows also name the options that tell specs apart: the curl
        # smoother of a 3-D div preconditioner and the composite cycle's
        # counts (None where they do not apply)
        at = COLUMNS.index("iters")
        keys = COLUMNS[:at] + ["curl_smoother", "nu1", "nu2", "nu_asp"] + COLUMNS[at:]
        out = []
        for r in rows:
            rec = {c: r.get(c) for c in keys}
            if not rec["converged"]:
                rec["iters"] = None
            out.append(rec)
        return json.dumps(out, indent=2) + "\n"
    if fmt == "pretty":
        return _pretty(rows)
    raise ValueError("format must be 'csv', 'json', or 'pretty'")


def _tau_label(tau: float) -> str:
    """The shortest e-notation of ``tau`` that reads back as the same
    double: ``1e-04``, but ``1.4e-04`` for 1.4e-4."""
    return next(label for digits in range(17)
                if float(label := f"{tau:.{digits}e}") == tau)


def _pretty(rows: list[dict]) -> str:
    """Per-(p, problem) blocks with tau rows and n columns, iteration
    counts (condition numbers appended in parentheses when present)."""
    blocks: dict[tuple, dict] = {}
    for r in rows:
        key = (r["problem"], r["dim"], r["p"], r["precond"], r["smoother"])
        blocks.setdefault(key, {})[(r["tau"], r["n"])] = r
    out = []
    for key, cells in blocks.items():
        problem, dim, p, precond, smoother = key
        taus = sorted({t for t, _ in cells})
        ns = sorted({n for _, n in cells})
        out.append(f"# {problem} {dim}-d  p={p}  precond={precond}"
                   f"  smoother={smoother}")
        head = ["tau\\n"] + [str(n) for n in ns]
        table = [head]
        for t in taus:
            line = [_tau_label(t)]
            for n in ns:
                r = cells.get((t, n))
                if r is None:
                    line.append("")
                elif not r["converged"]:
                    line.append("-")
                else:
                    s = str(r["iters"])
                    if r.get("kappa2") is not None:
                        s += f" ({r['kappa2']:.2e})"
                    line.append(s)
            table.append(line)
        widths = [max(len(row[i]) for row in table) for i in range(len(head))]
        for row in table:
            out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        out.append("")
    return "\n".join(out)
