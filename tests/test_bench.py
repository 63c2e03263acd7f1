"""Manufactured solutions, error metric, sweeps, and table emission."""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from iga_asp import assembly, bench, derham, precond, splines1d, transfer
from iga_asp.assembly import system_matrix, system_setup
from iga_asp.bench import (
    COLUMNS,
    ExperimentSpec,
    emit,
    l2_coefficient_error,
    layer_constant,
    manufactured_2d,
    quasi_interpolant_coefficients,
    rhs_3d,
    run_experiment,
)
from iga_asp.derham import build_space
from iga_asp.krylov import (
    GltPreconditioner,
    estimate_condition_number,
    pcg,
)
from iga_asp.precond import AspPreconditioner, AspSetup
from iga_asp.splines1d import drop_small


class TestAmplitudeConstants:
    def test_layer_constant_at_tau_one(self):
        # C1(1) = -1 / (e^{-1/2} + e^{1/2})
        expected = -1.0 / (math.exp(-0.5) + math.exp(0.5))
        assert layer_constant(1.0) == pytest.approx(expected, rel=1e-14)

    def test_positive_tau_required(self):
        with pytest.raises(ValueError):
            layer_constant(0.0)


def fd_residual(case, tau, h=1e-3):
    """Finite-difference residual of the model PDE at interior points.

    curl problem: (curl curl u + tau u - f); div: (-grad div u + tau u - f).
    Second derivatives via central differences with step h.
    """
    u1, u2 = case.solution
    f1, f2 = case.rhs
    pts = [(0.31, 0.47), (0.62, 0.23), (0.5, 0.74)]
    worst = 0.0
    for x, y in pts:
        def dd(f, ix, iy):           # mixed/second partials of f
            if (ix, iy) == (2, 0):
                return (f(x + h, y) - 2 * f(x, y) + f(x - h, y)) / h**2
            if (ix, iy) == (0, 2):
                return (f(x, y + h) - 2 * f(x, y) + f(x, y - h)) / h**2
            return (f(x + h, y + h) - f(x + h, y - h)
                    - f(x - h, y + h) + f(x - h, y - h)) / (4 * h**2)
        if case.problem == "curl":
            # curl curl u = (d2(u1)/dy2... ) : component-wise
            r1 = dd(u1, 0, 2) - dd(u2, 1, 1)
            r2 = dd(u2, 2, 0) - dd(u1, 1, 1)
            res1 = -r1 + tau * u1(x, y) - f1(x, y)
            res2 = -r2 + tau * u2(x, y) - f2(x, y)
        else:
            # -grad div u + tau u - f
            res1 = -(dd(u1, 2, 0) + dd(u2, 1, 1)) + tau * u1(x, y) - f1(x, y)
            res2 = -(dd(u1, 1, 1) + dd(u2, 0, 2)) + tau * u2(x, y) - f2(x, y)
        worst = max(worst, abs(float(res1)), abs(float(res2)))
    return worst


class TestManufactured2d:
    @pytest.mark.parametrize("problem", ["curl", "div"])
    @pytest.mark.parametrize("tau", [1e-4, 1.0, 1e2])
    def test_pure_solution_satisfies_pde(self, problem, tau):
        case = manufactured_2d(problem, "pure", tau)
        scale = max(1.0, 1.0 / tau)
        assert fd_residual(case, tau) <= 1e-4 * scale

    @pytest.mark.parametrize("problem", ["curl", "div"])
    def test_perturbed_solution_satisfies_pde(self, problem):
        tau = 1e-2
        case = manufactured_2d(problem, "perturbed", tau)
        assert fd_residual(case, tau) <= 1e-2   # fields scale like 1/tau

    @pytest.mark.parametrize("problem", ["curl", "div"])
    def test_perturbed_rhs_is_tau_free(self, problem):
        # same f for very different tau values
        a = manufactured_2d(problem, "perturbed", 1e-6)
        b = manufactured_2d(problem, "perturbed", 1e2)
        x, y = np.array([0.3, 0.8]), np.array([0.1, 0.6])
        for fa, fb in zip(a.rhs, b.rhs):
            np.testing.assert_allclose(fa(x, y), fb(x, y), atol=1e-14)

    def test_curl_boundary_traces_vanish(self):
        # tangential trace: u1 = 0 on x2 in {0,1}, u2 = 0 on x1 in {0,1}
        case = manufactured_2d("curl", "perturbed", 1e-3)
        u1, u2 = case.solution
        t = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(u1(t, 0.0 * t), 0.0, atol=1e-12)
        np.testing.assert_allclose(u1(t, 1.0 + 0.0 * t), 0.0, atol=1e-12)
        np.testing.assert_allclose(u2(0.0 * t, t), 0.0, atol=1e-12)
        np.testing.assert_allclose(u2(1.0 + 0.0 * t, t), 0.0, atol=1e-12)

    def test_div_boundary_traces_vanish(self):
        # normal trace: u1 = 0 on x1 in {0,1}, u2 = 0 on x2 in {0,1}
        case = manufactured_2d("div", "perturbed", 1e-3)
        u1, u2 = case.solution
        t = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(u1(0.0 * t, t), 0.0, atol=1e-12)
        np.testing.assert_allclose(u1(1.0 + 0.0 * t, t), 0.0, atol=1e-12)
        np.testing.assert_allclose(u2(t, 0.0 * t), 0.0, atol=1e-12)
        np.testing.assert_allclose(u2(t, 1.0 + 0.0 * t), 0.0, atol=1e-12)

    def test_null_field_is_annihilated(self):
        # the large perturbed component lies in the operator's null
        # space: curl of the curl-null field and div of the div-null
        # field vanish identically (finite differences)
        h = 1e-5
        x, y = 0.37, 0.66
        c1 = lambda a, b: b * (b - 1.0) * (2.0 * a - 1.0)
        c2 = lambda a, b: a * (a - 1.0) * (2.0 * b - 1.0)
        curl_of = ((c1(x, y + h) - c1(x, y - h))
                   - (c2(x + h, y) - c2(x - h, y))) / (2 * h)
        assert abs(curl_of) <= 1e-9
        d1 = lambda a, b: a * (a - 1.0) * (2.0 * b - 1.0)
        d2 = lambda a, b: -b * (b - 1.0) * (2.0 * a - 1.0)
        div_of = ((d1(x + h, y) - d1(x - h, y))
                  + (d2(x, y + h) - d2(x, y - h))) / (2 * h)
        assert abs(div_of) <= 1e-9

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            manufactured_2d("mass", "pure", 1.0)
        with pytest.raises(ValueError):
            manufactured_2d("curl", "exact", 1.0)


class TestRhs3d:
    def test_components(self):
        x = np.array([0.2]), np.array([0.3]), np.array([0.5])
        curl = rhs_3d("curl", 1.0)
        np.testing.assert_allclose([f(*x)[0] for f in curl.rhs],
                                   [0.2, 0.3, 0.5])
        div = rhs_3d("div", 1.0)
        np.testing.assert_allclose([f(*x)[0] for f in div.rhs],
                                   [0.15, 0.1, 0.06])
        assert curl.solution is None

    def test_bad_problem(self):
        with pytest.raises(ValueError):
            rhs_3d("grad", 1.0)


class TestQuasiInterpolant:
    def test_reproduces_polynomials(self):
        space = build_space("curl", 3, 4, dim=2)
        # degrees per factor: component 0 is (D deg 2, B deg 3),
        # component 1 is (B deg 3, D deg 2) -- stay inside both
        funcs = [lambda x, y: x**2 * y, lambda x, y: x + y**2]
        c = quasi_interpolant_coefficients(space, funcs)
        # oracle: evaluate the spline expansion pointwise
        from iga_asp.splines1d import basis_values
        pts = (np.array([0.23, 0.71]), np.array([0.4, 0.9]))
        for k, f in enumerate(funcs):
            comp = space.components[k]
            off = sum(space.component_dims[:k])
            C = c[off: off + space.component_dims[k]].reshape(
                space.component_shapes[k])
            V0 = basis_values(comp[0], pts[0])
            V1 = basis_values(comp[1], pts[1])
            vals = V0 @ C @ V1.T
            expected = f(pts[0][:, None], pts[1][None, :])
            np.testing.assert_allclose(vals, expected, atol=1e-10)

    def test_error_metric_zero_for_projected_solution(self):
        tau = 1e-2
        case = manufactured_2d("curl", "pure", tau)
        space = build_space("curl", 2, 8, dim=2, bc="essential")
        ref = quasi_interpolant_coefficients(space, case.solution)
        assert l2_coefficient_error(ref, case, space) <= 1e-14

    def test_error_metric_requires_solution(self):
        case = rhs_3d("curl", 1.0)
        space = build_space("curl", 1, 2, dim=3, bc="essential")
        with pytest.raises(ValueError):
            l2_coefficient_error(np.zeros(space.total_dim), case, space)

    def test_galerkin_solution_error_small(self):
        # solving the discrete problem should land close to the
        # quasi-interpolant of the exact solution
        tau = 1.0
        case = manufactured_2d("curl", "pure", tau)
        setup = system_setup("curl", 2, 2, 16)
        system = system_matrix(setup, tau, case.rhs)
        B = AspPreconditioner(AspSetup(setup), system)
        x, rep = pcg(system.A, system.b, B, tol=1e-10, max_iter=200)
        assert rep.converged
        assert l2_coefficient_error(x, case, setup.space) <= 1e-3


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec("curl", 2, (), (8,), (1.0,))
        with pytest.raises(ValueError):
            ExperimentSpec("curl", 2, (1,), (8,), (-1.0,))
        for tau in (math.inf, math.nan):
            with pytest.raises(ValueError):
                ExperimentSpec("curl", 2, (1,), (8,), (tau,))
        with pytest.raises(ValueError):
            ExperimentSpec("curl", 2, (1,), (8,), (1.0,), precond="amg")
        with pytest.raises(ValueError):
            ExperimentSpec("curl", 2, (1,), (8,), (1.0,), report=("time",))
        # sweep values a cell would die on, or run to no purpose
        for bad in (dict(p_values=(1, 0)), dict(n_values=(0,)),
                    dict(nu1=0), dict(nu_asp=0), dict(nu2_rule=0),
                    dict(nu2_rule=-2), dict(nu2_rule="p2"),
                    dict(nu2_rule=2.0), dict(nu2_rule=True),
                    dict(tol=0.0), dict(tol=-1.0), dict(tol=math.inf),
                    dict(tol=math.nan), dict(max_iter=0),
                    # p = 1, n = 1 leaves no unknowns in any problem space
                    dict(n_values=(1,)), dict(n_values=(1, 4)),
                    dict(n_values=(1,), precond="asp", report=("cond",)),
                    dict(n_values=(1,), precond="asp", report=("errors",)),
                    dict(n_values=(1,), problem="div", dim=3, precond="asp")):
            with pytest.raises(ValueError):
                ExperimentSpec(**{"problem": "curl", "dim": 2, "p_values": (1,),
                                  "n_values": (8,), "tau_values": (1.0,),
                                  "precond": "asp-glt", **bad})

    def test_sgs_curl_smoother_outside_3d_div_rejected(self):
        # it would do nothing there, and the rows would not say so
        for problem, dim in (("curl", 2), ("div", 2), ("curl", 3)):
            for precond in ("none", "asp", "asp-glt"):
                with pytest.raises(ValueError, match="3-D div"):
                    ExperimentSpec(problem, dim, (1,), (4,), (1.0,),
                                   precond=precond, curl_smoother="sgs")
        ExperimentSpec("div", 3, (1,), (2,), (1.0,), precond="asp",
                       curl_smoother="sgs")

    def test_dense_kappa_past_its_limit_rejected(self):
        # 2-D curl p=1 n=110 has N = 23,980: rejected from the space
        # dimensions before any cell runs
        with pytest.raises(ValueError, match=r"p=1 n=110 has N=23980"):
            ExperimentSpec("curl", 2, (1,), (8, 110), (1e-4,), precond="asp",
                           report=("cond",), cond_mode="dense")
        # auto, Lanczos, or no kappa: accepted
        for kw in (dict(cond_mode="auto"), dict(cond_mode="lanczos"),
                   dict(report=("iters",), cond_mode="dense")):
            ExperimentSpec("curl", 2, (1,), (8, 110), (1e-4,), precond="asp",
                           **{"report": ("cond",), **kw})

    @pytest.mark.parametrize("field, values, shown", [
        ("p_values", (1, 2, 1), "p values must be distinct; 1 is repeated"),
        ("n_values", (2, 2), "n values must be distinct; 2 is repeated"),
        ("tau_values", (1e-4, 1.0, 1e-4), "tau values must be distinct; 0.0001")])
    def test_repeated_values_rejected(self, field, values, shown):
        # a repeated value would run its cells twice and share one
        # pretty-table cell
        base = dict(problem="curl", dim=2, p_values=(1,), n_values=(4,),
                    tau_values=(1.0,))
        with pytest.raises(ValueError, match=shown):
            ExperimentSpec(**{**base, field: values})

    def test_nu2_rules(self):
        base = dict(problem="curl", dim=2, p_values=(1,), n_values=(4,),
                    tau_values=(1.0,))
        assert ExperimentSpec(**base, nu2_rule="psq").nu2(3) == 9
        assert ExperimentSpec(**base, nu2_rule="pcube").nu2(3) == 27
        assert ExperimentSpec(**base, nu2_rule=5).nu2(3) == 5


@pytest.fixture(scope="module")
def sweep_rows():
    spec = ExperimentSpec("curl", 2, (1, 2), (4,), (1e-2, 1.0),
                          precond="asp", report=("iters", "cond", "errors"))
    return run_experiment(spec)


@pytest.fixture(scope="module")
def emit_rows():
    spec = ExperimentSpec("curl", 2, (1,), (4,), (1e-2,),
                          precond="asp", report=("iters", "cond"))
    return run_experiment(spec)


class TestRunExperiment:
    @pytest.fixture
    def rows(self, sweep_rows):
        return sweep_rows

    def test_row_ordering_and_count(self, rows):
        assert len(rows) == 4
        assert [(r["p"], r["tau"]) for r in rows] == [
            (1, 1e-2), (1, 1.0), (2, 1e-2), (2, 1.0)]

    def test_rows_have_all_columns(self, rows):
        for r in rows:
            assert set(COLUMNS) <= set(r)

    def test_cells_converged_with_metrics(self, rows):
        for r in rows:
            assert r["converged"]
            assert r["kappa2"] is not None and r["kappa2"] >= 1.0
            assert r["l2_err"] is not None
            assert r["res_err"] <= 1e-6

    def test_deterministic_modulo_walltime(self, rows):
        spec = ExperimentSpec("curl", 2, (1, 2), (4,), (1e-2, 1.0),
                              precond="asp", report=("iters", "cond",
                                                     "errors"))
        again = run_experiment(spec)
        for a, b in zip(rows, again):
            da = {k: v for k, v in a.items() if k != "wall_ms"}
            db = {k: v for k, v in b.items() if k != "wall_ms"}
            assert da == db

    def test_glt_skips_condition_numbers(self):
        spec = ExperimentSpec("curl", 2, (2,), (4,), (1e-2,),
                              precond="asp-glt", report=("iters", "cond"))
        (row,) = run_experiment(spec)
        assert row["converged"]
        assert row["kappa2"] is None


def count_calls(monkeypatch, fn) -> list[int]:
    """Replace every binding of ``fn`` in the iga_asp modules by a
    wrapper that counts calls; returns the one-element counter."""
    counter = [0]

    def counted(*args, **kwargs):
        counter[0] += 1
        return fn(*args, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("iga_asp"):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return counter


def count_forward_transforms(monkeypatch) -> list[int]:
    """Count the calls of ``InnerSolver.forward`` (the solves of the
    preconditioner do not call it); returns the one-element counter."""
    counter = [0]
    forward = precond.InnerSolver.forward

    def counted(self, b):
        counter[0] += 1
        return forward(self, b)
    monkeypatch.setattr(precond.InnerSolver, "forward", counted)
    return counter


# one small (p, n) with three tau values per path through the setup: 2-D
# curl with kappa and errors, 2-D div, 3-D curl, 3-D div with the
# composite cycle and SGS
TAUS = (1e-2, 1.0, 1e2)
SHARED_SETUP_CELLS = [
    ExperimentSpec("curl", 2, (2,), (4,), TAUS, precond="asp",
                   report=("iters", "cond", "errors")),
    ExperimentSpec("div", 2, (2,), (4,), TAUS, precond="asp"),
    ExperimentSpec("curl", 3, (2,), (2,), TAUS, precond="asp"),
    ExperimentSpec("div", 3, (2,), (2,), TAUS, precond="asp-glt",
                   curl_smoother="sgs"),
]


each_path = pytest.mark.parametrize(
    "spec", SHARED_SETUP_CELLS, ids=lambda s: f"{s.problem}{s.dim}d-{s.precond}")


def without_wall_time(rows):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]


def recorded(fn, out: list):
    """``fn`` with each of its results appended to ``out``."""
    def wrapper(*args, **kwargs):
        out.append(fn(*args, **kwargs))
        return out[-1]
    return wrapper


def assert_same_sparse(a, b):
    assert a.shape == b.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


class TestSharedDiscretization:
    @each_path
    def test_each_cell_builds_spaces_and_factors_once(self, monkeypatch, spec):
        counts = {fn.__name__: count_calls(monkeypatch, fn) for fn in (
            splines1d.mass_matrix_1d, splines1d.stiffness_matrix_1d,
            splines1d.histopolation_matrix_1d, derham.curl_matrix,
            derham.build_space, transfer.build_transfer_set)}
        rows = run_experiment(spec)
        assert all(r["converged"] for r in rows)
        got = {name: c[0] for name, c in counts.items()}
        # the tau cells of one (p, n) build what one cell builds: a
        # uniform mesh has one B and one D factor space, so 2 masses and
        # 1 stiffness; 5 spaces; one histopolation, which the transfers
        # of a set (P_div and P_curl in 3-D div) share
        assert got["mass_matrix_1d"] <= 2, got
        assert got["stiffness_matrix_1d"] <= 1, got
        assert got["histopolation_matrix_1d"] <= 1, got
        assert got["curl_matrix"] <= 1, got
        assert got["build_space"] <= 5, got
        assert got["build_transfer_set"] <= 1, got

    @each_path
    def test_tau_cells_add_no_setup(self, monkeypatch, spec):
        # every tau-independent builder runs as often for three tau
        # values as for one: eigenpairs, basis values, projections, the
        # composite cycle's mass basis, and the forward transforms that
        # build dense kappa's Gram factors
        counts = {fn.__name__: count_calls(monkeypatch, fn) for fn in (
            derham._eigh, splines1d.basis_values,
            transfer.function_projection_1d, assembly.differential_matrix,
            assembly.mass_operator, assembly.mass_basis)}
        counts["forward"] = count_forward_transforms(monkeypatch)

        def run(s):
            for c in counts.values():
                c[0] = 0
            run_experiment(s)
            return {name: c[0] for name, c in counts.items()}
        one = run(dataclasses.replace(spec, tau_values=spec.tau_values[:1]))
        assert one["mass_basis"] == (spec.precond == "asp-glt")
        assert run(spec) == one

    def test_gram_factors_only_for_dense_kappa(self, monkeypatch):
        # the Gram factors are built by a dense kappa (once per mesh, see
        # test_tau_cells_add_no_setup), and not at all in a sweep that
        # reports no kappa
        forward = count_forward_transforms(monkeypatch)
        spec = ExperimentSpec("curl", 2, (2,), (4,), TAUS, precond="asp",
                              report=("iters", "cond"), cond_mode="dense")
        run_experiment(spec)
        assert forward[0] > 0
        forward[0] = 0
        rows = run_experiment(dataclasses.replace(spec, report=("iters",)))
        assert all(r["converged"] for r in rows)
        assert forward[0] == 0

    def test_div_diag_curl_smoother_reads_its_setup(self, monkeypatch):
        # the diag curl smoother of 3-D div reads diag(C^T M_div C) from
        # the C of the transfer set and the M_div of the system setup:
        # C's blocks are built once, with the transfer set, and no mass
        setup = system_setup("div", 3, 2, 3)
        counts = {fn.__name__: count_calls(monkeypatch, fn) for fn in (
            derham.differential_blocks, assembly.mass_operator,
            transfer.build_transfer_set)}
        asp = AspSetup(setup, "diag")
        assert asp.curl_smoother.kind == "jacobi"
        got = {name: c[0] for name, c in counts.items()}
        assert got == {"differential_blocks": 1, "mass_operator": 0,
                       "build_transfer_set": 1}, got

    def test_stiffness_formed_once_per_mesh(self, monkeypatch):
        # three tau cells with dense kappa read three CSR A's, which all
        # add their tau M_D to one D^T M_range D
        setups, systems, formed = [], [], [0]
        monkeypatch.setattr(bench, "system_setup", recorded(system_setup, setups))
        monkeypatch.setattr(bench, "system_matrix", recorded(system_matrix, systems))
        matmul = sp.csc_matrix.__matmul__

        def counting_matmul(left, right):
            # D^T @ M_range, the first product of D^T M_range D
            formed[0] += any(right is vars(s).get("M_range") for s in setups)
            return matmul(left, right)
        monkeypatch.setattr(sp.csc_matrix, "__matmul__", counting_matmul)
        spec = ExperimentSpec("curl", 2, (2,), (4,), (1e-4, 1.0, 1e4),
                              precond="asp", report=("iters", "cond"),
                              cond_mode="dense")
        rows = run_experiment(spec)
        assert all(r["converged"] and r["kappa2"] for r in rows)
        assert len(setups) == 1 and len(systems) == 3
        assert formed[0] == 1
        monkeypatch.undo()
        setup, = setups
        for system in systems:
            assert "A" in vars(system)
            fresh = drop_small(setup.D_mat.T @ setup.M_range @ setup.D_mat
                               + system.tau * setup.M_D)
            assert_same_sparse(system.A, fresh)

    def test_dense_kappa_past_the_rule_assembles_no_csr_A(self, monkeypatch):
        # 2-D curl p=3 n=27 (N = 1,624) is past the product rule: CG
        # reads the factored product and dense kappa A's sector factors
        # from the CSR K and M_D, so K is built but no CSR A, and kappa
        # equals that of the same system on a fresh setup with its CSR A
        # assembled: the sector path reads no product of A
        systems = []
        monkeypatch.setattr(bench, "system_matrix", recorded(system_matrix, systems))
        spec = ExperimentSpec("curl", 2, (3,), (27,), (1e-4,), precond="asp",
                              report=("cond",), cond_mode="dense")
        row, = run_experiment(spec)
        monkeypatch.undo()
        system, = systems
        assert assembly.factored_product_wins(system.setup.space)
        assert "A" not in vars(system)
        assert "stiffness" in vars(system.setup)
        setup = dataclasses.replace(system.setup)
        csr = system_matrix(setup, system.tau)
        csr.A                   # the oracle's CSR A, assembled before kappa
        B = AspPreconditioner(AspSetup(setup), csr)
        _, _, oracle = estimate_condition_number(csr, B, mode="dense")
        assert "stiffness" in vars(setup)
        assert row["kappa2"] == pytest.approx(oracle, rel=1e-12)

    @each_path
    def test_sweep_rows_match_one_tau_at_a_time(self, spec):
        alone = [r for tau in spec.tau_values for r in run_experiment(
            dataclasses.replace(spec, tau_values=(tau,)))]
        assert without_wall_time(run_experiment(spec)) == without_wall_time(alone)

    @each_path
    def test_shared_setup_matches_one_off_path(self, spec):
        # one setup shared by the tau values gives the bits of a fresh
        # setup built for each tau alone
        p, n = spec.p_values[0], spec.n_values[0]

        def setups():
            setup = system_setup(spec.problem, spec.dim, p, n)
            return setup, AspSetup(setup, spec.curl_smoother)
        shared = setups()
        rng = np.random.default_rng(5)
        for tau in spec.tau_values:
            case = (manufactured_2d(spec.problem, "perturbed", tau)
                    if spec.dim == 2 else rhs_3d(spec.problem, tau))
            built = []
            for setup, asp_setup in (shared, setups()):
                system = system_matrix(setup, tau, case.rhs)
                B = AspPreconditioner(asp_setup, system, spec.smoother)
                glt = GltPreconditioner(B, 1, 2, 1)
                built.append((system, B, glt))
            (shared_sys, B, glt), (alone, B_alone, glt_alone) = built
            assert_same_sparse(shared_sys.A, alone.A)
            assert np.array_equal(shared_sys.b, alone.b)
            assert_same_sparse(B.setup.transfers.P_main,
                               B_alone.setup.transfers.P_main)
            assert_same_sparse(B.setup.transfers.potential,
                               B_alone.setup.transfers.potential)
            X = rng.standard_normal((alone.A.shape[0], 5))
            assert np.array_equal(B.apply(X), B_alone.apply(X))
            if spec.precond == "asp-glt":
                assert np.array_equal(glt.apply(X[:, 0]),
                                      glt_alone.apply(X[:, 0]))

    def test_setup_of_another_problem_rejected(self):
        setup = system_setup("curl", 2, 2, 4)
        other = system_matrix(system_setup("curl", 2, 2, 4), 1.0)
        with pytest.raises(ValueError):
            AspPreconditioner(AspSetup(setup), other)


class TestEmit:
    @pytest.fixture
    def rows(self, emit_rows):
        return emit_rows

    def test_csv_round_trip(self, rows):
        import csv
        import io
        text = emit(rows, "csv")
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(rows)
        assert int(parsed[0]["iters"]) == rows[0]["iters"]
        assert parsed[0]["converged"] == "true"

    def test_json_rows_name_their_options(self):
        # the curl smoother on 3-D div rows with a preconditioner and the
        # cycle counts on composite-cycle rows, None elsewhere; the CSV
        # keeps its columns
        rows = [*run_experiment(ExperimentSpec(
                    "div", 3, (1,), (2,), (1.0,), precond="asp-glt", nu1=2,
                    nu2_rule="pcube", nu_asp=1, curl_smoother="sgs")),
                *run_experiment(ExperimentSpec("div", 3, (1,), (2,), (1.0,))),
                *run_experiment(ExperimentSpec("curl", 2, (2,), (4,), (1.0,),
                                               precond="asp"))]
        options = [{k: r[k] for k in ("curl_smoother", "nu1", "nu2", "nu_asp")}
                   for r in json.loads(emit(rows, "json"))]
        assert options == [
            {"curl_smoother": "sgs", "nu1": 2, "nu2": 1, "nu_asp": 1},
            dict.fromkeys(("curl_smoother", "nu1", "nu2", "nu_asp")),
            dict.fromkeys(("curl_smoother", "nu1", "nu2", "nu_asp"))]
        assert emit(rows, "csv").splitlines()[0] == ",".join(COLUMNS)

    def test_json_round_trip(self, rows):
        data = json.loads(emit(rows, "json"))
        assert data[0]["iters"] == rows[0]["iters"]
        assert data[0]["problem"] == "curl"

    def test_pretty_contains_counts(self, rows):
        text = emit(rows, "pretty")
        assert "p=1" in text
        assert str(rows[0]["iters"]) in text

    def test_pretty_labels_tau_losslessly(self):
        # two tau values that round to one decade keep two labels;
        # decades keep their short form
        rows = run_experiment(ExperimentSpec("curl", 2, (1,), (4,),
                                             (1e-4, 1.4e-4, 1.0)))
        labels = [line.split()[0] for line in emit(rows, "pretty").splitlines()[2:]
                  if line.strip()]
        assert labels == ["1e-04", "1.4e-04", "1e+00"]

    def test_nonconverged_marker(self):
        row = {c: None for c in COLUMNS}
        row.update(problem="curl", dim=2, p=1, n=4, tau=1e-2,
                   precond="none", smoother="jacobi", iters=7,
                   converged=False, res_err=1.0, wall_ms=1.0)
        csv_text = emit([row], "csv")
        cells = csv_text.splitlines()[1].split(",")
        assert cells[COLUMNS.index("iters")] == "-"
        data = json.loads(emit([row], "json"))
        assert data[0]["iters"] is None

    def test_bad_format(self, rows):
        with pytest.raises(ValueError):
            emit(rows, "latex")
